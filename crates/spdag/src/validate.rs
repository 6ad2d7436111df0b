//! Consistency checks on SP decompositions and the structural lemmas of §III.
//!
//! These checks are used by tests (including property tests in
//! `fila-avoidance` and the integration suite) to make sure that any
//! decomposition handed to the interval algorithms — whether produced by the
//! recogniser or by the composer — actually describes the graph it claims
//! to describe, and that the cycle-structure lemmas the algorithms rely on
//! hold for it.

use fila_graph::{GraphError, Graph, Result};

use crate::forest::{SpDecomposition, SpKind};

/// Validates that `d` is a structurally consistent decomposition of `g`:
///
/// * every graph edge appears as exactly one leaf;
/// * every leaf's terminals match the edge's endpoints;
/// * series children chain sink-to-source, parallel children share
///   terminals (also enforced by debug assertions at construction time);
/// * the root's terminals are the graph's unique source and sink.
pub fn validate_decomposition(g: &Graph, d: &SpDecomposition) -> Result<()> {
    let (source, sink) = g.validate_two_terminal()?;
    if d.source() != source || d.sink() != sink {
        return Err(GraphError::Structure(format!(
            "decomposition terminals ({}, {}) do not match graph terminals ({source}, {sink})",
            d.source(),
            d.sink()
        )));
    }
    let mut seen = vec![false; g.edge_count()];
    for comp in d.forest.post_order(d.root) {
        let c = d.forest.component(comp);
        match &c.kind {
            SpKind::Leaf(e) => {
                let (s, t) = g.endpoints(*e);
                if s != c.source || t != c.sink {
                    return Err(GraphError::Structure(format!(
                        "leaf component for edge {e} has wrong terminals"
                    )));
                }
                if seen[e.index()] {
                    return Err(GraphError::Structure(format!(
                        "edge {e} appears in more than one leaf"
                    )));
                }
                seen[e.index()] = true;
            }
            SpKind::Series(children) => {
                if children.len() < 2 {
                    return Err(GraphError::Structure("series node with < 2 children".into()));
                }
                for pair in children.windows(2) {
                    if d.forest.sink(pair[0]) != d.forest.source(pair[1]) {
                        return Err(GraphError::Structure(
                            "series children do not chain sink-to-source".into(),
                        ));
                    }
                }
                if d.forest.source(children[0]) != c.source
                    || d.forest.sink(*children.last().expect("non-empty")) != c.sink
                {
                    return Err(GraphError::Structure(
                        "series terminals do not match outer children".into(),
                    ));
                }
            }
            SpKind::Parallel(children) => {
                if children.len() < 2 {
                    return Err(GraphError::Structure("parallel node with < 2 children".into()));
                }
                for &child in children {
                    if d.forest.source(child) != c.source || d.forest.sink(child) != c.sink {
                        return Err(GraphError::Structure(
                            "parallel child terminals do not match parent".into(),
                        ));
                    }
                }
            }
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(GraphError::Structure(format!(
            "edge index {missing} is not covered by any leaf"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{build_sp, SpSpec};
    use crate::forest::SpForest;
    use crate::reduce::reduce;
    use fila_graph::cycles::all_cycles_single_source_sink;
    use fila_graph::GraphBuilder;

    #[test]
    fn recognised_decompositions_validate() {
        let mut b = GraphBuilder::new();
        b.chain(&["a", "b", "e", "f"]).unwrap();
        b.chain(&["a", "c", "d", "f"]).unwrap();
        b.edge("a", "f").unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        validate_decomposition(&g, &d).unwrap();
    }

    #[test]
    fn composed_decompositions_validate() {
        let spec = SpSpec::Series(vec![
            SpSpec::MultiEdge(vec![1, 2]),
            SpSpec::Parallel(vec![SpSpec::Edge(3), SpSpec::pipeline(&[4, 5])]),
        ]);
        let (g, d) = build_sp(&spec);
        validate_decomposition(&g, &d).unwrap();
    }

    #[test]
    fn missing_edge_is_rejected() {
        let mut b = GraphBuilder::new();
        let e1 = b.edge("a", "b").unwrap();
        b.edge("a", "b").unwrap();
        let g = b.build().unwrap();
        // Decomposition that pretends the graph has only one edge.
        let mut forest = SpForest::new();
        let root = forest.add_leaf(&g, e1);
        let d = SpDecomposition { forest, root };
        assert!(validate_decomposition(&g, &d).is_err());
    }

    #[test]
    fn lemma_iii4_holds_for_generated_sp_dags() {
        let spec = SpSpec::Series(vec![
            SpSpec::Parallel(vec![
                SpSpec::pipeline(&[1, 1, 1]),
                SpSpec::Edge(2),
                SpSpec::Series(vec![SpSpec::MultiEdge(vec![1, 1]), SpSpec::Edge(1)]),
            ]),
            SpSpec::Parallel(vec![SpSpec::Edge(1), SpSpec::Edge(2)]),
        ]);
        let (g, _) = build_sp(&spec);
        assert!(all_cycles_single_source_sink(&g));
    }

    #[test]
    fn butterfly_fails_cycle_check() {
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
        ] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        assert!(!all_cycles_single_source_sink(&g));
    }
}
