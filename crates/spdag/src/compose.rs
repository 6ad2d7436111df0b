//! Programmatic construction of SP-DAGs from specifications.
//!
//! Generators and property tests need to produce SP-DAGs *with a known
//! ground-truth decomposition*.  [`SpSpec`] mirrors the recursive definition
//! of §III — a base multi-edge, serial composition, and parallel
//! composition — and [`build_sp`] realises a specification as a concrete
//! [`Graph`] together with its [`SpDecomposition`].

use fila_graph::{Graph, NodeId};

use crate::forest::{CompId, SpDecomposition, SpForest};

/// A recursive description of an SP-DAG, mirroring the paper's definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpSpec {
    /// A single edge with the given buffer capacity.
    Edge(u64),
    /// A bundle of parallel edges with the given buffer capacities
    /// (the paper's base case; must be non-empty).
    MultiEdge(Vec<u64>),
    /// Serial composition of the children in pipeline order (≥ 1 child;
    /// a single child is passed through unchanged).
    Series(Vec<SpSpec>),
    /// Parallel composition of the children (≥ 1 child; a single child is
    /// passed through unchanged).
    Parallel(Vec<SpSpec>),
}

impl SpSpec {
    /// Convenience constructor for a pipeline of single edges.
    pub fn pipeline(capacities: &[u64]) -> SpSpec {
        SpSpec::Series(capacities.iter().map(|&c| SpSpec::Edge(c)).collect())
    }

    /// Number of edges the realised graph will have.
    pub fn edge_count(&self) -> usize {
        match self {
            SpSpec::Edge(_) => 1,
            SpSpec::MultiEdge(caps) => caps.len(),
            SpSpec::Series(children) | SpSpec::Parallel(children) => {
                children.iter().map(SpSpec::edge_count).sum()
            }
        }
    }

    /// Maximum nesting depth of the specification.
    pub fn depth(&self) -> usize {
        match self {
            SpSpec::Edge(_) | SpSpec::MultiEdge(_) => 1,
            SpSpec::Series(children) | SpSpec::Parallel(children) => {
                1 + children.iter().map(SpSpec::depth).max().unwrap_or(0)
            }
        }
    }
}

/// Realises an [`SpSpec`] as a graph plus its ground-truth decomposition.
///
/// Node names are generated as `n0`, `n1`, ... with the global source named
/// `src` and the global sink named `snk`.
///
/// # Panics
///
/// Panics if the specification contains an empty `MultiEdge`, `Series` or
/// `Parallel` — those do not describe a graph.
pub fn build_sp(spec: &SpSpec) -> (Graph, SpDecomposition) {
    let mut g = Graph::with_capacity(16, spec.edge_count());
    let mut forest = SpForest::new();
    let source = g.add_node("src");
    let sink = g.add_node("snk");
    let mut counter = 0usize;
    let root = realise(spec, &mut g, &mut forest, source, sink, &mut counter);
    (g, SpDecomposition { forest, root })
}

fn realise(
    spec: &SpSpec,
    g: &mut Graph,
    forest: &mut SpForest,
    source: NodeId,
    sink: NodeId,
    counter: &mut usize,
) -> CompId {
    match spec {
        SpSpec::Edge(cap) => {
            let e = g.add_edge(source, sink, *cap).expect("valid endpoints");
            forest.add_leaf(g, e)
        }
        SpSpec::MultiEdge(caps) => {
            assert!(!caps.is_empty(), "MultiEdge needs at least one capacity");
            let leaves: Vec<CompId> = caps
                .iter()
                .map(|&cap| {
                    let e = g.add_edge(source, sink, cap).expect("valid endpoints");
                    forest.add_leaf(g, e)
                })
                .collect();
            if leaves.len() == 1 {
                leaves[0]
            } else {
                forest.add_parallel(leaves)
            }
        }
        SpSpec::Series(children) => {
            assert!(!children.is_empty(), "Series needs at least one child");
            if children.len() == 1 {
                return realise(&children[0], g, forest, source, sink, counter);
            }
            let mut comp_ids = Vec::with_capacity(children.len());
            let mut cur_source = source;
            for (i, child) in children.iter().enumerate() {
                let cur_sink = if i + 1 == children.len() {
                    sink
                } else {
                    let name = format!("n{}", *counter);
                    *counter += 1;
                    g.add_node(name)
                };
                comp_ids.push(realise(child, g, forest, cur_source, cur_sink, counter));
                cur_source = cur_sink;
            }
            forest.add_series(comp_ids)
        }
        SpSpec::Parallel(children) => {
            assert!(!children.is_empty(), "Parallel needs at least one child");
            if children.len() == 1 {
                return realise(&children[0], g, forest, source, sink, counter);
            }
            let comp_ids: Vec<CompId> = children
                .iter()
                .map(|child| realise(child, g, forest, source, sink, counter))
                .collect();
            forest.add_parallel(comp_ids)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SpMetrics;
    use crate::reduce::reduce;

    #[test]
    fn single_edge_spec() {
        let (g, d) = build_sp(&SpSpec::Edge(7));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(d.edges().len(), 1);
        assert_eq!(g.capacity(g.edge_ids().next().unwrap()), 7);
    }

    #[test]
    fn pipeline_spec_builds_chain() {
        let (g, d) = build_sp(&SpSpec::pipeline(&[1, 2, 3, 4]));
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.node_count(), 5);
        g.validate_two_terminal().unwrap();
        let m = SpMetrics::compute(&g, &d.forest);
        assert_eq!(m.l(d.root), 10);
        assert_eq!(m.h(d.root), 4);
    }

    #[test]
    fn split_join_spec_builds_parallel_edges() {
        let (g, d) = build_sp(&SpSpec::Parallel(vec![
            SpSpec::Edge(5),
            SpSpec::Edge(6),
            SpSpec::Edge(7),
        ]));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node_count(), 2);
        let m = SpMetrics::compute(&g, &d.forest);
        assert_eq!(m.l(d.root), 5);
        assert_eq!(m.h(d.root), 1);
    }

    #[test]
    fn nested_spec_round_trips_through_recognition() {
        let spec = SpSpec::Series(vec![
            SpSpec::Edge(2),
            SpSpec::Parallel(vec![
                SpSpec::pipeline(&[1, 1]),
                SpSpec::Edge(4),
                SpSpec::Series(vec![
                    SpSpec::MultiEdge(vec![3, 5]),
                    SpSpec::Edge(1),
                ]),
            ]),
            SpSpec::Edge(6),
        ]);
        let (g, d) = build_sp(&spec);
        assert_eq!(g.edge_count(), spec.edge_count());
        // The generated graph must be recognised as SP.
        let r = reduce(&g).unwrap();
        assert!(r.is_sp());
        // And its metrics from the ground-truth tree agree with the
        // recognised tree.
        let recognised = r.into_decomposition().unwrap();
        let m1 = SpMetrics::compute(&g, &d.forest);
        let m2 = SpMetrics::compute(&g, &recognised.forest);
        assert_eq!(m1.l(d.root), m2.l(recognised.root));
        assert_eq!(m1.h(d.root), m2.h(recognised.root));
    }

    #[test]
    fn spec_edge_count_and_depth() {
        let spec = SpSpec::Series(vec![
            SpSpec::Edge(1),
            SpSpec::Parallel(vec![SpSpec::Edge(1), SpSpec::pipeline(&[1, 1, 1])]),
        ]);
        assert_eq!(spec.edge_count(), 5);
        assert_eq!(spec.depth(), 4);
    }

    #[test]
    fn singleton_series_and_parallel_pass_through() {
        let (g1, _) = build_sp(&SpSpec::Series(vec![SpSpec::Edge(3)]));
        let (g2, _) = build_sp(&SpSpec::Parallel(vec![SpSpec::Edge(3)]));
        assert_eq!(g1.edge_count(), 1);
        assert_eq!(g2.edge_count(), 1);
    }
}
