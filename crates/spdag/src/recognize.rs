//! User-facing SP-DAG recognition.

use fila_graph::{Graph, Result};

use crate::forest::SpDecomposition;
use crate::reduce::{reduce, Reduction};

/// Outcome of SP recognition on a two-terminal DAG.
#[derive(Debug, Clone)]
pub enum Recognition {
    /// The graph is series-parallel; here is its decomposition tree.
    SeriesParallel(SpDecomposition),
    /// The graph is not series-parallel; the tracked reduction that proves
    /// it (including the irreducible skeleton) is returned for further
    /// analysis (for example SP-ladder decomposition).
    NotSeriesParallel(Reduction),
}

impl Recognition {
    /// True if the graph was recognised as series-parallel.
    pub fn is_sp(&self) -> bool {
        matches!(self, Recognition::SeriesParallel(_))
    }

    /// The decomposition, if the graph was series-parallel.
    pub fn decomposition(self) -> Option<SpDecomposition> {
        match self {
            Recognition::SeriesParallel(d) => Some(d),
            Recognition::NotSeriesParallel(_) => None,
        }
    }
}

/// Recognises whether a two-terminal DAG is series-parallel and returns its
/// decomposition tree if so.
///
/// # Errors
///
/// Fails with the underlying graph error if the input is not a valid
/// two-terminal DAG (see [`Graph::validate_two_terminal`]).
pub fn recognize(g: &Graph) -> Result<Recognition> {
    let reduction = reduce(g)?;
    if reduction.is_sp() {
        Ok(Recognition::SeriesParallel(
            reduction
                .into_decomposition()
                .expect("is_sp implies decomposition"),
        ))
    } else {
        Ok(Recognition::NotSeriesParallel(reduction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{build_sp, SpSpec};
    use fila_graph::GraphBuilder;

    #[test]
    fn recognises_generated_sp_dags() {
        let spec = SpSpec::Series(vec![
            SpSpec::Parallel(vec![SpSpec::Edge(1), SpSpec::pipeline(&[2, 2])]),
            SpSpec::MultiEdge(vec![1, 1, 1]),
        ]);
        let (g, _) = build_sp(&spec);
        let rec = recognize(&g).unwrap();
        let d = rec.decomposition().unwrap();
        assert_eq!(d.edges().len(), g.edge_count());
    }

    #[test]
    fn rejects_crosslinked_split_join() {
        let mut b = GraphBuilder::new();
        for (s, t) in [("x", "a"), ("x", "b"), ("a", "y"), ("b", "y"), ("a", "b")] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        match recognize(&g).unwrap() {
            Recognition::NotSeriesParallel(r) => assert_eq!(r.skeleton.len(), 5),
            Recognition::SeriesParallel(_) => panic!("must not be SP"),
        }
    }

    #[test]
    fn invalid_graphs_propagate_errors() {
        let mut b = GraphBuilder::new();
        b.edge("a", "c").unwrap();
        b.edge("b", "c").unwrap();
        let g = b.build().unwrap();
        assert!(recognize(&g).is_err());
    }
}
