//! Deadlock-avoidance plans: the output of the compile-time analysis.

use std::fmt;

use fila_graph::{EdgeId, Graph};

use crate::interval::{DummyInterval, IntervalMap};

/// Which of the two runtime deadlock-avoidance protocols the plan targets.
///
/// Both protocols are defined in the authors' earlier SPAA'10 paper and are
/// implemented by `fila-runtime`; this paper's contribution is computing
/// their per-edge intervals efficiently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Only nodes with two outgoing edges on some undirected cycle send
    /// dummies; dummies are forwarded on every output channel of any node
    /// they reach.
    #[default]
    Propagation,
    /// Every node may send dummies on its own channels; dummies are consumed
    /// at the receiving node and never forwarded.
    NonPropagation,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Propagation => write!(f, "Propagation"),
            Algorithm::NonPropagation => write!(f, "Non-Propagation"),
        }
    }
}

/// A complete deadlock-avoidance plan for one graph: the target protocol and
/// the per-edge dummy intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvoidancePlan {
    algorithm: Algorithm,
    intervals: IntervalMap,
    /// Number of edges of the graph the plan was computed for, used to catch
    /// accidental application to a different graph.
    edge_count: usize,
}

impl AvoidancePlan {
    /// Wraps a computed interval map into a plan.
    pub fn new(g: &Graph, algorithm: Algorithm, intervals: IntervalMap) -> Self {
        assert_eq!(
            intervals.len(),
            g.edge_count(),
            "interval map must cover every edge of the graph"
        );
        AvoidancePlan {
            algorithm,
            intervals,
            edge_count: g.edge_count(),
        }
    }

    /// The protocol this plan parameterises.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The dummy interval for a channel.
    pub fn interval(&self, e: EdgeId) -> DummyInterval {
        self.intervals.get(e)
    }

    /// The full per-edge interval table.
    pub fn intervals(&self) -> &IntervalMap {
        &self.intervals
    }

    /// Number of edges covered by the plan.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of channels that require dummy messages at all.
    pub fn channels_needing_dummies(&self) -> usize {
        self.intervals.finite_count()
    }

    /// Renders a human-readable table of the plan, using node names.
    pub fn render(&self, g: &Graph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} plan: {} / {} channels need dummies",
            self.algorithm,
            self.channels_needing_dummies(),
            self.edge_count
        );
        for (e, iv) in self.intervals.iter() {
            let (s, d) = g.endpoints(e);
            let _ = writeln!(
                out,
                "  [{} -> {}] (cap {}) : {}",
                g.node(s).name,
                g.node(d).name,
                g.capacity(e),
                iv
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("a", "b", 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn plan_wraps_interval_map() {
        let g = tiny();
        let mut m = IntervalMap::for_graph(&g);
        m.set(EdgeId::from_raw(0), DummyInterval::Finite(3));
        let plan = AvoidancePlan::new(&g, Algorithm::Propagation, m);
        assert_eq!(plan.interval(EdgeId::from_raw(0)), DummyInterval::Finite(3));
        assert_eq!(plan.interval(EdgeId::from_raw(1)), DummyInterval::Infinite);
        assert_eq!(plan.channels_needing_dummies(), 1);
        assert_eq!(plan.edge_count(), 2);
        assert_eq!(plan.algorithm(), Algorithm::Propagation);
    }

    #[test]
    fn render_mentions_node_names_and_intervals() {
        let g = tiny();
        let mut m = IntervalMap::for_graph(&g);
        m.set(EdgeId::from_raw(0), DummyInterval::Finite(3));
        let plan = AvoidancePlan::new(&g, Algorithm::NonPropagation, m);
        let text = plan.render(&g);
        assert!(text.contains("Non-Propagation"));
        assert!(text.contains("a -> b"));
        assert!(text.contains(": 3"));
        assert!(text.contains(": ∞"));
    }

    #[test]
    #[should_panic(expected = "cover every edge")]
    fn plan_rejects_mismatched_map() {
        let g = tiny();
        let m = IntervalMap::all_infinite(5);
        let _ = AvoidancePlan::new(&g, Algorithm::Propagation, m);
    }

    #[test]
    fn algorithm_display() {
        assert_eq!(Algorithm::Propagation.to_string(), "Propagation");
        assert_eq!(Algorithm::NonPropagation.to_string(), "Non-Propagation");
    }
}
