//! What a job is built from: the [`Program`] both engines read, the
//! canonical periodic filter as one ([`Periodic`]), and [`Topology`], a
//! program with a behaviour installed per node.

use std::sync::Arc;

use fila_avoidance::model::periodic_emits;
use fila_graph::{Graph, NodeId};

use crate::filters::Predicate;
use crate::node::NodeBehavior;

/// A factory producing a fresh behaviour instance for one node.  Factories
/// are shared between runs and engines, so they must be `Send + Sync`; the
/// produced behaviours only need `Send` (each lives on a single worker).
type BehaviorFactory = Arc<dyn Fn() -> Box<dyn NodeBehavior> + Send + Sync>;

/// What a job is built from: its graph and, per node, a fresh behaviour.
/// Both engines read one when a run starts and keep neither (E41), so a
/// caller may lend a graph it owns instead of building a [`Topology`]
/// around a copy of it.
pub trait Program {
    /// The application graph.
    fn graph(&self) -> &Graph;

    /// A fresh behaviour for `node`, or `None` for the default
    /// [`crate::Broadcast`] — which either engine holds without an
    /// allocation.
    fn behavior(&self, node: NodeId) -> Option<Box<dyn NodeBehavior>>;
}

/// The canonical deterministic periodic filter over a lent graph: output
/// `j` of a node with period `p` carries sequence number `s` iff
/// [`periodic_emits`]`(p, s, j)`.  A node without outputs, or of period
/// ≤ 1, is the default broadcast — the same decisions, relayed whole by the
/// pooled engine.
///
/// This is the one statement of the filtering convention that the service's
/// jobs, the storm mix's shapes, the equivalence suites and the examples
/// run, so the workload the equivalence proof covers is exactly the
/// workload the others run.
#[derive(Debug, Clone)]
pub struct Periodic<'g> {
    graph: &'g Graph,
    periods: Vec<u64>,
}

impl<'g> Periodic<'g> {
    /// `graph` with one period per node, aligned with node ids.
    ///
    /// # Panics
    ///
    /// Panics if `periods` does not have one entry per node.
    pub fn new(graph: &'g Graph, periods: Vec<u64>) -> Self {
        assert_eq!(periods.len(), graph.node_count(), "one period per node");
        Periodic { graph, periods }
    }

    /// `graph` with `period_of(node)` as each node's period.
    pub fn from_fn(graph: &'g Graph, period_of: impl Fn(NodeId) -> u64) -> Self {
        Periodic::new(graph, graph.node_ids().map(period_of).collect())
    }

    /// `node`'s period where it filters: `None` where it is the default
    /// broadcast (no outputs, or a period ≤ 1).
    pub fn period(&self, node: NodeId) -> Option<u64> {
        let period = self.periods[node.index()];
        (self.graph.out_degree(node) > 0 && period > 1).then_some(period)
    }

    /// The periodic filter of a node with `period`.
    pub fn filter(period: u64) -> impl NodeBehavior {
        Predicate::new(move |seq, out| periodic_emits(period, seq, out))
    }
}

impl Program for Periodic<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn behavior(&self, node: NodeId) -> Option<Box<dyn NodeBehavior>> {
        let period = self.period(node)?;
        Some(Box::new(Periodic::filter(period)))
    }
}

/// An owned application graph together with a behaviour per node: the
/// program for behaviours that are not periodic filters.
#[derive(Clone)]
pub struct Topology {
    graph: Graph,
    /// Installed factories; `None` is the default broadcast.
    behaviors: Vec<Option<BehaviorFactory>>,
}

impl Topology {
    /// Creates a topology where every node broadcasts to all of its outputs
    /// (no filtering anywhere).  Use [`Topology::with`] to install
    /// application logic.
    pub fn from_graph(graph: &Graph) -> Self {
        Topology {
            graph: graph.clone(),
            behaviors: vec![None; graph.node_count()],
        }
    }

    /// Installs `build`, called once per run for a fresh instance, as
    /// `node`'s behaviour (builder style).
    pub fn with<F, B>(mut self, node: NodeId, build: F) -> Self
    where
        F: Fn() -> B + Send + Sync + 'static,
        B: NodeBehavior + 'static,
    {
        self.behaviors[node.index()] = Some(Arc::new(move || Box::new(build())));
        self
    }

    /// The underlying application graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

impl Program for Topology {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn behavior(&self, node: NodeId) -> Option<Box<dyn NodeBehavior>> {
        self.behaviors[node.index()].as_ref().map(|factory| factory())
    }
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topology")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::ModuloFilter;
    use crate::node::FireInput;
    use fila_graph::GraphBuilder;

    /// How many of its `outputs` outputs `b` forwards source input `seq` on.
    fn emitted(b: &mut dyn NodeBehavior, outputs: usize, seq: u64) -> usize {
        let mut emit = vec![None; outputs];
        b.fire(&FireInput { seq, data_in: &[] }, &mut emit);
        emit.iter().flatten().count()
    }

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("c", "d").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn default_behaviour_is_broadcast() {
        let g = diamond();
        let topo = Topology::from_graph(&g);
        assert!(g.node_ids().all(|n| topo.behavior(n).is_none()));
    }

    #[test]
    fn behaviours_can_be_replaced() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let topo = Topology::from_graph(&g).with(a, || ModuloFilter::new(2, 0));
        let mut b = topo.behavior(a).unwrap();
        assert_eq!(emitted(&mut *b, 2, 0), 2);
        assert_eq!(emitted(&mut *b, 2, 1), 0);
    }

    #[test]
    fn factories_produce_independent_instances() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || crate::filters::Bernoulli::new(0.5, 42));
        let run = |topo: &Topology| {
            let mut b = topo.behavior(a).unwrap();
            (0..20).map(|s| emitted(&mut *b, 2, s)).collect::<Vec<_>>()
        };
        // Two instances from the same factory start from the same seed.
        assert_eq!(run(&topo), run(&topo));
    }

    #[test]
    fn periodic_filter_period_one_broadcasts_and_period_two_halves() {
        let mut b = GraphBuilder::new();
        b.chain(&["s", "m", "t"]).unwrap();
        let g = b.build().unwrap();
        let [s, m, t] = ["s", "m", "t"].map(|name| g.node_by_name(name).unwrap());
        let program = Periodic::from_fn(&g, |n| if n == s { 2 } else { 1 });
        let mut src = program.behavior(s).unwrap();
        assert_eq!(emitted(&mut *src, 1, 0), 1);
        assert_eq!(emitted(&mut *src, 1, 1), 0);
        // Period 1, and a node without outputs: the default broadcast.
        assert!(program.behavior(m).is_none());
        assert!(Periodic::from_fn(&g, |_| 3).behavior(t).is_none());
        assert_eq!(program.period(s), Some(2));
        assert_eq!(program.period(m), None);
    }

    #[test]
    fn debug_formatting_mentions_sizes() {
        let g = diamond();
        let topo = Topology::from_graph(&g);
        let s = format!("{topo:?}");
        assert!(s.contains("nodes: 4"));
    }
}
