//! A runnable topology: the application graph plus one behaviour per node.

use std::sync::Arc;

use fila_graph::{Graph, NodeId};

use crate::filters::Broadcast;
use crate::node::NodeBehavior;

/// A factory producing a fresh behaviour instance for one node.  Factories
/// are shared between runs and engines, so they must be `Send + Sync`; the
/// produced behaviours only need `Send` (each lives on a single worker).
pub type BehaviorFactory = Arc<dyn Fn() -> Box<dyn NodeBehavior> + Send + Sync>;

/// What a job is built from: its graph and, per node, a fresh behaviour.
/// The pool reads one at submission and keeps neither (E41), so a caller
/// may lend a graph it owns instead of building a [`Topology`] around a
/// copy of it.
pub trait Program {
    /// The application graph.
    fn graph(&self) -> &Graph;

    /// A fresh behaviour for `node`, or `None` for the default
    /// [`Broadcast`] — which an engine may hold without an allocation.
    fn behavior(&self, node: NodeId) -> Option<Box<dyn NodeBehavior>>;
}

/// The application graph together with per-node behaviours and the number of
/// inputs each source node will offer.
#[derive(Clone)]
pub struct Topology {
    graph: Graph,
    /// Installed factories; `None` is the default broadcast.
    behaviors: Vec<Option<BehaviorFactory>>,
}

impl Topology {
    /// Creates a topology where every node broadcasts to all of its outputs
    /// (no filtering anywhere).  Use [`Topology::with_behavior`] to install
    /// application logic.
    pub fn from_graph(graph: &Graph) -> Self {
        Topology {
            graph: graph.clone(),
            behaviors: vec![None; graph.node_count()],
        }
    }

    /// Replaces the behaviour factory of one node (builder style).
    pub fn with_behavior(mut self, node: NodeId, factory: BehaviorFactory) -> Self {
        self.set_behavior(node, factory);
        self
    }

    /// Replaces the behaviour factory of one node.
    pub fn set_behavior(&mut self, node: NodeId, factory: BehaviorFactory) {
        self.behaviors[node.index()] = Some(factory);
    }

    /// Convenience wrapper around [`Topology::with_behavior`] for closures
    /// that build a behaviour.
    pub fn with<F, B>(self, node: NodeId, build: F) -> Self
    where
        F: Fn() -> B + Send + Sync + 'static,
        B: NodeBehavior + 'static,
    {
        self.with_behavior(node, Arc::new(move || Box::new(build())))
    }

    /// The underlying application graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Builds a fresh behaviour instance for `node`.
    pub fn build_behavior(&self, node: NodeId) -> Box<dyn NodeBehavior> {
        self.behavior(node)
            .unwrap_or_else(|| Box::new(Broadcast::new(self.graph.out_degree(node))))
    }

    /// Builds one fresh behaviour instance per node, in node-id order — what
    /// the simulator sets a run up with.
    pub fn build_behaviors(&self) -> Vec<Box<dyn NodeBehavior>> {
        self.graph.node_ids().map(|n| self.build_behavior(n)).collect()
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
        let a = g.node_by_name("a").unwrap();
        let mut b = topo.build_behavior(a);
        let d = b.fire(&FireInput { seq: 3, data_in: &[] });
        assert_eq!(d.emitted(), 2);
    }

    #[test]
    fn behaviours_can_be_replaced() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let topo = Topology::from_graph(&g).with(a, || ModuloFilter::new(2, 2, 0));
        let mut b = topo.build_behavior(a);
        assert_eq!(b.fire(&FireInput { seq: 0, data_in: &[] }).emitted(), 2);
        assert_eq!(b.fire(&FireInput { seq: 1, data_in: &[] }).emitted(), 0);
    }

    #[test]
    fn factories_produce_independent_instances() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || crate::filters::Bernoulli::new(2, 0.5, 42));
        let run = |topo: &Topology| {
            let mut b = topo.build_behavior(a);
            (0..20)
                .map(|s| b.fire(&FireInput { seq: s, data_in: &[] }).emitted())
                .collect::<Vec<_>>()
        };
        // Two instances from the same factory start from the same seed.
        assert_eq!(run(&topo), run(&topo));
    }

    #[test]
    fn debug_formatting_mentions_sizes() {
        let g = diamond();
        let topo = Topology::from_graph(&g);
        let s = format!("{topo:?}");
        assert!(s.contains("nodes: 4"));
    }
}
