//! The directed acyclic multigraph at the heart of the streaming model.
//!
//! A [`Graph`] stores nodes and edges in dense arenas addressed by
//! [`NodeId`] / [`EdgeId`].  Edges carry the finite buffer capacity of the
//! channel they model (the "edge length" used by the dummy-interval
//! calculations in the paper).  Parallel edges between the same pair of
//! nodes are allowed — the paper's base-case SP-DAG is exactly a
//! multi-edge — but self-loops and directed cycles are not.

use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, NodeId};

/// A compute node of the streaming application.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Node {
    /// Human-readable name used in reports and DOT output.
    pub name: String,
}

/// A directed FIFO channel with a finite buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Edge {
    /// The producing node (tail of the edge).
    pub src: NodeId,
    /// The consuming node (head of the edge).
    pub dst: NodeId,
    /// Buffer capacity in messages; must be at least one.
    pub capacity: u64,
}

/// A directed acyclic multigraph of compute nodes and finite-buffer channels.
///
/// The structure is append-only: nodes and edges can be added but not
/// removed, which keeps every previously handed-out id valid.  Analyses that
/// need to "remove" parts of a graph (series/parallel reduction, ladder
/// decomposition, ...) work on their own overlay structures instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node with the given name and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name: name.into() });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst` with the given buffer capacity.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if either endpoint does not exist,
    /// [`GraphError::SelfLoop`] if `src == dst`, and
    /// [`GraphError::ZeroCapacity`] if `capacity == 0`.  Cycle freedom is not
    /// checked here (it would make construction quadratic); call
    /// [`Graph::validate`] once the graph is complete.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, capacity: u64) -> Result<EdgeId> {
        if src.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        let id = EdgeId(self.edges.len() as u32);
        if capacity == 0 {
            return Err(GraphError::ZeroCapacity { edge: id });
        }
        self.edges.push(Edge { src, dst, capacity });
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        Ok(id)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `|G|` as used in the paper's complexity statements: nodes + edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// Returns the node data for `id`, panicking if it is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the edge data for `id`, panicking if it is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// The `(src, dst)` endpoints of an edge.
    #[inline]
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = self.edge(id);
        (e.src, e.dst)
    }

    /// Buffer capacity (in messages) of an edge.
    #[inline]
    pub fn capacity(&self, id: EdgeId) -> u64 {
        self.edge(id).capacity
    }

    /// Overrides the buffer capacity of an edge.
    pub fn set_capacity(&mut self, id: EdgeId, capacity: u64) -> Result<()> {
        if capacity == 0 {
            return Err(GraphError::ZeroCapacity { edge: id });
        }
        let e = self
            .edges
            .get_mut(id.index())
            .ok_or(GraphError::UnknownEdge(id))?;
        e.capacity = capacity;
        Ok(())
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over `(EdgeId, &Edge)` pairs.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Iterator over `(NodeId, &Node)` pairs.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Edges leaving `node`, in insertion order.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node.index()]
    }

    /// Edges entering `node`, in insertion order.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node.index()]
    }

    /// Out-degree of `node` (counting parallel edges separately).
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges[node.index()].len()
    }

    /// In-degree of `node` (counting parallel edges separately).
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges[node.index()].len()
    }

    /// Total degree of `node` in the undirected sense.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.in_degree(node) + self.out_degree(node)
    }

    /// Successor node of an edge's source, i.e. `edge.dst`.
    #[inline]
    pub fn head(&self, id: EdgeId) -> NodeId {
        self.edge(id).dst
    }

    /// Source node of an edge, i.e. `edge.src`.
    #[inline]
    pub fn tail(&self, id: EdgeId) -> NodeId {
        self.edge(id).src
    }

    /// All nodes with no incoming edges (stream sources).
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.in_degree(n) == 0).collect()
    }

    /// All nodes with no outgoing edges (stream sinks).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.out_degree(n) == 0).collect()
    }

    /// The unique source node, if the graph has exactly one.
    pub fn single_source(&self) -> Result<NodeId> {
        let sources = self.sources();
        match sources.as_slice() {
            [s] => Ok(*s),
            _ => Err(GraphError::NotSingleSource { sources }),
        }
    }

    /// The unique sink node, if the graph has exactly one.
    pub fn single_sink(&self) -> Result<NodeId> {
        let sinks = self.sinks();
        match sinks.as_slice() {
            [s] => Ok(*s),
            _ => Err(GraphError::NotSingleSink { sinks }),
        }
    }

    /// All edges from `src` to `dst` (the multi-edge bundle between them).
    pub fn parallel_edges(&self, src: NodeId, dst: NodeId) -> Vec<EdgeId> {
        self.out_edges(src)
            .iter()
            .copied()
            .filter(|&e| self.head(e) == dst)
            .collect()
    }

    /// Looks up a node id by its name.  `O(|V|)`; intended for tests and
    /// examples, not hot paths.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes()
            .find(|(_, n)| n.name == name)
            .map(|(id, _)| id)
    }

    /// Finds the first edge from the node named `src` to the node named
    /// `dst`.  Intended for tests and examples.
    pub fn edge_by_names(&self, src: &str, dst: &str) -> Option<EdgeId> {
        let s = self.node_by_name(src)?;
        let d = self.node_by_name(dst)?;
        self.parallel_edges(s, d).first().copied()
    }

    /// Validates the global structural invariants of the streaming model:
    /// non-empty, acyclic and (undirected-)connected.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        crate::topo::topological_order(self)?;
        if let Some(witness) = crate::undirected::first_unreachable(self) {
            return Err(GraphError::Disconnected { witness });
        }
        Ok(())
    }

    /// Validates the two-terminal requirements of the SP / CS4 analyses on
    /// top of [`Graph::validate`]: a unique source and a unique sink.
    pub fn validate_two_terminal(&self) -> Result<(NodeId, NodeId)> {
        self.validate()?;
        let src = self.single_source()?;
        let sink = self.single_sink()?;
        Ok((src, sink))
    }

    /// Sum of all buffer capacities; useful as a quick fingerprint in tests.
    pub fn total_capacity(&self) -> u64 {
        self.edges.iter().map(|e| e.capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 2).unwrap();
        g.add_edge(a, c, 3).unwrap();
        g.add_edge(b, d, 4).unwrap();
        g.add_edge(c, d, 5).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn construction_and_counts() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.size(), 8);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.total_capacity(), 14);
    }

    #[test]
    fn endpoints_and_capacity() {
        let (g, [a, b, ..]) = diamond();
        let e = g.parallel_edges(a, b)[0];
        assert_eq!(g.endpoints(e), (a, b));
        assert_eq!(g.capacity(e), 2);
        assert_eq!(g.tail(e), a);
        assert_eq!(g.head(e), b);
    }

    #[test]
    fn set_capacity_updates_and_rejects_zero() {
        let (mut g, [a, b, ..]) = diamond();
        let e = g.parallel_edges(a, b)[0];
        g.set_capacity(e, 9).unwrap();
        assert_eq!(g.capacity(e), 9);
        assert!(matches!(
            g.set_capacity(e, 0),
            Err(GraphError::ZeroCapacity { .. })
        ));
    }

    #[test]
    fn rejects_self_loop_and_unknown_nodes() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        assert!(matches!(g.add_edge(a, a, 1), Err(GraphError::SelfLoop(_))));
        let ghost = NodeId::from_raw(99);
        assert!(matches!(
            g.add_edge(a, ghost, 1),
            Err(GraphError::UnknownNode(_))
        ));
        assert!(matches!(
            g.add_edge(ghost, a, 1),
            Err(GraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn rejects_zero_capacity() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        assert!(matches!(
            g.add_edge(a, b, 0),
            Err(GraphError::ZeroCapacity { .. })
        ));
    }

    #[test]
    fn sources_sinks_and_two_terminal() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
        assert_eq!(g.single_source().unwrap(), a);
        assert_eq!(g.single_sink().unwrap(), d);
        assert_eq!(g.validate_two_terminal().unwrap(), (a, d));
    }

    #[test]
    fn multiple_sources_detected() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, c, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        assert!(matches!(
            g.single_source(),
            Err(GraphError::NotSingleSource { .. })
        ));
        assert_eq!(g.single_sink().unwrap(), c);
    }

    #[test]
    fn parallel_edges_are_tracked() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e1 = g.add_edge(a, b, 1).unwrap();
        let e2 = g.add_edge(a, b, 7).unwrap();
        assert_eq!(g.parallel_edges(a, b), vec![e1, e2]);
        assert_eq!(g.parallel_edges(b, a), vec![]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn lookup_by_name() {
        let (g, [a, _, c, d]) = diamond();
        assert_eq!(g.node_by_name("a"), Some(a));
        assert_eq!(g.node_by_name("zzz"), None);
        let e = g.edge_by_names("c", "d").unwrap();
        assert_eq!(g.endpoints(e), (c, d));
        assert_eq!(g.edge_by_names("d", "c"), None);
    }

    #[test]
    fn validate_empty_graph_fails() {
        let g = Graph::new();
        assert!(matches!(g.validate(), Err(GraphError::Empty)));
    }

    #[test]
    fn validate_disconnected_graph_fails() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 1).unwrap();
        let _lonely = g.add_node("lonely");
        assert!(matches!(
            g.validate(),
            Err(GraphError::Disconnected { .. })
        ));
    }
}
