//! Undirected view of the multigraph: connectivity, articulation points and
//! biconnected components.
//!
//! Undirected structure drives the CS4 decomposition of §V: a CS4 graph is a
//! *serial composition* of SP-DAGs and SP-ladders, and the serial cut points
//! are exactly the articulation points of the underlying undirected graph.
//! Biconnected components give the constituent pieces between those cut
//! points.

use crate::ids::{EdgeId, NodeId};
use crate::multigraph::Graph;

/// An undirected adjacency overlay over a [`Graph`].
#[derive(Debug, Clone)]
pub struct UndirectedView<'g> {
    graph: &'g Graph,
    /// For every node, the incident edges regardless of direction.
    adj: Vec<Vec<EdgeId>>,
}

/// One biconnected component: a maximal set of edges such that any two lie
/// on a common undirected simple cycle (bridges form singleton components).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiconnectedComponent {
    /// The edges of the component.
    pub edges: Vec<EdgeId>,
    /// The nodes touched by those edges (no duplicates, unsorted).
    pub nodes: Vec<NodeId>,
}

impl<'g> UndirectedView<'g> {
    /// Builds the undirected adjacency overlay.
    pub fn new(graph: &'g Graph) -> Self {
        let mut adj = vec![Vec::new(); graph.node_count()];
        for (id, e) in graph.edges() {
            adj[e.src.index()].push(id);
            adj[e.dst.index()].push(id);
        }
        UndirectedView { graph, adj }
    }

    /// The underlying directed graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Edges incident to `v` (in either direction).
    pub fn incident(&self, v: NodeId) -> &[EdgeId] {
        &self.adj[v.index()]
    }

    /// The endpoint of `e` that is not `v`.
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (s, d) = self.graph.endpoints(e);
        if s == v {
            d
        } else {
            s
        }
    }

    /// Undirected degree of `v` (parallel edges counted separately).
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Biconnected components of the undirected graph.
    pub fn biconnected_components(&self) -> Vec<BiconnectedComponent> {
        let (_, comps) = self.articulation_and_components();
        comps
    }

    /// Hopcroft–Tarjan articulation point / biconnected component algorithm
    /// (iterative, multigraph-aware: only the tree edge used to reach a node
    /// is skipped, so parallel edges correctly form cycles).
    pub fn articulation_and_components(&self) -> (Vec<NodeId>, Vec<BiconnectedComponent>) {
        let n = self.graph.node_count();
        let mut disc = vec![usize::MAX; n];
        let mut low = vec![usize::MAX; n];
        let mut is_ap = vec![false; n];
        let mut timer = 0usize;
        let mut edge_stack: Vec<EdgeId> = Vec::new();
        let mut components: Vec<BiconnectedComponent> = Vec::new();

        // Iterative DFS frame: (node, incoming edge, next incident index,
        // number of DFS children so far).
        struct Frame {
            v: NodeId,
            via: Option<EdgeId>,
            next: usize,
            children: usize,
        }

        for start in self.graph.node_ids() {
            if disc[start.index()] != usize::MAX {
                continue;
            }
            disc[start.index()] = timer;
            low[start.index()] = timer;
            timer += 1;
            let mut stack = vec![Frame { v: start, via: None, next: 0, children: 0 }];
            while let Some(frame) = stack.last_mut() {
                let v = frame.v;
                if frame.next < self.adj[v.index()].len() {
                    let e = self.adj[v.index()][frame.next];
                    frame.next += 1;
                    if Some(e) == frame.via {
                        continue;
                    }
                    let w = self.other_endpoint(e, v);
                    if disc[w.index()] == usize::MAX {
                        // Tree edge.
                        edge_stack.push(e);
                        frame.children += 1;
                        disc[w.index()] = timer;
                        low[w.index()] = timer;
                        timer += 1;
                        stack.push(Frame { v: w, via: Some(e), next: 0, children: 0 });
                    } else if disc[w.index()] < disc[v.index()] {
                        // Back edge to an ancestor (or a parallel edge).
                        edge_stack.push(e);
                        low[v.index()] = low[v.index()].min(disc[w.index()]);
                    }
                } else {
                    // All incident edges of v explored; pop and propagate low.
                    let finished = stack.pop().expect("frame exists");
                    if let Some(parent_frame) = stack.last() {
                        let p = parent_frame.v;
                        low[p.index()] = low[p.index()].min(low[finished.v.index()]);
                        if low[finished.v.index()] >= disc[p.index()] {
                            // p separates the subtree rooted at v: emit one
                            // biconnected component.
                            if parent_frame.via.is_some() || parent_frame.children > 1
                                || parent_frame.next < self.adj[p.index()].len()
                            {
                                // articulation decision handled below via
                                // the standard root / non-root rule.
                            }
                            let via = finished.via.expect("non-root has entry edge");
                            let mut comp_edges = Vec::new();
                            while let Some(&top) = edge_stack.last() {
                                edge_stack.pop();
                                comp_edges.push(top);
                                if top == via {
                                    break;
                                }
                            }
                            components.push(make_component(self.graph, comp_edges));
                            // Non-root articulation rule.
                            let p_is_root = parent_frame.via.is_none();
                            if !p_is_root {
                                is_ap[p.index()] = true;
                            }
                        }
                    }
                }
            }
            // Root articulation rule: the DFS root is an articulation point
            // iff it has more than one DFS child, which equals the number of
            // components that contain it... we recover it by counting the
            // components that include `start`.
            let root_children = components
                .iter()
                .filter(|c| c.nodes.contains(&start))
                .count();
            if root_children > 1 {
                is_ap[start.index()] = true;
            }
            debug_assert!(edge_stack.is_empty(), "edge stack fully drained per root");
        }

        let aps = self
            .graph
            .node_ids()
            .filter(|v| is_ap[v.index()])
            .collect();
        (aps, components)
    }
}

fn make_component(g: &Graph, edges: Vec<EdgeId>) -> BiconnectedComponent {
    let mut nodes = Vec::new();
    for &e in &edges {
        let (s, d) = g.endpoints(e);
        if !nodes.contains(&s) {
            nodes.push(s);
        }
        if !nodes.contains(&d) {
            nodes.push(d);
        }
    }
    BiconnectedComponent { edges, nodes }
}

/// Returns the first node (in id order) that is not reachable from node 0 in
/// the undirected sense, or `None` if the graph is connected or empty.  It
/// walks the graph's own adjacency: a submission validates every graph, so
/// the check allocates per graph, not per node.
pub fn first_unreachable(g: &Graph) -> Option<NodeId> {
    if g.node_count() == 0 {
        return None;
    }
    let start = NodeId::from_raw(0);
    let mut seen = vec![false; g.node_count()];
    seen[0] = true;
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        let downstream = g.out_edges(v).iter().map(|&e| g.head(e));
        let upstream = g.in_edges(v).iter().map(|&e| g.tail(e));
        for w in downstream.chain(upstream) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    g.node_ids().find(|v| !seen[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn connectivity() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("b", "c").unwrap();
        let g = b.build().unwrap();
        assert_eq!(first_unreachable(&g), None);

        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        let stranded = b.node("x");
        let g = b.build_unchecked();
        assert_eq!(first_unreachable(&g), Some(stranded));
    }

    #[test]
    fn chain_articulation_points_are_interior_nodes() {
        let mut b = GraphBuilder::new();
        b.chain(&["a", "b", "c", "d"]).unwrap();
        let g = b.build().unwrap();
        let view = UndirectedView::new(&g);
        let mut aps = view.articulation_and_components().0;
        aps.sort();
        let mut expect = vec![g.node_by_name("b").unwrap(), g.node_by_name("c").unwrap()];
        expect.sort();
        assert_eq!(aps, expect);
        // Each chain edge is its own (bridge) biconnected component.
        assert_eq!(view.biconnected_components().len(), 3);
    }

    #[test]
    fn diamond_is_biconnected() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("c", "d").unwrap();
        let g = b.build().unwrap();
        let view = UndirectedView::new(&g);
        assert!(view.articulation_and_components().0.is_empty());
        let comps = view.biconnected_components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].edges.len(), 4);
        assert_eq!(comps[0].nodes.len(), 4);
    }

    #[test]
    fn two_diamonds_in_series_split_at_the_join() {
        let mut b = GraphBuilder::new();
        // diamond 1: a -> {b,c} -> d, diamond 2: d -> {e,f} -> g
        for (s, t) in [
            ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
            ("d", "e"), ("d", "f"), ("e", "g"), ("f", "g"),
        ] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        let view = UndirectedView::new(&g);
        let aps = view.articulation_and_components().0;
        assert_eq!(aps, vec![g.node_by_name("d").unwrap()]);
        let comps = view.biconnected_components();
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.edges.len() == 4));
    }

    #[test]
    fn parallel_edges_form_a_biconnected_component() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "b").unwrap();
        b.edge("b", "c").unwrap();
        let g = b.build().unwrap();
        let view = UndirectedView::new(&g);
        let comps = view.biconnected_components();
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = comps.iter().map(|c| c.edges.len()).collect();
            s.sort();
            s
        };
        assert_eq!(sizes, vec![1, 2]);
        assert_eq!(
            view.articulation_and_components().0,
            vec![g.node_by_name("b").unwrap()]
        );
    }

    #[test]
    fn single_edge_graph() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        let g = b.build().unwrap();
        let view = UndirectedView::new(&g);
        assert!(view.articulation_and_components().0.is_empty());
        assert_eq!(view.biconnected_components().len(), 1);
        assert_eq!(view.degree(g.node_by_name("a").unwrap()), 1);
    }

    #[test]
    fn incident_and_other_endpoint() {
        let mut b = GraphBuilder::new();
        let e = b.edge("a", "b").unwrap();
        let g = b.build().unwrap();
        let view = UndirectedView::new(&g);
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        assert_eq!(view.incident(a), &[e]);
        assert_eq!(view.incident(bb), &[e]);
        assert_eq!(view.other_endpoint(e, a), bb);
        assert_eq!(view.other_endpoint(e, bb), a);
    }
}
