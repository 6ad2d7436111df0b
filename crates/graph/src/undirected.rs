//! Undirected structure: connectivity and biconnected blocks.
//!
//! Undirected structure drives the CS4 decomposition of §V: a CS4 graph is a
//! *serial composition* of SP-DAGs and SP-ladders, and the serial cut points
//! are exactly the articulation points of the underlying undirected graph.
//! Biconnected blocks give the constituent pieces between those cut points.

use crate::ids::NodeId;
use crate::multigraph::Graph;

/// Splits the undirected multigraph on `node_count` nodes whose edge `i`
/// joins `edges[i]` into its biconnected blocks: maximal sets of edges any
/// two of which lie on a common undirected simple cycle (a bridge is a block
/// of its own).  Returns each block's edge indices.
///
/// Hopcroft–Tarjan, iterative, in `O(node_count + edges.len())`: roots are
/// taken in node order and each node's incident edges in edge order, and a
/// block lists its edges in the order they leave the DFS edge stack.  Only
/// the edge a node was reached by is skipped, so parallel edges form cycles.
pub fn biconnected_blocks(node_count: usize, edges: &[(NodeId, NodeId)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); node_count];
    for (i, &(s, d)) in edges.iter().enumerate() {
        adj[s.index()].push(i);
        adj[d.index()].push(i);
    }
    let mut disc = vec![usize::MAX; node_count];
    let mut low = vec![usize::MAX; node_count];
    let mut timer = 0usize;
    let mut edge_stack: Vec<usize> = Vec::new();
    let mut blocks: Vec<Vec<usize>> = Vec::new();

    // Iterative DFS frame: a node, the edge it was reached by, and the next
    // of its incident edges to explore.
    struct Frame {
        v: usize,
        via: Option<usize>,
        next: usize,
    }
    let mut stack: Vec<Frame> = Vec::new();
    for start in 0..node_count {
        if disc[start] != usize::MAX {
            continue;
        }
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        stack.push(Frame {
            v: start,
            via: None,
            next: 0,
        });
        while let Some(frame) = stack.last_mut() {
            let v = frame.v;
            if let Some(&e) = adj[v].get(frame.next) {
                frame.next += 1;
                if Some(e) == frame.via {
                    continue;
                }
                let (s, d) = edges[e];
                let w = if s.index() == v { d.index() } else { s.index() };
                if disc[w] == usize::MAX {
                    // Tree edge.
                    edge_stack.push(e);
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    stack.push(Frame {
                        v: w,
                        via: Some(e),
                        next: 0,
                    });
                } else if disc[w] < disc[v] {
                    // Back edge to an ancestor (or a parallel edge).
                    edge_stack.push(e);
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                // Every incident edge of `v` explored: pop it and hand its
                // `low` to its parent, which closes a block if nothing below
                // `v` reaches above the parent.
                let finished = stack.pop().expect("frame exists");
                if let Some(parent) = stack.last() {
                    let p = parent.v;
                    low[p] = low[p].min(low[finished.v]);
                    if low[finished.v] >= disc[p] {
                        let via = finished.via.expect("non-root has entry edge");
                        let mut block = Vec::new();
                        while let Some(top) = edge_stack.pop() {
                            block.push(top);
                            if top == via {
                                break;
                            }
                        }
                        blocks.push(block);
                    }
                }
            }
        }
        debug_assert!(edge_stack.is_empty(), "edge stack fully drained per root");
    }
    blocks
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

    /// The blocks of `g`'s edges, by edge index.
    fn blocks_of(g: &Graph) -> Vec<Vec<usize>> {
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(_, e)| (e.src, e.dst)).collect();
        biconnected_blocks(g.node_count(), &edges)
    }

    #[test]
    fn a_chain_is_one_bridge_block_per_edge() {
        let mut b = GraphBuilder::new();
        b.chain(&["a", "b", "c", "d"]).unwrap();
        let g = b.build().unwrap();
        let blocks = blocks_of(&g);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.iter().all(|block| block.len() == 1));
    }

    #[test]
    fn diamond_is_biconnected() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("c", "d").unwrap();
        let g = b.build().unwrap();
        let blocks = blocks_of(&g);
        assert_eq!(blocks.len(), 1);
        let mut edges = blocks[0].clone();
        edges.sort_unstable();
        assert_eq!(edges, vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_diamonds_in_series_split_at_the_join() {
        let mut b = GraphBuilder::new();
        // diamond 1: a -> {b,c} -> d, diamond 2: d -> {e,f} -> g
        for (s, t) in [
            ("a", "b"),
            ("a", "c"),
            ("b", "d"),
            ("c", "d"),
            ("d", "e"),
            ("d", "f"),
            ("e", "g"),
            ("f", "g"),
        ] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        let mut blocks = blocks_of(&g);
        for block in &mut blocks {
            block.sort_unstable();
        }
        blocks.sort();
        assert_eq!(blocks, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    }

    #[test]
    fn parallel_edges_form_a_biconnected_component() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "b").unwrap();
        b.edge("b", "c").unwrap();
        let g = b.build().unwrap();
        let blocks = blocks_of(&g);
        let mut sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2]);
    }

    #[test]
    fn single_edge_graph() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        let g = b.build().unwrap();
        assert_eq!(blocks_of(&g), vec![vec![0]]);
    }

    #[test]
    fn nodes_without_edges_make_no_block() {
        let a = NodeId::from_raw(0);
        let c = NodeId::from_raw(2);
        assert_eq!(biconnected_blocks(4, &[(a, c)]), vec![vec![0]]);
        assert!(biconnected_blocks(3, &[]).is_empty());
    }
}
