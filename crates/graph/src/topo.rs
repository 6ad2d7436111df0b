//! Topological ordering and reachability.

use crate::error::{GraphError, Result};
use crate::ids::NodeId;
use crate::multigraph::Graph;

/// Computes a topological order of all nodes using Kahn's algorithm.
///
/// # Errors
///
/// Returns [`GraphError::NotAcyclic`] if the graph has a directed cycle; the
/// witness is a node that participates in one.
pub fn topological_order(g: &Graph) -> Result<Vec<NodeId>> {
    let n = g.node_count();
    let mut indegree: Vec<usize> = (0..n)
        .map(|i| g.in_degree(NodeId::from_raw(i as u32)))
        .collect();
    let mut queue: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| indegree[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &e in g.out_edges(v) {
            let w = g.head(e);
            indegree[w.index()] -= 1;
            if indegree[w.index()] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() != n {
        let witness = g
            .node_ids()
            .find(|&v| indegree[v.index()] > 0)
            .expect("a node with nonzero residual in-degree must exist");
        return Err(GraphError::NotAcyclic { witness });
    }
    Ok(order)
}

/// Position of each node in a given topological order (inverse permutation).
pub fn topo_positions(g: &Graph, order: &[NodeId]) -> Vec<usize> {
    let mut pos = vec![usize::MAX; g.node_count()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    pos
}

/// Set of nodes reachable from `start` by directed paths (including `start`).
pub fn reachable_from(g: &Graph, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(v) = stack.pop() {
        for &e in g.out_edges(v) {
            let w = g.head(e);
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("c", "d").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = topological_order(&g).unwrap();
        let pos = topo_positions(&g, &order);
        for (_, e) in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
        assert_eq!(order.len(), g.node_count());
    }

    #[test]
    fn topo_positions_inverse() {
        let g = diamond();
        let order = topological_order(&g).unwrap();
        let pos = topo_positions(&g, &order);
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(pos[v.index()], i);
        }
    }

    #[test]
    fn cycle_is_detected() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("b", "c").unwrap();
        b.edge("c", "a").unwrap();
        let g = b.build_unchecked();
        assert!(matches!(
            topological_order(&g),
            Err(GraphError::NotAcyclic { .. })
        ));
    }

    #[test]
    fn reachability_follows_edge_direction() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let c = g.node_by_name("c").unwrap();
        let d = g.node_by_name("d").unwrap();
        let r = reachable_from(&g, a);
        assert!(g.node_ids().all(|v| r[v.index()]));
        let r = reachable_from(&g, b);
        assert!(!r[a.index()] && r[b.index()] && !r[c.index()] && r[d.index()]);
        let r = reachable_from(&g, d);
        assert!(!r[a.index()] && !r[b.index()] && !r[c.index()] && r[d.index()]);
    }

    #[test]
    fn empty_graph_topo_is_empty() {
        let g = Graph::new();
        assert!(topological_order(&g).unwrap().is_empty());
    }
}
