//! Single-source DAG path computations.
//!
//! The dummy-interval algorithms need two flavours of path length:
//!
//! * **buffer length** — the sum of channel buffer capacities along a path
//!   (the paper's `L(...)` quantities), minimised;
//! * **hop count** — the number of edges along a path (the paper's `h(...)`
//!   quantities), maximised.
//!
//! Both are computed by a single dynamic-programming sweep over a
//! topological order, optionally restricted to a caller-supplied set of
//! admissible edges.

use crate::error::Result;
use crate::ids::{EdgeId, NodeId};
use crate::multigraph::Graph;
use crate::topo::topological_order;

/// Per-node result of a DAG path sweep; `None` means unreachable.
pub type PathTable = Vec<Option<u64>>;

/// Shortest *buffer-length* distance from `src` to every node, following
/// only edges for which `admit` returns true.
///
/// Edge weights are the channel capacities.  `table[v] == None` means `v`
/// is unreachable from `src` under the restriction.
pub fn shortest_buffer_dists<F>(g: &Graph, src: NodeId, mut admit: F) -> Result<PathTable>
where
    F: FnMut(EdgeId) -> bool,
{
    let order = topological_order(g)?;
    let mut dist: PathTable = vec![None; g.node_count()];
    dist[src.index()] = Some(0);
    for &u in &order {
        let Some(du) = dist[u.index()] else { continue };
        for &e in g.out_edges(u) {
            if !admit(e) {
                continue;
            }
            let v = g.head(e);
            let cand = du.saturating_add(g.capacity(e));
            let slot = &mut dist[v.index()];
            match slot {
                Some(best) if *best <= cand => {}
                _ => *slot = Some(cand),
            }
        }
    }
    Ok(dist)
}

/// Longest *hop-count* distance from `src` to every node, following only
/// edges for which `admit` returns true.
pub fn longest_hop_dists<F>(g: &Graph, src: NodeId, mut admit: F) -> Result<PathTable>
where
    F: FnMut(EdgeId) -> bool,
{
    let order = topological_order(g)?;
    let mut dist: PathTable = vec![None; g.node_count()];
    dist[src.index()] = Some(0);
    for &u in &order {
        let Some(du) = dist[u.index()] else { continue };
        for &e in g.out_edges(u) {
            if !admit(e) {
                continue;
            }
            let v = g.head(e);
            let cand = du + 1;
            let slot = &mut dist[v.index()];
            match slot {
                Some(best) if *best >= cand => {}
                _ => *slot = Some(cand),
            }
        }
    }
    Ok(dist)
}

/// Shortest buffer-length of a directed path from `from` to `to`
/// (`Some(0)` if they are equal, `None` if unreachable).
pub fn shortest_buffer_path(g: &Graph, from: NodeId, to: NodeId) -> Result<Option<u64>> {
    Ok(shortest_buffer_dists(g, from, |_| true)?[to.index()])
}

/// Longest hop count of a directed path from `from` to `to`.
pub fn longest_hop_path(g: &Graph, from: NodeId, to: NodeId) -> Result<Option<u64>> {
    Ok(longest_hop_dists(g, from, |_| true)?[to.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The Fig. 3 graph of the paper: two directed branches a->b->e->f
    /// (buffers 2,5,1) and a->c->d->f (buffers 3,1,2).
    fn fig3() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "e", 5).unwrap();
        b.edge_with_capacity("e", "f", 1).unwrap();
        b.edge_with_capacity("a", "c", 3).unwrap();
        b.edge_with_capacity("c", "d", 1).unwrap();
        b.edge_with_capacity("d", "f", 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shortest_buffer_distances_match_fig3() {
        let g = fig3();
        let a = g.node_by_name("a").unwrap();
        let f = g.node_by_name("f").unwrap();
        // a->c->d->f = 3+1+2 = 6; a->b->e->f = 2+5+1 = 8.
        assert_eq!(shortest_buffer_path(&g, a, f).unwrap(), Some(6));
    }

    #[test]
    fn longest_hops_match_fig3() {
        let g = fig3();
        let a = g.node_by_name("a").unwrap();
        let f = g.node_by_name("f").unwrap();
        assert_eq!(longest_hop_path(&g, a, f).unwrap(), Some(3));
        assert_eq!(longest_hop_path(&g, f, a).unwrap(), None);
        assert_eq!(longest_hop_path(&g, a, a).unwrap(), Some(0));
    }

    #[test]
    fn restricted_sweep_excludes_edges() {
        let g = fig3();
        let a = g.node_by_name("a").unwrap();
        let f = g.node_by_name("f").unwrap();
        let ac = g.edge_by_names("a", "c").unwrap();
        // Forbid a->c: only the a->b->e->f branch remains, cost 8.
        let dist = shortest_buffer_dists(&g, a, |e| e != ac).unwrap();
        assert_eq!(dist[f.index()], Some(8));
        let c = g.node_by_name("c").unwrap();
        assert_eq!(dist[c.index()], None);
    }

    #[test]
    fn diamond_longest_vs_shortest_diverge() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("s", "m1", 1).unwrap();
        b.edge_with_capacity("m1", "t", 1).unwrap();
        b.edge_with_capacity("s", "m2", 10).unwrap();
        b.edge_with_capacity("m2", "m3", 10).unwrap();
        b.edge_with_capacity("m3", "t", 10).unwrap();
        let g = b.build().unwrap();
        let s = g.node_by_name("s").unwrap();
        let t = g.node_by_name("t").unwrap();
        assert_eq!(shortest_buffer_path(&g, s, t).unwrap(), Some(2));
        assert_eq!(longest_hop_path(&g, s, t).unwrap(), Some(3));
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        let g = b.build().unwrap();
        let bnode = g.node_by_name("b").unwrap();
        let cnode = g.node_by_name("c").unwrap();
        assert_eq!(shortest_buffer_path(&g, bnode, cnode).unwrap(), None);
    }
}
