//! Non-Propagation-algorithm intervals on SP-ladders (§VI.B of the paper),
//! `O(|G|³)`, with the **filtering-robust** escape bound of the E17
//! postmortem.  (Still cubic after E25: the `fork × sink × constituent`
//! loops remain; only the per-visit subtree walk and root search went.)
//!
//! As with the Propagation case, cycles internal to each contracted
//! constituent are handled by the SP algorithm on that constituent's
//! component tree; this module adds the external-cycle constraints.  For
//! every fork `w` (the ladder source or a cross-link tail), every *potential
//! sink* `t` (the ladder sink or a cross-link head), and every ordered pair
//! of distinct constituents `(c_e, c_o)` leaving `w`, every edge `e` of
//! every constituent `H` lying on a `w → t` path that starts through `c_e`
//! is bounded by
//!
//! ```text
//! [e] ← min([e],  ⌊ L_o(w, t) ^ (1 / (h_e(w, t) − h(H) + h(H, e))) ⌋ )
//! ```
//!
//! where `L_o(w, t)` is the shortest buffer length of a `w → t` path
//! starting through `c_o` and `h_e(w, t)` the largest hop count of a
//! `w → t` path starting through `c_e` (both computed over the ladder
//! skeleton using the per-constituent `L(H)` / `h(H)` metrics).
//!
//! The paper divides `L_o` by the hop count instead of taking its root.
//! That recurrence assumed data re-emission along the run: with per-node
//! *interior* filtering the inter-message gap along a run multiplies per
//! hop (a Non-Propagation node relays at most one message per `[e]`
//! messages reaching it, because its gap counter ticks per accepted input),
//! so the product — not the sum — of the run's intervals must fit in the
//! opposite slack.  The division demonstrably deadlocked 16+-rung random
//! ladders under aggressive interior filtering
//! (`tests/ladder_interior_filtering.rs`, formerly a pinned failing-case
//! harness); the root bound restores "admitted ⇒ deadlock-free".  For
//! every actual `w → t` path `p` through `e`, the denominator is at least
//! `|p|` (the skeleton tables substitute the hop-longest path), so the
//! per-edge root keeps `∏_{e' ∈ p} [e'] ≤ L_o` — conservative whenever `H`
//! does not lie on the hop-longest path, exactly as the paper's division
//! was.

use fila_graph::{EdgeId, Graph, NodeId};
use fila_spdag::{CompId, SpForest, SpMetrics};

use crate::interval::{DummyInterval, IntervalMap};
use crate::ladder::LadderDecomposition;
use crate::ladder_prop::LadderIndex;

/// One directed constituent of the ladder skeleton, with its endpoints
/// pre-resolved to block-local vertex ids so the DP tables below are plain
/// vector lookups.
#[derive(Debug, Clone, Copy)]
struct SkelEdge {
    comp: CompId,
    from_l: usize,
    to_l: usize,
}

/// The contracted ladder skeleton: dense adjacency over the block-local
/// vertex numbering plus a topological order of the local ids.
struct Skeleton {
    edges: Vec<SkelEdge>,
    /// Per local vertex: indices into `edges` of the constituents leaving it.
    out_adj: Vec<Vec<usize>>,
    /// Topological order of the local vertex ids (the block is small, so a
    /// simple Kahn pass suffices).
    order: Vec<usize>,
}

impl Skeleton {
    fn new(ladder: &LadderDecomposition, index: &LadderIndex) -> Self {
        let local = index.local();
        let n = local.len();
        let edges: Vec<SkelEdge> = ladder
            .rails
            .iter()
            .map(|r| SkelEdge {
                comp: r.comp,
                from_l: local.of(r.from),
                to_l: local.of(r.to),
            })
            .chain(ladder.rungs.iter().map(|r| SkelEdge {
                comp: r.comp,
                from_l: local.of(r.tail),
                to_l: local.of(r.head),
            }))
            .collect();
        let mut out_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out_adj[e.from_l].push(i);
        }
        let mut indeg = vec![0usize; n];
        for e in &edges {
            indeg[e.to_l] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &ei in &out_adj[v] {
                let t = edges[ei].to_l;
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
        Skeleton { edges, out_adj, order }
    }

    /// Dense table of the local vertices that can reach `t_l` following
    /// skeleton edges (computed in one reverse-topological sweep).
    fn reaches_to(&self, t_l: usize) -> Vec<bool> {
        let mut reach = vec![false; self.out_adj.len()];
        reach[t_l] = true;
        for &v in self.order.iter().rev() {
            if reach[v] {
                continue;
            }
            reach[v] = self.out_adj[v].iter().any(|&ei| reach[self.edges[ei].to_l]);
        }
        reach
    }
}

/// Applies the external-cycle Non-Propagation constraints of one SP-ladder
/// block to `intervals`.
pub fn apply_ladder_nonpropagation(
    _g: &Graph,
    forest: &SpForest,
    metrics: &SpMetrics,
    ladder: &LadderDecomposition,
    intervals: &mut IntervalMap,
) {
    let index = LadderIndex::new(ladder);
    let skeleton = Skeleton::new(ladder, &index);
    let local = index.local();

    // Potential sinks: the ladder sink plus every cross-link head, each with
    // its precomputed can-reach table.
    let mut sinks: Vec<NodeId> = vec![ladder.sink];
    for r in &ladder.rungs {
        if !sinks.contains(&r.head) {
            sinks.push(r.head);
        }
    }
    let sink_reach: Vec<(NodeId, usize, Vec<bool>)> = sinks
        .iter()
        .map(|&t| {
            let t_l = local.of(t);
            (t, t_l, skeleton.reaches_to(t_l))
        })
        .collect();

    // Per constituent `H`: `h(H)` and every edge's `h(H, e)`, walked once —
    // the loops below visit each constituent `O(forks × sinks)` times.
    let hops: Vec<(u64, Vec<(EdgeId, u64)>)> = skeleton
        .edges
        .iter()
        .map(|edge| (metrics.h(edge.comp), metrics.h_per_edge(forest, edge.comp)))
        .collect();

    for &w in index.forks() {
        let outgoing = index.outgoing_constituents(ladder, w);
        if outgoing.len() < 2 {
            continue;
        }
        // For each outgoing constituent, the skeleton-level DP tables of
        // shortest buffer length and longest hop count to every vertex,
        // where the path is forced to start through that constituent.
        let tables: Vec<(CompId, Dp)> = outgoing
            .iter()
            .map(|&(comp, next)| (comp, Dp::from_start(metrics, &skeleton, comp, local.of(next))))
            .collect();

        for (i, (comp_e, dp_e)) in tables.iter().enumerate() {
            for (j, (_, dp_o)) in tables.iter().enumerate() {
                if i == j {
                    continue;
                }
                for (t, t_l, reach_t) in &sink_reach {
                    if *t == w {
                        continue;
                    }
                    let (Some(h_e), Some(l_o)) =
                        (dp_e.longest_hops(*t_l), dp_o.shortest_buffer(*t_l))
                    else {
                        continue;
                    };
                    // Every constituent H on some w -> t path that starts
                    // through c_e: H itself, plus any constituent reachable
                    // from c_e's head that can still reach t.
                    for (edge, (h_comp, per_edge)) in skeleton.edges.iter().zip(&hops) {
                        let on_path = edge.comp == *comp_e
                            || (dp_e.reaches(edge.from_l) && reach_t[edge.to_l]);
                        if !on_path {
                            continue;
                        }
                        for &(e, h_e_edge) in per_edge {
                            let denom = h_e.saturating_sub(*h_comp).saturating_add(h_e_edge).max(1);
                            intervals.tighten(e, DummyInterval::from_run_budget(l_o, denom));
                        }
                    }
                }
            }
        }
    }
}

/// Per-start DP tables over the ladder skeleton, dense over the block-local
/// vertex ids.  Reachability is tracked separately from the values so that
/// a path whose buffer length saturates at `u64::MAX` (edges with
/// effectively unbounded capacity) is still treated as reachable, exactly
/// like the `HashMap`-based tables this replaced.
struct Dp {
    reached: Vec<bool>,
    shortest: Vec<u64>,
    longest: Vec<u64>,
}

impl Dp {
    /// Builds the tables for paths that start at the fork, traverse
    /// `first_comp` to the vertex with local id `first_next_l`, and then
    /// continue freely.
    fn from_start(
        metrics: &SpMetrics,
        skeleton: &Skeleton,
        first_comp: CompId,
        first_next_l: usize,
    ) -> Dp {
        let n = skeleton.out_adj.len();
        let mut reached = vec![false; n];
        let mut shortest = vec![u64::MAX; n];
        let mut longest = vec![0u64; n];
        reached[first_next_l] = true;
        shortest[first_next_l] = metrics.l(first_comp);
        longest[first_next_l] = metrics.h(first_comp);
        for &v in &skeleton.order {
            if !reached[v] {
                continue;
            }
            let (sv, lv) = (shortest[v], longest[v]);
            for &ei in &skeleton.out_adj[v] {
                let edge = skeleton.edges[ei];
                let cand_s = sv.saturating_add(metrics.l(edge.comp));
                let cand_l = lv.saturating_add(metrics.h(edge.comp));
                if reached[edge.to_l] {
                    shortest[edge.to_l] = shortest[edge.to_l].min(cand_s);
                    longest[edge.to_l] = longest[edge.to_l].max(cand_l);
                } else {
                    reached[edge.to_l] = true;
                    shortest[edge.to_l] = cand_s;
                    longest[edge.to_l] = cand_l;
                }
            }
        }
        Dp {
            reached,
            shortest,
            longest,
        }
    }

    fn shortest_buffer(&self, t_l: usize) -> Option<u64> {
        self.reached[t_l].then_some(self.shortest[t_l])
    }

    fn longest_hops(&self, t_l: usize) -> Option<u64> {
        self.reached[t_l].then_some(self.longest[t_l])
    }

    fn reaches(&self, v_l: usize) -> bool {
        self.reached[v_l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs4::GraphClass;
    use crate::exhaustive::exhaustive_intervals;
    use crate::plan::Algorithm;
    use crate::planner::Planner;
    use fila_graph::GraphBuilder;

    /// The planner's Non-Propagation intervals for a CS4 graph.
    fn cs4_nonprop(g: &Graph) -> IntervalMap {
        let planner = Planner::new(g).algorithm(Algorithm::NonPropagation);
        let (class, plan) = planner.plan_with_class().unwrap();
        assert_eq!(class, GraphClass::Cs4);
        plan.intervals().clone()
    }

    #[test]
    fn fig4_left_nonprop_is_safe_wrt_exhaustive() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "a", 2).unwrap();
        b.edge_with_capacity("x", "b", 3).unwrap();
        b.edge_with_capacity("a", "y", 4).unwrap();
        b.edge_with_capacity("b", "y", 5).unwrap();
        b.edge_with_capacity("a", "b", 1).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_nonprop(&g);
        let exact = exhaustive_intervals(&g, Algorithm::NonPropagation).unwrap();
        assert!(
            exact.dominates(&fast),
            "ladder non-propagation plan must be safe\nfast:\n{fast:?}\nexact:\n{exact:?}"
        );
        // Every edge that the exact analysis bounds must also be bounded by
        // the efficient analysis.
        for (e, iv) in exact.iter() {
            if iv.is_finite() {
                assert!(fast.get(e).is_finite(), "edge {e} lost its bound");
            }
        }
    }

    #[test]
    fn two_rung_ladder_nonprop_is_safe() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "u1", 2).unwrap();
        b.edge_with_capacity("u1", "u2", 3).unwrap();
        b.edge_with_capacity("u2", "y", 4).unwrap();
        b.edge_with_capacity("x", "v1", 5).unwrap();
        b.edge_with_capacity("v1", "v2", 1).unwrap();
        b.edge_with_capacity("v2", "y", 2).unwrap();
        b.edge_with_capacity("u1", "v1", 6).unwrap();
        b.edge_with_capacity("u2", "v2", 1).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_nonprop(&g);
        let exact = exhaustive_intervals(&g, Algorithm::NonPropagation).unwrap();
        assert!(exact.dominates(&fast));
    }

    #[test]
    fn ladder_with_contracted_limbs_nonprop_is_safe() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "p", 2).unwrap();
        b.edge_with_capacity("x", "q", 3).unwrap();
        b.edge_with_capacity("p", "u1", 1).unwrap();
        b.edge_with_capacity("q", "u1", 1).unwrap();
        b.edge_with_capacity("u1", "m", 2).unwrap();
        b.edge_with_capacity("m", "y", 2).unwrap();
        b.edge_with_capacity("x", "v1", 4).unwrap();
        b.edge_with_capacity("v1", "y", 5).unwrap();
        b.edge_with_capacity("u1", "v1", 3).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_nonprop(&g);
        let exact = exhaustive_intervals(&g, Algorithm::NonPropagation).unwrap();
        assert!(exact.dominates(&fast));
    }
}
