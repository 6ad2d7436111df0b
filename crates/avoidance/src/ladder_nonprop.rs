//! Non-Propagation-algorithm intervals on SP-ladders (§VI.B of the paper),
//! with the **filtering-robust** escape bound of the E17 postmortem.
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
//! Under per-node *interior* filtering the inter-message gap along a run
//! multiplies per hop, so the product of the run's intervals must fit in
//! the opposite slack; the division deadlocked 16+-rung random ladders
//! (`tests/ladder_interior_filtering.rs`).  The denominator is at least the
//! hop count of every actual `w → t` path through `e`, so the root keeps
//! `∏_{e' ∈ p} [e'] ≤ L_o` on each of them.
//!
//! **Cost** (E47): `O(forks × (V + E) × keys)` over the skeleton, where
//! `keys` counts the distinct `(h(H), h(H, e))` pairs (one when every
//! constituent is a single edge), and the tables are exactly those of the
//! `c_o × t × H` loops above:
//!
//! * `tighten` keeps a minimum and `⌊L^(1/h)⌋` is non-decreasing in `L`, so
//!   the `c_o` loop is one candidate at `L(t) = min_{c_o ≠ c_e} L_o(w, t)`;
//! * a candidate depends on `t` only through `(L(t), h_e(w, t))` and on `e`
//!   only through its key, so one reverse-topological min-DP per `(w, c_e)`
//!   gives each vertex the best candidate over the sinks it reaches, and
//!   `H` reads it at its head: the sinks a path through `H` can end at.

use fila_graph::{EdgeId, Graph};
use fila_spdag::{CompId, SpForest, SpMetrics};

use crate::interval::{DummyInterval, IntervalMap};
use crate::ladder::LadderDecomposition;

/// Applies the external-cycle Non-Propagation constraints of one SP-ladder
/// block to `intervals`.
pub fn apply_ladder_nonpropagation(
    _g: &Graph,
    forest: &SpForest,
    metrics: &SpMetrics,
    ladder: &LadderDecomposition,
    intervals: &mut IntervalMap,
) {
    // The skeleton over the block's local ids, which are in topological
    // order: every constituent `H` as `(tail, head, comp)`.
    let vertices = &ladder.vertices;
    let n = vertices.len();
    let edges: Vec<(usize, usize, CompId)> = vertices
        .iter()
        .enumerate()
        .flat_map(|(v, here)| here.out.iter().map(move |&(to, comp)| (v, to, comp)))
        .collect();
    // Potential sinks: the ladder sink plus every cross-link head.
    let is_sink = |v: usize| v == n - 1 || vertices[v].rung_heads > 0;

    // Per constituent `H`: `h(H)` and every edge's `h(H, e)`; and the
    // distinct keys `(h(H), h(H, e))`, each a slot of the DP rows.
    let hops: Vec<(u64, Vec<(EdgeId, u64)>)> = edges
        .iter()
        .map(|&(_, _, comp)| (metrics.h(comp), metrics.h_per_edge(forest, comp)))
        .collect();
    let mut keys: Vec<(u64, u64)> = hops
        .iter()
        .flat_map(|(h, per_edge)| per_edge.iter().map(move |&(_, h_e)| (*h, h_e)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let k = keys.len();
    // `best[v * k + slot]`: the tightest candidate over the potential sinks
    // reachable from `v` (`Infinite` = none).
    let mut best = vec![DummyInterval::Infinite; n * k];

    for w in ladder.forks() {
        let outgoing = &vertices[w].out;
        if outgoing.len() < 2 {
            continue;
        }
        // For each outgoing constituent, the skeleton-level DP tables of
        // shortest buffer length and longest hop count to every vertex,
        // where the path is forced to start through that constituent.
        let tables: Vec<Dp> = outgoing
            .iter()
            .map(|&(next, comp)| Dp::from_start(metrics, ladder, comp, next))
            .collect();

        for (i, dp_e) in tables.iter().enumerate() {
            // One reverse-topological sweep over the vertices `c_e` reaches.
            for v in (0..n).rev() {
                let Some(h_e) = dp_e.longest_hops(v) else {
                    continue;
                };
                let row = v * k;
                best[row..row + k].fill(DummyInterval::Infinite);
                // `v` as a potential sink `t` (never `w`: the sweep starts
                // past it in an acyclic skeleton).  Its one candidate per key
                // uses `L(t)`, the shortest `w -> t` escape through any other
                // constituent: the root is non-decreasing in the length it is
                // taken of, so this is the minimum over every `c_o`.
                let l_o = tables
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i && is_sink(v))
                    .filter_map(|(_, dp_o)| dp_o.shortest_buffer(v))
                    .min();
                if let Some(l_o) = l_o {
                    for (slot, &(h_comp, h_e_edge)) in keys.iter().enumerate() {
                        let denom = h_e.saturating_sub(h_comp).saturating_add(h_e_edge).max(1);
                        best[row + slot] = DummyInterval::from_run_budget(l_o, denom);
                    }
                }
                for &(to, _) in &vertices[v].out {
                    let next = to * k;
                    for slot in 0..k {
                        best[row + slot] = best[row + slot].min(best[next + slot]);
                    }
                }
            }
            // Every constituent H on some w -> t path that starts through
            // c_e: H itself, plus any constituent whose tail c_e reaches.
            for (&(tail, head, comp), (h_comp, per_edge)) in edges.iter().zip(&hops) {
                if comp != outgoing[i].1 && !dp_e.reached[tail] {
                    continue;
                }
                for &(e, h_e_edge) in per_edge {
                    let slot = keys
                        .binary_search(&(*h_comp, h_e_edge))
                        .expect("a collected key");
                    intervals.tighten(e, best[head * k + slot]);
                }
            }
        }
    }
}

/// Per-start DP tables over the ladder skeleton, dense over the block's
/// local ids.  Reachability is tracked separately from the values so that
/// a path whose buffer length saturates at `u64::MAX` (edges with
/// effectively unbounded capacity) is still treated as reachable.
struct Dp {
    reached: Vec<bool>,
    shortest: Vec<u64>,
    longest: Vec<u64>,
}

impl Dp {
    /// Builds the tables for paths that start at the fork, traverse
    /// `first_comp` to the vertex with local id `first_next`, and then
    /// continue freely.
    fn from_start(
        metrics: &SpMetrics,
        ladder: &LadderDecomposition,
        first_comp: CompId,
        first_next: usize,
    ) -> Dp {
        let n = ladder.vertices.len();
        let mut reached = vec![false; n];
        let mut shortest = vec![u64::MAX; n];
        let mut longest = vec![0u64; n];
        reached[first_next] = true;
        shortest[first_next] = metrics.l(first_comp);
        longest[first_next] = metrics.h(first_comp);
        for (v, here) in ladder.vertices.iter().enumerate() {
            if !reached[v] {
                continue;
            }
            let (sv, lv) = (shortest[v], longest[v]);
            for &(to, comp) in &here.out {
                let cand_s = sv.saturating_add(metrics.l(comp));
                let cand_l = lv.saturating_add(metrics.h(comp));
                if reached[to] {
                    shortest[to] = shortest[to].min(cand_s);
                    longest[to] = longest[to].max(cand_l);
                } else {
                    reached[to] = true;
                    shortest[to] = cand_s;
                    longest[to] = cand_l;
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
