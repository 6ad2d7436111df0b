//! Propagation-algorithm intervals on SP-ladders (§VI.A of the paper),
//! `O(|G|)` after the SP reduction.
//!
//! The cycles *internal* to each contracted constituent (rail segment,
//! cross-link, or absorbed chord graph) are handled by running `SETIVALS` on
//! that constituent's component tree; this module adds the constraints from
//! *external* cycles — those that traverse at least two constituents.
//! External cycles have their sources at the ladder source `X` or at
//! cross-link tails (Fact VI.1), so only edges leaving those fork vertices
//! get new constraints.
//!
//! For a fork `w` the paper defines `Ls(w)` (the shortest "escape" starting
//! down `w`'s own rail and ending at a potential sink) and `Lk(w)` (the
//! shortest escape starting across `w`'s cross-link), computed by the
//! bottom-up recurrences of §VI.A; every edge leaving `w` inside one
//! constituent is then bounded by the best escape through any *other*
//! constituent leaving `w`.  We generalise the recurrences slightly (see
//! `DESIGN.md`): a vertex may be the tail of several cross-links, and a
//! branch that has just crossed to the other side may stop at its landing
//! vertex only if a *second* cross-link also arrives there.

use fila_graph::Graph;
use fila_spdag::{CompId, SpForest, SpMetrics};

use crate::interval::{DummyInterval, IntervalMap};
use crate::ladder::LadderDecomposition;

/// Applies the external-cycle Propagation constraints of one SP-ladder block
/// to `intervals`.  Internal-cycle constraints must be applied separately by
/// running `SETIVALS` on every constituent component (the planner does so).
pub fn apply_ladder_propagation(
    g: &Graph,
    forest: &SpForest,
    metrics: &SpMetrics,
    ladder: &LadderDecomposition,
    intervals: &mut IntervalMap,
) {
    let vertices = &ladder.vertices;
    let sink = vertices.len() - 1;
    // The cheapest way on for a branch that has arrived at `v`, where
    // `down` holds that value for every vertex below `v`: stop, if a rung
    // other than the one it arrived by (`arrived` counts it) lands at `v`;
    // cross a rung at `v` and stop at its head; or descend `v`'s rail.
    let onward = |v: usize, arrived: usize, down: &[u64]| -> u64 {
        let here = &vertices[v];
        let stop = if here.rung_heads > arrived {
            0
        } else {
            u64::MAX
        };
        let across = here.rungs().iter().map(|&(_, comp)| metrics.l(comp));
        let below = here
            .rails()
            .iter()
            .map(|&(next, rail)| metrics.l(rail).saturating_add(down[next]));
        across.chain(below).fold(stop, u64::min)
    };
    // `down[v]`: the cheapest completion of a branch that arrived at `v`
    // along its own side's rail; a branch at the sink is complete.
    let mut down = vec![u64::MAX; vertices.len()];
    down[sink] = 0;
    for v in (1..sink).rev() {
        down[v] = onward(v, 0, &down);
    }

    for w in ladder.forks() {
        // The constituents leaving `w` with the shortest escape through
        // each — the `Ls` / `Lk` values of §VI.A: a rail descends its side
        // and may not stop at `w` itself; a rung crosses, then goes on from
        // its head.
        let here = &vertices[w];
        let rails = here.rails().iter().map(|&(next, comp)| (comp, down[next]));
        let rungs = here
            .rungs()
            .iter()
            .map(|&(head, comp)| (comp, onward(head, 1, &down)));
        let starts: Vec<(CompId, u64)> = rails
            .chain(rungs)
            .map(|(comp, rest)| (comp, metrics.l(comp).saturating_add(rest)))
            .collect();
        if starts.len() < 2 {
            // A single outgoing constituent cannot be the source of an
            // external cycle.
            continue;
        }
        for (i, &(comp_i, _)) in starts.iter().enumerate() {
            let mut bound = DummyInterval::Infinite;
            for (j, &(_, start_j)) in starts.iter().enumerate() {
                if i != j && start_j != u64::MAX {
                    bound = bound.min(DummyInterval::from_length(start_j));
                }
            }
            if !bound.is_finite() {
                continue;
            }
            for e in forest.edges_in(comp_i) {
                if g.tail(e) == here.node {
                    intervals.tighten(e, bound);
                }
            }
        }
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

    /// The planner's Propagation intervals for a CS4 graph: SETIVALS inside
    /// every contracted constituent, then the ladder updates of this module
    /// for every ladder block.
    fn cs4_propagation(g: &Graph) -> IntervalMap {
        let (class, plan) = Planner::new(g).plan_with_class().unwrap();
        assert_eq!(class, GraphClass::Cs4);
        plan.intervals().clone()
    }

    #[test]
    fn fig4_left_matches_exhaustive() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "a", 2).unwrap();
        b.edge_with_capacity("x", "b", 3).unwrap();
        b.edge_with_capacity("a", "y", 4).unwrap();
        b.edge_with_capacity("b", "y", 5).unwrap();
        b.edge_with_capacity("a", "b", 1).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert_eq!(fast, exact);
    }

    #[test]
    fn two_rung_ladder_matches_exhaustive() {
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
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        // The efficient plan must never be laxer than the exact one
        // (safety); on this ladder it is in fact identical.
        assert!(exact.dominates(&fast));
        assert_eq!(fast, exact);
    }

    #[test]
    fn opposite_direction_rungs_match_exhaustive() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "u1", 2).unwrap();
        b.edge_with_capacity("u1", "u2", 3).unwrap();
        b.edge_with_capacity("u2", "y", 4).unwrap();
        b.edge_with_capacity("x", "v1", 5).unwrap();
        b.edge_with_capacity("v1", "v2", 1).unwrap();
        b.edge_with_capacity("v2", "y", 2).unwrap();
        b.edge_with_capacity("u1", "v1", 6).unwrap();
        b.edge_with_capacity("v2", "u2", 1).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert!(exact.dominates(&fast), "ladder plan must be safe");
    }

    #[test]
    fn ladder_with_contracted_limbs_is_safe_and_internal_cycles_exact() {
        // Rails and rungs that are themselves SP subgraphs (diamonds and
        // chains) — the contracted constituents carry internal cycles too.
        let mut b = GraphBuilder::new();
        // left rail: x -> u1 via a diamond, u1 -> y via a chain
        b.edge_with_capacity("x", "p", 2).unwrap();
        b.edge_with_capacity("x", "q", 3).unwrap();
        b.edge_with_capacity("p", "u1", 1).unwrap();
        b.edge_with_capacity("q", "u1", 1).unwrap();
        b.edge_with_capacity("u1", "m", 2).unwrap();
        b.edge_with_capacity("m", "y", 2).unwrap();
        // right rail: x -> v1 -> y
        b.edge_with_capacity("x", "v1", 4).unwrap();
        b.edge_with_capacity("v1", "y", 5).unwrap();
        // cross-link u1 -> v1 (two parallel edges => internal cycle).
        b.edge_with_capacity("u1", "v1", 3).unwrap();
        b.edge_with_capacity("u1", "v1", 7).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert!(exact.dominates(&fast), "must be at least as tight as exact");
        // Internal cycle of the diamond: [xp] and [xq] bounded by the
        // sibling branch, exactly as the exhaustive result says.
        let xp = g.edge_by_names("x", "p").unwrap();
        let xq = g.edge_by_names("x", "q").unwrap();
        assert_eq!(fast.get(xp), exact.get(xp));
        assert_eq!(fast.get(xq), exact.get(xq));
    }

    #[test]
    fn shared_tail_rungs_are_safe() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "u1", 2).unwrap();
        b.edge_with_capacity("u1", "y", 3).unwrap();
        b.edge_with_capacity("x", "v1", 4).unwrap();
        b.edge_with_capacity("v1", "v2", 5).unwrap();
        b.edge_with_capacity("v2", "y", 6).unwrap();
        b.edge_with_capacity("u1", "v1", 7).unwrap();
        b.edge_with_capacity("u1", "v2", 8).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert!(exact.dominates(&fast));
    }
}
