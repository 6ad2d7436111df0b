//! Non-Propagation-algorithm intervals on SP-DAGs (§IV.B of the paper),
//! with the **filtering-robust** bound of the E17 postmortem.
//!
//! The Non-Propagation protocol lets every node send dummies on its own
//! output channels, but a dummy is consumed at the next node and never
//! forwarded.  The paper bounds edge `e` by dividing the slack of the
//! opposite branch of each cycle by the number of hops on `e`'s own branch
//! (`[e] = L(C, e) / h(C, e)`).  That division is only sound when every
//! interior node of the run re-emits the data it receives: a node's gap
//! counter ticks once per *accepted input*, so when interior nodes filter,
//! the inter-message gap along a run **multiplies** per hop (each hop
//! relays at most one message per `[e]` messages reaching it) instead of
//! adding, and `L/h` plans deadlock (DESIGN.md, "Resolved: interior
//! filtering vs Non-Propagation").  The robust bound keeps the worst-case
//! product of the run's intervals within the opposite slack:
//!
//! ```text
//! [e] = min over cycles C containing e of  ⌊ L(C, e) ^ (1 / h(C, e)) ⌋
//! ```
//!
//! On the SP component tree this becomes, for every parallel composition
//! `Pc(H1, H2)` and every edge `e ∈ H1` (symmetrically for `H2`):
//!
//! ```text
//! [e] ← min([e], ⌊ L(H2) ^ (1 / h(H1, e)) ⌋)
//! ```
//!
//! Exactness w.r.t. the (equally fixed) cycle-level definition is
//! preserved: the bound is monotone increasing in `L` and decreasing in
//! `h`, and the minimum-`L` sibling path and maximum-`h` own path live in
//! different children of the parallel composition, so a single cycle
//! realises both extremes — the same argument as the paper's Claim IV.1.
//! The per-ancestor recomputation of `h(H, e)` makes this `O(|G|²)`
//! overall, exactly as analysed in the paper.

use fila_graph::Graph;
use fila_spdag::{SpDecomposition, SpForest, SpKind, SpMetrics};

use crate::interval::{DummyInterval, IntervalMap};

/// Computes Non-Propagation dummy intervals for an SP-DAG in `O(|G|²)`.
pub fn nonprop_intervals(g: &Graph, d: &SpDecomposition) -> IntervalMap {
    let metrics = SpMetrics::compute(g, &d.forest);
    let mut intervals = IntervalMap::for_graph(g);
    nonprop_into(&d.forest, &metrics, d.root, &mut intervals);
    intervals
}

/// The reusable core: processes the subtree rooted at `root`, tightening
/// `intervals` in place.  Used by the CS4 planner once per contracted
/// skeleton component.
pub fn nonprop_into(
    forest: &SpForest,
    metrics: &SpMetrics,
    root: fila_spdag::CompId,
    intervals: &mut IntervalMap,
) {
    for comp in forest.post_order(root) {
        let SpKind::Parallel(children) = &forest.component(comp).kind else {
            // Leaves introduce no cycles on their own (with single-edge
            // leaves the multi-edge base case is expressed as a parallel
            // node), and series compositions introduce no new cycles.
            continue;
        };
        let sibling = crate::prop_sp::sibling_min_l(metrics, children);
        for (i, &child) in children.iter().enumerate() {
            let l_other = sibling[i];
            // Recompute h(child, e) for every edge of this child relative to
            // this composition; this is the step that makes the whole
            // algorithm quadratic.
            for (e, h_e) in metrics.h_per_edge(forest, child) {
                intervals.tighten(e, DummyInterval::from_run_budget(l_other, h_e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;
    use fila_spdag::{build_sp, reduce, SpSpec};

    fn fig3() -> (Graph, SpDecomposition) {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "e", 5).unwrap();
        b.edge_with_capacity("e", "f", 1).unwrap();
        b.edge_with_capacity("a", "c", 3).unwrap();
        b.edge_with_capacity("c", "d", 1).unwrap();
        b.edge_with_capacity("d", "f", 2).unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        (g, d)
    }

    #[test]
    fn fig3_nonprop_intervals_are_the_robust_tightening_of_the_paper() {
        let (g, d) = fig3();
        let ivals = nonprop_intervals(&g, &d);
        let e = |s: &str, t: &str| g.edge_by_names(s, t).unwrap();
        // Paper (re-emission model): [ab] = [be] = [ef] = 6/3 = 2 and
        // [ac] = [cd] = [df] = ⌈8/3⌉ = 3.  Robust (accepted-input model):
        // the product of a 3-hop run must fit in the opposite slack, so
        // ⌊6^(1/3)⌋ = 1 and ⌊8^(1/3)⌋ = 2.
        for (s, t) in [("a", "b"), ("b", "e"), ("e", "f")] {
            assert_eq!(ivals.get(e(s, t)), DummyInterval::Finite(1), "[{s}{t}]");
        }
        for (s, t) in [("a", "c"), ("c", "d"), ("d", "f")] {
            assert_eq!(ivals.get(e(s, t)), DummyInterval::Finite(2), "[{s}{t}]");
        }
        // Never looser than the paper's published Fig. 3 values.
        for ((s, t), paper) in [(("a", "b"), 2), (("a", "c"), 3)] {
            assert!(ivals.get(e(s, t)) <= DummyInterval::Finite(paper), "[{s}{t}]");
        }
    }

    #[test]
    fn pipeline_needs_no_dummies() {
        let (g, d) = build_sp(&SpSpec::pipeline(&[2, 2, 2]));
        let ivals = nonprop_intervals(&g, &d);
        assert_eq!(ivals.finite_count(), 0);
    }

    #[test]
    fn multi_edge_matches_propagation_base_case() {
        // For a bundle of parallel single edges h = 1, so the Non-Propagation
        // interval equals the Propagation one.
        let (g, d) = build_sp(&SpSpec::MultiEdge(vec![4, 7, 9]));
        let np = nonprop_intervals(&g, &d);
        let p = crate::prop_sp::setivals(&g, &d);
        assert_eq!(np, p);
    }

    #[test]
    fn nonprop_is_never_larger_than_propagation() {
        // h(H, e) >= 1, so dividing by it can only shrink the interval.
        let spec = SpSpec::Series(vec![
            SpSpec::Parallel(vec![
                SpSpec::pipeline(&[3, 1, 2]),
                SpSpec::Edge(4),
                SpSpec::Series(vec![SpSpec::MultiEdge(vec![2, 6]), SpSpec::Edge(5)]),
            ]),
            SpSpec::Parallel(vec![SpSpec::Edge(8), SpSpec::pipeline(&[1, 1, 1, 1])]),
        ]);
        let (g, d) = build_sp(&spec);
        let np = nonprop_intervals(&g, &d);
        let p = crate::prop_sp::setivals(&g, &d);
        for (e, np_iv) in np.iter() {
            assert!(np_iv <= p.get(e), "edge {e}: nonprop {np_iv} vs prop {}", p.get(e));
        }
    }

    #[test]
    fn deep_branch_takes_the_hop_count_root() {
        // Two branches: a 1-hop edge (cap 12) and a 4-hop chain.  Edges of
        // the 4-hop chain get interval ⌊12^(1/4)⌋ = 1 (their worst-case
        // relayed gap is the product over 4 hops, and 2⁴ = 16 > 12); the
        // 1-hop edge gets the chain's total length ⌊4^(1/1)⌋ = 4.
        let spec = SpSpec::Parallel(vec![SpSpec::Edge(12), SpSpec::pipeline(&[1, 1, 1, 1])]);
        let (g, d) = build_sp(&spec);
        let ivals = nonprop_intervals(&g, &d);
        for e in g.edge_ids() {
            if g.capacity(e) == 12 {
                assert_eq!(ivals.get(e), DummyInterval::Finite(4));
            } else {
                assert_eq!(ivals.get(e), DummyInterval::Finite(1));
            }
        }
    }

    #[test]
    fn intervals_do_not_depend_on_decomposition_source() {
        let spec = SpSpec::Parallel(vec![
            SpSpec::pipeline(&[2, 3]),
            SpSpec::Series(vec![SpSpec::Edge(1), SpSpec::MultiEdge(vec![5, 6])]),
        ]);
        let (g, d_truth) = build_sp(&spec);
        let d_rec = reduce(&g).unwrap().into_decomposition().unwrap();
        assert_eq!(
            nonprop_intervals(&g, &d_truth),
            nonprop_intervals(&g, &d_rec)
        );
    }
}
