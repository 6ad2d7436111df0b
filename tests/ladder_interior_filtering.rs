//! Regression suite for the **resolved** ladder Non-Propagation
//! interior-filtering unsoundness (E14 observation, fixed in E17; DESIGN.md
//! "Resolved: interior filtering vs Non-Propagation").
//!
//! Until the fix, the CS4 ladder Non-Propagation intervals divided each
//! escape slack by the run's hop count (the paper's `L_o / h` recurrence),
//! which assumes interior nodes re-emit the data they receive.  Under
//! aggressive per-node *interior* filtering a node relays at most one
//! message per `[e]` messages reaching it, the inter-message gap multiplies
//! per hop, and 16+-rung random ladders deadlocked — engine-independently
//! (Simulator and the pooled engine agreed), so it was a property of the
//! computed intervals, not of any runtime.  This file used to pin the
//! deficient behaviour with `deadlocked` assertions; the filtering-robust
//! integer-root bound (`fila_avoidance::ladder_nonprop`) flipped them to
//! `completed`, and the envelope is widened well past the old failure
//! boundary (48- and 64-rung ladders, more seeds, mixed per-node rates) so
//! both sides of the former cliff stay covered.

use fila::avoidance::verify_plan;
use fila::prelude::*;
use fila::workloads::generators::{random_ladder, LadderConfig};

const INTERIOR_RATE: u64 = 16;
const INPUTS: u64 = 500;

fn ladder(rungs: usize, seed: u64) -> Graph {
    random_ladder(&LadderConfig {
        rungs,
        capacity_range: (2, 8),
        reverse_probability: 0.3,
        seed,
    })
}

/// Every node filters 15/16 of its traffic — the aggressive interior
/// filtering that used to defeat the ladder Non-Propagation intervals.
fn interior_filtered(g: &Graph) -> Periodic<'_> {
    Periodic::from_fn(g, |_| INTERIOR_RATE)
}

/// Only the fork (single source) filters; interior nodes broadcast.  This
/// is the scenario of the paper's Figs. 1–3, which every planner algorithm
/// protected even before the fix.
fn fork_filtered(g: &Graph) -> Periodic<'_> {
    let source = g.single_source().unwrap();
    Periodic::from_fn(g, |n| if n == source { INTERIOR_RATE } else { 1 })
}

#[test]
fn nonprop_interior_filtering_completes_on_large_ladders() {
    // FLIPPED: every one of these (rungs, seed) pairs deadlocked under the
    // paper's division bound — they were the pinned failing-case harness.
    // With the filtering-robust root bound they must complete, on both
    // exact-verdict engines (the deadlock was engine-independent, so the
    // fix must be too).
    for (rungs, seed) in [(16usize, 0u64), (16, 1), (24, 0), (32, 2)] {
        let g = ladder(rungs, seed);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let topo = interior_filtered(&g);
        let report = Simulator::new(&topo).with_plan(&plan).run(INPUTS);
        assert!(
            report.completed,
            "rungs={rungs} seed={seed}: previously-deadlocking case regressed: {report:?}"
        );
        assert!(!report.deadlocked);
        assert!(report.dummy_messages > 0, "the rescue is dummy-driven");

        let pooled = SharedPool::new(2)
            .submit_with(&topo, AvoidanceMode::plan(plan), INPUTS)
            .wait();
        assert!(pooled.completed, "rungs={rungs} seed={seed}: {pooled:?}");
    }
}

#[test]
fn nonprop_interior_filtering_completes_beyond_the_old_boundary() {
    // Widened envelope: sizes far past the old 16-rung failure cliff and
    // fresh seeds on both sides of it.
    for (rungs, seed) in [
        (16usize, 2u64),
        (16, 3),
        (24, 1),
        (32, 0),
        (48, 0),
        (48, 1),
        (64, 0),
        (64, 7),
    ] {
        let g = ladder(rungs, seed);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let topo = interior_filtered(&g);
        let report = Simulator::new(&topo).with_plan(&plan).run(INPUTS);
        assert!(report.completed, "rungs={rungs} seed={seed}: {report:?}");
    }
}

#[test]
fn nonprop_survives_mixed_interior_rates() {
    // Heterogeneous per-node filtering (a deterministic mix of broadcast,
    // mild and aggressive periods, including rates coarser than the old
    // failure rate) — the robustness claim is per-plan, not per-rate.
    for (rungs, seed) in [(24usize, 0u64), (48, 2), (64, 1)] {
        let g = ladder(rungs, seed);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let rates = [1u64, 3, 16, 7, 32, 2];
        let topo =
            Periodic::from_fn(&g, |n| rates[n.index() % rates.len()]);
        let report = Simulator::new(&topo).with_plan(&plan).run(INPUTS);
        assert!(report.completed, "rungs={rungs} seed={seed}: {report:?}");
    }
}

#[test]
fn the_paper_division_bound_still_deadlocks_without_the_fix() {
    // Anti-regression for the regression: reconstruct the *old* plan (the
    // paper's `L/h` division applied to the robust plan's cycle structure
    // cannot be rebuilt exactly from outside the planner, but its defining
    // failure can) by loosening every finite interval of the fixed plan to
    // the paper's ratio-sized value via interval scaling.  Squaring the
    // robust interval reproduces the unsound magnitude on multi-hop runs
    // (root² ≈ ratio for the sizes here); the loosened plan must deadlock
    // on a case the fixed plan completes — demonstrating the deadlock was
    // a property of the loose intervals, and the fix is what removed it.
    use fila::avoidance::interval::IntervalMap;
    use fila::avoidance::AvoidancePlan;
    let (rungs, seed) = (24usize, 0u64);
    let g = ladder(rungs, seed);
    let fixed = Planner::new(&g)
        .algorithm(Algorithm::NonPropagation)
        .plan()
        .unwrap();
    let mut loose = IntervalMap::for_graph(&g);
    for (e, iv) in fixed.intervals().iter() {
        let widened = match iv.finite() {
            Some(v) => DummyInterval::Finite((v * v).max(v + 2)),
            None => DummyInterval::Infinite,
        };
        loose.set(e, widened);
    }
    let loose_plan = AvoidancePlan::new(&g, Algorithm::NonPropagation, loose);
    let topo = interior_filtered(&g);
    let bad = Simulator::new(&topo).with_plan(&loose_plan).run(INPUTS);
    assert!(bad.deadlocked, "loosened intervals must still wedge: {bad:?}");
    assert!(!bad.blocked.is_empty(), "deadlock report names blocked nodes");
    let good = Simulator::new(&topo).with_plan(&fixed).run(INPUTS);
    assert!(good.completed, "{good:?}");
}

#[test]
fn fixed_plans_still_verify_safe_against_the_cycle_level_definition() {
    // The robust intervals are a *tightening*: `verify_plan` must report
    // them safe w.r.t. the (equally fixed) exhaustive cycle-level bound.
    for (rungs, seed) in [(6usize, 0u64), (6, 1), (8, 2)] {
        let g = ladder(rungs, seed);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let v = verify_plan(&g, &plan).unwrap();
        assert!(v.safe, "rungs={rungs} seed={seed}: {}", v.summary());
    }
}

#[test]
fn nonprop_fork_only_filtering_stays_safe_at_every_size() {
    // The paper's own scenario — protected before the fix — must keep
    // working after it.
    for (rungs, seed) in [(16usize, 0u64), (24, 0), (32, 2), (64, 0)] {
        let g = ladder(rungs, seed);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let topo = fork_filtered(&g);
        let report = Simulator::new(&topo).with_plan(&plan).run(INPUTS);
        assert!(report.completed, "rungs={rungs} seed={seed}: {report:?}");
    }
}

#[test]
fn propagation_handles_the_same_interior_filtering() {
    // The Propagation intervals always protected these workloads (dummies
    // are forwarded at arrival rate, so interior filtering never decimates
    // them); unchanged by the fix.
    for (rungs, seed) in [(16usize, 0u64), (24, 0), (32, 2)] {
        let g = ladder(rungs, seed);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan()
            .unwrap();
        let topo = interior_filtered(&g);
        let report = Simulator::new(&topo).with_plan(&plan).run(INPUTS);
        assert!(report.completed, "rungs={rungs} seed={seed}: {report:?}");
    }
}

#[test]
fn small_ladders_keep_completing() {
    // The small side of the old envelope (never affected) stays green.
    for seed in [0u64, 1, 2] {
        let g = ladder(8, seed);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let topo = interior_filtered(&g);
        let report = Simulator::new(&topo).with_plan(&plan).run(INPUTS);
        assert!(report.completed, "seed={seed}: {report:?}");
    }
}
