//! The adaptive runtime end to end: filter-drift detection, certified plan
//! hot-swap, and the graceful-degradation response ladder.
//!
//! Three layers of oracle:
//!
//! 1. **Rebase soundness** (proptest): a snapshot killed at a random step
//!    under plan A, rebased onto plan B (certified for the *observed*
//!    profile), resumes on the shared pool to exactly
//!    the counts of an uninterrupted continuation under plan B from the
//!    same barrier cut — the simulator's resume of the same rebased
//!    snapshot is the reference schedule.
//! 2. **Hot-swap path**: a drifting planned job on a busy shared pool is
//!    detected, migrated live (the pool and a bystander job keep running),
//!    and finishes with the verdict and per-edge data counts of an
//!    uninterrupted run of the executed profile.
//! 3. **Cancel path**: a drifting bare job on a dense unplannable graph is
//!    detected, fails re-certification at both ladder budgets, and lands
//!    in [`AdaptiveOutcome::DriftCancelled`] with the offending node and
//!    its observed rate.

use std::sync::Arc;
use std::time::Duration;

use fila::prelude::*;
use fila::runtime::checkpoint::plan_digest;
use fila::runtime::{AvoidanceMode, PropagationTrigger};
use fila::service::drift::DriftOffender;
use fila::workloads::figures::fig2_triangle;
use fila::workloads::generators::{random_sp_dag, GeneratorConfig};
use fila::workloads::jobs::dense_drifter;
use proptest::prelude::*;

/// Deterministic per-seed parameter derivation (shared idiom with the
/// snapshot-equivalence suite).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A drift-tuned supervisor policy: windows and polls small enough that a
/// multi-thousand-input job is always detected long before it completes.
fn tight_policy() -> DriftPolicy {
    DriftPolicy {
        window: 16,
        breaches: 2,
        poll: Duration::from_micros(50),
        ..DriftPolicy::default()
    }
}

/// Oracle for one rebase case: kill a run of the *executed* (drifted)
/// topology under the declared-profile plan A, rebase the snapshot onto
/// plan B (certified for the executed profile), and resume it twice — on
/// the reference simulator and on a busy shared pool via
/// [`SharedPool::resume_full`].  Both continuations must agree with
/// each other on verdict, per-edge data counts and sink firings: the
/// hot-swapped pool job *is* an uninterrupted run under the swapped plan
/// from the barrier cut.
fn assert_swap_equivalent(seed: u64) -> Result<(), TestCaseError> {
    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: 10 + (mix(seed) % 16) as usize,
        max_fanout: 3,
        capacity_range: (2, 6),
        seed,
    });
    // Declared: fork-filtering with a seed-derived period.  Executed: the
    // same profile drifted to double the filtering.
    let source = g.single_source().unwrap();
    let declared: Vec<u64> = g
        .node_ids()
        .map(|n| if n == source { 2 + mix(seed ^ 1) % 3 } else { 1 })
        .collect();
    let executed: Vec<u64> = declared.iter().map(|&p| if p > 1 { p * 2 } else { 1 }).collect();
    let topo = Periodic::new(&g, executed.clone());
    let inputs = 60 + mix(seed ^ 2) % 80;

    // Captured under a Propagation plan (safe for pure fork filtering),
    // swapped onto a Non-Propagation plan certified for the executed
    // profile — the digests genuinely differ, so the rebase is load-
    // bearing, not a same-plan no-op.
    let plan_a = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan()
            .expect("SP DAGs always have a Propagation plan"),
    );
    let plan_b = Planner::new(&g)
        .algorithm(Algorithm::NonPropagation)
        .certify(&executed)
        .expect("the drifted profile still certifies under Non-Propagation")
        .plan;
    let mode_b = AvoidanceMode::Plan(Arc::clone(&plan_b));

    let sim = Simulator::new(&topo).with_shared_plan(Arc::clone(&plan_a));
    let kill_at = 1 + mix(seed ^ 3) % 200;
    let CheckpointOutcome::Killed(snapshot) = sim.run_with_checkpoint(inputs, kill_at) else {
        return Ok(()); // the run outran the kill point; nothing to swap
    };

    // Reference: the simulator's continuation of the rebased snapshot
    // under plan B.
    let mut rebased = snapshot.clone();
    rebased
        .rebase(&topo, &mode_b)
        .expect("the snapshot fits the topology");
    prop_assert_eq!(rebased.plan_digest, plan_digest(&mode_b));
    let reference = Simulator::new(&topo)
        .with_shared_plan(Arc::clone(&plan_b))
        .resume(&rebased)
        .expect("rebased snapshot passes validation under plan B");

    // Subject: the pool's resume of another rebased copy of the *original*
    // snapshot, with a bystander keeping the workers busy.
    let pool = SharedPool::new(2);
    let bystander_g = fig2_triangle(4);
    let bystander = pool.submit(&Topology::from_graph(&bystander_g), 2_000);
    let mut swapped_in = snapshot.clone();
    swapped_in
        .rebase(&topo, &mode_b)
        .expect("the snapshot fits the topology");
    let swapped = pool
        .resume_full(
            &topo,
            mode_b,
            PropagationTrigger::default(),
            &swapped_in,
            None,
        )
        .expect("rebased swap restores")
        .wait();
    prop_assert!(bystander.wait().completed);

    prop_assert_eq!(reference.completed, swapped.completed);
    prop_assert_eq!(reference.deadlocked, swapped.deadlocked);
    prop_assert_eq!(&reference.per_edge_data, &swapped.per_edge_data);
    prop_assert_eq!(reference.sink_firings, swapped.sink_firings);
    prop_assert_eq!(swapped.resumed_from, Some(snapshot.steps));
    prop_assert!(reference.completed, "{:?}", reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn hot_swapped_resume_matches_uninterrupted_run_under_new_plan(seed in 0u64..1 << 48) {
        assert_swap_equivalent(seed)?;
    }
}

#[test]
fn unauthorised_or_mismatched_swaps_fail_closed() {
    let g = fig2_triangle(4);
    let executed = vec![4u64, 1, 1];
    let topo = Periodic::new(&g, executed.clone());
    let plan_a = Arc::new(Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap());
    let plan_b = Arc::new(Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap());
    let mode_b = AvoidanceMode::Plan(Arc::clone(&plan_b));
    let sim = Simulator::new(&topo).with_shared_plan(Arc::clone(&plan_a));
    let CheckpointOutcome::Killed(snapshot) = sim.run_with_checkpoint(300, 20) else {
        panic!("kill point 20 must interrupt a 300-input run");
    };

    // Without a rebase, a plan change is still a PlanMismatch.
    let pool = SharedPool::new(1);
    assert!(matches!(
        pool.resume_full(&topo, mode_b.clone(), PropagationTrigger::default(), &snapshot, None),
        Err(RestoreError::PlanMismatch(_))
    ));
    // Rebased onto the new plan, the snapshot swaps fine.
    let mut swapped_in = snapshot.clone();
    swapped_in
        .rebase(&topo, &mode_b)
        .expect("the snapshot fits the topology");
    let handle = pool
        .resume_full(
            &topo,
            mode_b,
            PropagationTrigger::default(),
            &swapped_in,
            None,
        )
        .expect("rebased swap restores");
    assert!(handle.wait().completed);
}

#[test]
fn resume_validates_gaps_against_the_plan_intervals() {
    let g = fig2_triangle(4);
    let declared = vec![2, 1, 1];
    let topo = Periodic::new(&g, declared.clone());
    let plan = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap(),
    );
    let mode = AvoidanceMode::Plan(Arc::clone(&plan));
    let sim = Simulator::new(&topo).with_shared_plan(Arc::clone(&plan));
    let CheckpointOutcome::Killed(mut snapshot) = sim.run_with_checkpoint(300, 20) else {
        panic!("kill point 20 must interrupt a 300-input run");
    };

    // Corrupt one gap counter beyond its edge's certified interval: the
    // restore must reject it (a gap at or past the threshold could emit a
    // dummy burst the plan never certified).
    let a = g.node_by_name("A").unwrap();
    let interval = plan
        .interval(g.out_edges(a)[0])
        .finite()
        .expect("fig2 fork edge has a finite interval");
    snapshot.nodes[a.index()].gaps[0] = interval;
    let pool = SharedPool::new(1);
    match pool.resume_full(&topo, mode.clone(), PropagationTrigger::default(), &snapshot, None) {
        Err(RestoreError::GapExceedsInterval { node, gap, interval: i, .. }) => {
            assert_eq!(node, a.index() as u32);
            assert_eq!(gap, interval);
            assert_eq!(i, interval);
        }
        other => panic!("expected GapExceedsInterval, got {other:?}"),
    }

    // A rebase onto the same plan clamps the runaway gap back into range,
    // after which the restore passes.
    snapshot.rebase(&topo, &mode).unwrap();
    assert_eq!(snapshot.nodes[a.index()].gaps[0], interval - 1);
    assert!(pool
        .resume_full(&topo, mode, PropagationTrigger::default(), &snapshot, None)
        .is_ok());
}

#[test]
fn drifting_planned_job_is_hot_swapped_live() {
    let svc = JobService::new(ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    });
    let g = fig2_triangle(4);
    // Declared fork period 2, executed period 4: half the declared rate,
    // well past the detector's tolerance.  Enough inputs that detection
    // always beats completion (a Non-Propagation plan keeps the drifting
    // job running, never wedged) — sized for a single-core release-mode
    // host, where the supervisor thread only gets a scheduling quantum
    // every few milliseconds while the workers churn.
    let inputs = 300_000;
    let spec = JobSpec::new(g.clone(), FilterSpec::Fork(2), inputs)
        .with_actual_filters(FilterSpec::Fork(4));

    // A bystander tenant shares the pool across the whole swap.
    let bystander =
        JobSpec::new(fig2_triangle(4), FilterSpec::Fork(2), 20_000);
    let bystander_ticket = svc.submit(bystander).unwrap();

    let ticket = svc.submit(spec.clone()).unwrap();
    let outcome = svc.supervise(&spec, ticket, &tight_policy());
    let AdaptiveOutcome::HotSwapped { outcome, swap } = outcome else {
        panic!("expected a hot-swap, got {outcome:?}");
    };
    assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
    assert_eq!(outcome.resumed_from, Some(swap.snapshot_steps));
    assert!(swap.snapshot_steps > 0);
    // The detector convicted the drifted fork, not an innocent node.
    let a = g.node_by_name("A").unwrap();
    assert_eq!(swap.offenders.len(), 1, "{:?}", swap.offenders);
    assert_eq!(swap.offenders[0].node, a.index() as u32);
    assert_eq!(swap.offenders[0].declared_period, 2);
    assert!(swap.offenders[0].observed_period >= 4, "{:?}", swap.offenders);
    assert!(swap.observed_periods[a.index()] >= 4);
    assert_eq!(swap.algorithm, Algorithm::NonPropagation);

    // Equivalence: cumulative counts equal an uninterrupted run of the
    // executed profile (data counts are a property of the Kahn network,
    // not of the protecting plan).
    let executed_topo = spec.program();
    let plan = Planner::new(&g)
        .algorithm(Algorithm::NonPropagation)
        .certify(&swap.observed_periods)
        .unwrap()
        .plan;
    let reference = Simulator::new(&executed_topo).with_plan(&plan).run(inputs);
    assert!(reference.completed);
    assert_eq!(outcome.report.per_edge_data, reference.per_edge_data);
    assert_eq!(outcome.report.sink_firings, reference.sink_firings);

    // The co-tenant never noticed.
    assert_eq!(bystander_ticket.wait().verdict, JobVerdict::Completed);

    let stats = svc.stats();
    assert_eq!(stats.drift_detected, 1);
    assert_eq!(stats.hot_swapped, 1);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.drift_cancelled, 0);
    assert_eq!(stats.snapshots, 1);
    assert_eq!(stats.restores, 1);
    assert_eq!(stats.cancelled, 1); // the retired first incarnation
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn unrescuable_drifter_lands_in_drift_cancelled() {
    // A small cycle budget keeps both certification rejections (standard
    // and escalated) far quicker than the job's runtime, so the cancel
    // rung deterministically lands while the drifter is still mid-flight.
    let svc = JobService::new(ServiceConfig {
        workers: 2,
        cycle_bound: 64,
        ..ServiceConfig::default()
    });
    // Bare dense drifter: buffers ≥ inputs so the bare filtered run never
    // wedges, a graph no cycle budget can plan, and an executed profile
    // (fork period 2) drifting below the declared broadcast.  Sized, like
    // the live hot-swap test, for a single-core release host where the
    // supervisor only polls every few milliseconds under contention.
    let g = dense_drifter(16, 16_384);
    let spec = JobSpec::new(g.clone(), FilterSpec::Broadcast, 16_384)
        .unplanned()
        .with_actual_filters(FilterSpec::Fork(2));
    let ticket = svc.submit(spec.clone()).unwrap();
    let outcome = svc.supervise(&spec, ticket, &tight_policy());
    let AdaptiveOutcome::DriftCancelled { offenders, observed_periods, reason, outcome } =
        outcome
    else {
        panic!("expected DriftCancelled, got {outcome:?}");
    };
    assert_eq!(outcome.verdict, JobVerdict::Cancelled, "{outcome:?}");
    // The offender is the drifted source, with its halved rate observed.
    let x = g.node_by_name("x").unwrap();
    assert!(
        offenders.contains(&DriftOffender {
            node: x.index() as u32,
            declared_period: 1,
            observed_period: 2,
        }),
        "{offenders:?}"
    );
    assert_eq!(observed_periods[x.index()], 2);
    assert!(reason.contains("cycle"), "{reason}");

    let stats = svc.stats();
    assert_eq!(stats.drift_detected, 1);
    assert_eq!(stats.hot_swapped, 0);
    assert_eq!(stats.quarantined, 1); // rung 2 was attempted
    assert_eq!(stats.drift_cancelled, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn honest_supervised_jobs_settle_untouched() {
    // Supervision of a job that does *not* drift is free of side effects:
    // the job settles normally and no ladder counter moves.
    let svc = JobService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::new(fig2_triangle(4), FilterSpec::Fork(2), 2_000);
    let ticket = svc.submit(spec.clone()).unwrap();
    let outcome = svc.supervise(&spec, ticket, &tight_policy());
    let AdaptiveOutcome::Settled(outcome) = outcome else {
        panic!("expected Settled, got {outcome:?}");
    };
    assert_eq!(outcome.verdict, JobVerdict::Completed);
    let stats = svc.stats();
    assert_eq!(stats.drift_detected, 0);
    assert_eq!(stats.hot_swapped, 0);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.drift_cancelled, 0);
    assert_eq!(stats.snapshots, 0);
}
