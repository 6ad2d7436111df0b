//! Fault-injection oracle for checkpoint/restore: kill a run at a random
//! step, snapshot it, restore the snapshot into a fresh engine, and pin the
//! resumed run's observable outcome to an uninterrupted run's.
//!
//! The network is a deterministic Kahn network, so it is *confluent*: every
//! fair schedule reaches the same terminal configuration.  A restored run
//! is just another fair schedule of the same network whose prefix happens
//! to have executed in a previous incarnation — so its verdict, per-edge
//! data/dummy counts and sink firings must be **identical** to never having
//! been killed at all.  (`steps` is schedule-*dependent* bookkeeping and is
//! deliberately not part of the oracle.)
//!
//! The snapshot additionally makes a byte-level round trip on every case,
//! so the versioned wire codec is exercised under the full variety of
//! generated states (staged messages, EOS markers, deadlocked residue).

use fila::prelude::*;
use fila::runtime::{AvoidanceMode, PropagationTrigger};
use fila::workloads::generators::{
    deep_buffer_graph, layered_dag, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};
use proptest::prelude::*;

/// One generated kill/restore case.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Random series-parallel DAG, protected by a planner-produced plan.
    Sp { seed: u64 },
    /// Random CS4 ladder, protected by a planner-produced plan.
    Ladder { seed: u64 },
    /// Layered random DAG run without avoidance, so snapshots of runs that
    /// end **deadlocked** are restored and must re-deadlock identically.
    Layered { seed: u64 },
    /// The deep-buffer family (capacities 16..=256, hundreds of inputs, most
    /// nodes on the default `Broadcast`): a kill finds dozens of messages
    /// buffered on a channel, and the snapshot is also restored **into the
    /// pool**, whose rings then open on long packed containers.
    Deep { seed: u64 },
}

fn scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        (0u64..1 << 48).prop_map(|seed| Scenario::Sp { seed }),
        (0u64..1 << 48).prop_map(|seed| Scenario::Ladder { seed }),
        (0u64..1 << 48).prop_map(|seed| Scenario::Layered { seed }),
    ]
}

/// Deterministic per-(seed, node) parameter derivation.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The canonical periodic filter with a seed-derived period per node;
/// shared with the engine-equivalence tests.
fn with_filters(g: &Graph, seed: u64) -> Periodic<'_> {
    Periodic::from_fn(g, |n| 1 + mix(seed ^ (0x9e37 + n.index() as u64)) % 5)
}

fn build(scenario: Scenario) -> (Graph, Option<fila::avoidance::AvoidancePlan>, u64) {
    match scenario {
        Scenario::Deep { seed } => {
            let (g, cyclic) = deep_buffer_graph(seed);
            let algorithm = if mix(seed ^ 1) % 2 == 0 {
                Algorithm::Propagation
            } else {
                Algorithm::NonPropagation
            };
            let plan = cyclic.then(|| Planner::new(&g).algorithm(algorithm).plan().unwrap());
            (g, plan, 300 + mix(seed ^ 2) % 900)
        }
        Scenario::Sp { seed } => {
            let (g, _) = random_sp_dag(&GeneratorConfig {
                target_edges: 12 + (mix(seed) % 24) as usize,
                max_fanout: 3,
                capacity_range: (1, 6),
                seed,
            });
            let algorithm = if mix(seed ^ 1) % 2 == 0 {
                Algorithm::Propagation
            } else {
                Algorithm::NonPropagation
            };
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            (g, Some(plan), 40 + mix(seed ^ 2) % 60)
        }
        Scenario::Ladder { seed } => {
            let g = random_ladder(&LadderConfig {
                rungs: 1 + (mix(seed) % 6) as usize,
                capacity_range: (1, 6),
                reverse_probability: 0.3,
                seed,
            });
            let algorithm = if mix(seed ^ 1) % 2 == 0 {
                Algorithm::Propagation
            } else {
                Algorithm::NonPropagation
            };
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            (g, Some(plan), 40 + mix(seed ^ 2) % 60)
        }
        Scenario::Layered { seed } => {
            let g = layered_dag(
                2 + (mix(seed) % 3) as usize,
                1 + (mix(seed ^ 1) % 3) as usize,
                1 + mix(seed ^ 2) % 3,
                seed,
            );
            (g, None, 40 + mix(seed ^ 3) % 60)
        }
    }
}

/// Kills one simulator run at a seed-derived step, round-trips the snapshot
/// through bytes, restores it, and pins the resumed outcome to the
/// uninterrupted run's.
fn assert_restore_equivalent(scenario: Scenario) -> Result<(), TestCaseError> {
    let (g, plan, inputs) = build(scenario);
    let (Scenario::Sp { seed }
    | Scenario::Ladder { seed }
    | Scenario::Layered { seed }
    | Scenario::Deep { seed }) = scenario;
    let deep = matches!(scenario, Scenario::Deep { .. });
    let topo = if deep {
        Periodic::from_fn(&g, |n| {
            [1, 1, 1, 2, 3][(mix(seed ^ (0x9e37 + n.index() as u64)) % 5) as usize]
        })
    } else {
        with_filters(&g, seed)
    };
    let sim = {
        let s = Simulator::new(&topo);
        match &plan {
            Some(p) => s.with_plan(p),
            None => s,
        }
    };
    // The reference: the same network never killed.
    let reference = sim.run(inputs);
    let kill_at = mix(seed ^ 6) % if deep { 20_000 } else { 500 };
    let (resumed, snapshot) = match sim.run_with_checkpoint(inputs, kill_at) {
        CheckpointOutcome::Finished(report) => {
            // The run outran the kill point; it must literally *be* the
            // reference run.
            prop_assert_eq!(&report.per_edge_data, &reference.per_edge_data);
            prop_assert_eq!(report.steps, reference.steps);
            prop_assert!(report.resumed_from.is_none());
            return Ok(());
        }
        CheckpointOutcome::Killed(snapshot) => {
            // The wire codec must reproduce the snapshot exactly.
            let bytes = snapshot.to_bytes();
            let decoded = JobSnapshot::from_bytes(&bytes).expect("own bytes decode");
            prop_assert_eq!(&decoded, snapshot.as_ref());
            prop_assert!(snapshot.steps <= kill_at.max(1));
            let resumed = sim.resume(&decoded);
            prop_assert!(resumed.is_ok(), "restore failed: {:?}", resumed.err());
            (resumed.unwrap(), decoded)
        }
    };
    // The oracle: a killed-and-restored run is observationally equivalent
    // to never having been killed (cumulative counts, same verdict).
    prop_assert_eq!(reference.completed, resumed.completed);
    prop_assert_eq!(reference.deadlocked, resumed.deadlocked);
    prop_assert_eq!(reference.data_messages, resumed.data_messages);
    prop_assert_eq!(reference.dummy_messages, resumed.dummy_messages);
    prop_assert_eq!(reference.sink_firings, resumed.sink_firings);
    prop_assert_eq!(&reference.per_edge_data, &resumed.per_edge_data);
    prop_assert_eq!(&reference.per_edge_dummies, &resumed.per_edge_dummies);
    prop_assert!(resumed.resumed_from.is_some());
    if deep {
        // The same cut resumed by the pooled engine, at a seed-derived
        // worker count and batch size (slice budget and container limit).
        let batches = [1, 4, 64, 1 + (mix(seed ^ 5) % 64) as u32];
        let pool = SharedPool::with(PoolOptions {
            workers: 1 + (mix(seed ^ 4) % 4) as usize,
            batch: batches[(mix(seed ^ 7) % 4) as usize],
            ..PoolOptions::default()
        });
        let mode = plan.map_or(AvoidanceMode::Disabled, AvoidanceMode::plan);
        let pooled = pool.resume_full(&topo, mode, PropagationTrigger::default(), &snapshot, None);
        prop_assert!(pooled.is_ok(), "pool restore failed: {:?}", pooled.err());
        let pooled = pooled.unwrap().wait();
        prop_assert_eq!(reference.completed, pooled.completed);
        prop_assert_eq!(reference.sink_firings, pooled.sink_firings);
        prop_assert_eq!(&reference.per_edge_data, &pooled.per_edge_data);
        prop_assert_eq!(&reference.per_edge_dummies, &pooled.per_edge_dummies);
        prop_assert_eq!(&reference.per_node_firings, &pooled.per_node_firings);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn killed_and_restored_run_matches_uninterrupted_run(s in scenario()) {
        assert_restore_equivalent(s)?;
    }

    #[test]
    fn killed_deep_buffer_run_restores_in_both_engines(seed in 0u64..1 << 48) {
        assert_restore_equivalent(Scenario::Deep { seed })?;
    }
}

/// A deterministic deadlock-side case (beyond whatever the generator
/// produces): unprotected Fig. 2 deadlocks, and a snapshot taken mid-run
/// restores to the **same** deadlock verdict and counts.
#[test]
fn deadlocked_run_restores_to_same_deadlock() {
    use fila::runtime::filters::Predicate;
    let g = fila::workloads::figures::fig2_triangle(2);
    let a = g.node_by_name("A").unwrap();
    let topo = Topology::from_graph(&g).with(a, || Predicate::new(|_seq, out| out == 0));
    let sim = Simulator::new(&topo);
    let reference = sim.run(600);
    assert!(reference.deadlocked, "{reference:?}");
    let mut restored_any = false;
    for kill_at in [1, 3, 10, 50] {
        if let CheckpointOutcome::Killed(snapshot) = sim.run_with_checkpoint(600, kill_at) {
            let resumed = sim.resume(&snapshot).expect("same plan restores");
            assert!(resumed.deadlocked);
            assert_eq!(reference.per_edge_data, resumed.per_edge_data);
            assert_eq!(reference.per_edge_dummies, resumed.per_edge_dummies);
            restored_any = true;
        }
    }
    assert!(restored_any, "every kill point outran the deadlock");
}

/// Restoring under a *different* plan than the snapshot was captured under
/// is a [`RestoreError::PlanMismatch`] — never a silent re-plan.
#[test]
fn drifted_plan_is_rejected_not_replanned() {
    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: 14,
        max_fanout: 3,
        capacity_range: (2, 5),
        seed: 11,
    });
    let topo = with_filters(&g, 11);
    let prop_plan = Planner::new(&g)
        .algorithm(Algorithm::Propagation)
        .plan()
        .unwrap();
    let nonprop_plan = Planner::new(&g)
        .algorithm(Algorithm::NonPropagation)
        .plan()
        .unwrap();
    let sim = Simulator::new(&topo).with_plan(&prop_plan);
    let snapshot = match sim.run_with_checkpoint(200, 5) {
        CheckpointOutcome::Killed(s) => s,
        CheckpointOutcome::Finished(_) => panic!("kill point 5 must interrupt"),
    };
    // Same topology, different plan: the certification changed.
    let other = Simulator::new(&topo).with_plan(&nonprop_plan);
    assert!(matches!(
        other.resume(&snapshot),
        Err(RestoreError::PlanMismatch(_))
    ));
    // No plan at all is drift too.
    let unplanned = Simulator::new(&topo);
    assert!(matches!(
        unplanned.resume(&snapshot),
        Err(RestoreError::PlanMismatch(_))
    ));
    // The exact original plan restores fine.
    assert!(sim.resume(&snapshot).is_ok());
}

/// Restoring onto a topologically different graph (extra edge, different
/// capacities) is a [`RestoreError::PlanMismatch`] on the labeled
/// topology fingerprint.
#[test]
fn drifted_topology_is_rejected() {
    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: 12,
        max_fanout: 3,
        capacity_range: (2, 5),
        seed: 23,
    });
    let topo = with_filters(&g, 23);
    let sim = Simulator::new(&topo);
    let snapshot = match sim.run_with_checkpoint(200, 5) {
        CheckpointOutcome::Killed(s) => s,
        CheckpointOutcome::Finished(_) => panic!("kill point 5 must interrupt"),
    };
    let (g2, _) = random_sp_dag(&GeneratorConfig {
        target_edges: 12,
        max_fanout: 3,
        capacity_range: (2, 5),
        seed: 24,
    });
    let topo2 = with_filters(&g2, 23);
    let other = Simulator::new(&topo2);
    assert!(matches!(
        other.resume(&snapshot),
        Err(RestoreError::PlanMismatch(_))
    ));
}

/// What a plan's shape may not move, recorded at the parent of E33 (which
/// left a plan with a protocol and its intervals only): the digests of
/// Fig. 3's two plans, an all-infinite plan and `Disabled`, and an FNV-1a
/// hash over the FILASNAP bytes of a kill-point snapshot of a planned,
/// filtered job — the digest is inside those bytes.
#[test]
fn plan_digests_and_snapshot_bytes_are_pinned() {
    use fila::avoidance::{AvoidancePlan, IntervalMap};
    use fila::runtime::checkpoint::plan_digest;
    let g = fila::workloads::figures::fig3_cycle();
    let planned = |algorithm| Planner::new(&g).algorithm(algorithm).plan().unwrap();
    let prop = AvoidanceMode::plan(planned(Algorithm::Propagation));
    let nonprop = AvoidanceMode::plan(planned(Algorithm::NonPropagation));
    let infinite = AvoidancePlan::new(&g, Algorithm::Propagation, IntervalMap::for_graph(&g));
    for (mode, pinned) in [
        (prop, Some(0x9755_134e_30fb_bb9f)),
        (nonprop, Some(0x95d7_f31f_fbf8_de72)),
        (AvoidanceMode::plan(infinite), Some(0x42b3_be51_e9ec_1cf1)),
        (AvoidanceMode::Disabled, None),
    ] {
        assert_eq!(plan_digest(&mode), pinned, "{mode:?}");
    }

    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: 14,
        max_fanout: 3,
        capacity_range: (2, 5),
        seed: 11,
    });
    let plan = Planner::new(&g)
        .algorithm(Algorithm::NonPropagation)
        .plan()
        .unwrap();
    let topo = with_filters(&g, 11);
    let sim = Simulator::new(&topo).with_plan(&plan);
    let CheckpointOutcome::Killed(snapshot) = sim.run_with_checkpoint(200, 25) else {
        panic!("kill point 25 must interrupt a 200-input run");
    };
    let bytes = snapshot.to_bytes();
    let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!((bytes.len(), fnv1a), (1016, 0x010d_7e62_300f_20fc));
}
