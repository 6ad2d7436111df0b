//! Property-based equivalence of the deterministic simulator and the pooled
//! work-stealing engine: the pool is pinned to the model's worklist, the
//! workspace's reference schedule.
//!
//! Both engines implement the same Kahn-style per-node semantics
//! (acceptance rule, dummy wrappers, per-channel independent delivery) over
//! bounded channels.  Deterministic node behaviours make such a network
//! *confluent*: every fair schedule — including every interleaving of the
//! pool's workers — reaches the same terminal configuration.  So for any
//! topology and any deterministic filtering, the pooled engine must agree
//! with the simulator on completion, the **exact** deadlock verdict (the
//! pool's parked-worker detection has no timeout to hide behind), and the
//! exact per-channel data and dummy message counts, at every worker count.

use fila::prelude::*;
use fila::workloads::generators::{
    deep_buffer_graph, layered_dag, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};
use proptest::prelude::*;

/// One generated equivalence case.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Random series-parallel DAG, protected by a planner-produced plan.
    Sp { seed: u64 },
    /// Random CS4 ladder, protected by a planner-produced plan.
    Ladder { seed: u64 },
    /// Layered random DAG (generally not CS4), run without avoidance so the
    /// exact deadlock path of both engines is exercised too.
    Layered { seed: u64 },
    /// The deep-buffer family: capacities 16..=256 and a few hundred
    /// inputs, so containers fill to the batch size, data runs are up
    /// to 64 long, are cut by the slice budget and are delivered in parts —
    /// none of which a capacity of 1..=6 ever produces.  Pipelines,
    /// broadcast fan-out trees, and planned SP DAGs and ladders whose
    /// period-1 nodes keep the default `Broadcast` (and so relay runs).
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

/// The canonical periodic filter with a seed-derived period per node
/// (period 1 = broadcast, larger periods filter most of the stream).
fn with_filters(g: &Graph, seed: u64) -> Periodic<'_> {
    Periodic::from_fn(g, |n| 1 + mix(seed ^ (0x9e37 + n.index() as u64)) % 5)
}

/// The same periodic filter on two nodes in five; the other three keep the
/// default `Broadcast`, whose runs the pooled engine relays whole.
fn with_sparse_filters(g: &Graph, seed: u64) -> Periodic<'_> {
    Periodic::from_fn(g, |n| {
        [1, 1, 1, 2, 3][(mix(seed ^ (0x9e37 + n.index() as u64)) % 5) as usize]
    })
}

/// Runs one scenario through the simulator and through the pooled engine at
/// a seed-derived worker count and batch size, asserting the reports match
/// on every schedule-independent field.
fn assert_equivalent(scenario: Scenario) -> Result<(), TestCaseError> {
    let planned = |g: &Graph, seed: u64| {
        let algorithm = if mix(seed ^ 1) % 2 == 0 {
            Algorithm::Propagation
        } else {
            Algorithm::NonPropagation
        };
        Planner::new(g).algorithm(algorithm).plan().unwrap()
    };
    let (g, plan, inputs) = match scenario {
        Scenario::Deep { seed } => {
            let (g, cyclic) = deep_buffer_graph(seed);
            let plan = cyclic.then(|| planned(&g, seed));
            (g, plan, 300 + mix(seed ^ 2) % 900)
        }
        Scenario::Sp { seed } => {
            let (g, _) = random_sp_dag(&GeneratorConfig {
                target_edges: 12 + (mix(seed) % 24) as usize,
                max_fanout: 3,
                capacity_range: (1, 6),
                seed,
            });
            let plan = planned(&g, seed);
            (g, Some(plan), 40 + mix(seed ^ 2) % 60)
        }
        Scenario::Ladder { seed } => {
            let g = random_ladder(&LadderConfig {
                rungs: 1 + (mix(seed) % 6) as usize,
                capacity_range: (1, 6),
                reverse_probability: 0.3,
                seed,
            });
            let plan = planned(&g, seed);
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
    };
    let (Scenario::Sp { seed }
    | Scenario::Ladder { seed }
    | Scenario::Layered { seed }
    | Scenario::Deep { seed }) = scenario;
    let topo = match scenario {
        Scenario::Deep { .. } => with_sparse_filters(&g, seed),
        _ => with_filters(&g, seed),
    };

    let sim = {
        let s = Simulator::new(&topo);
        let s = match &plan {
            Some(p) => s.with_plan(p),
            None => s,
        };
        s.run(inputs)
    };
    // Exercise single-worker and multi-worker pools, swept across batch
    // sizes — scalar (maximal interleaving), short, the default and a
    // seed-derived one; each is the slice budget and the container limit
    // both — the verdict and counts must be identical in all.
    let workers = 1 + (mix(seed ^ 4) % 4) as usize;
    let mode = plan.map_or(AvoidanceMode::Disabled, AvoidanceMode::plan);
    for batch in [1, 4, 64, 1 + (mix(seed ^ 5) % 64) as u32] {
        let pool = SharedPool::with(PoolOptions {
            workers,
            batch,
            ..PoolOptions::default()
        });
        let pooled = pool.submit_with(&topo, mode.clone(), inputs).wait();

        prop_assert_eq!(sim.completed, pooled.completed);
        prop_assert_eq!(sim.deadlocked, pooled.deadlocked);
        prop_assert_eq!(sim.data_messages, pooled.data_messages);
        prop_assert_eq!(sim.dummy_messages, pooled.dummy_messages);
        prop_assert_eq!(sim.sink_firings, pooled.sink_firings);
        prop_assert_eq!(&sim.per_edge_data, &pooled.per_edge_data);
        prop_assert_eq!(&sim.per_edge_dummies, &pooled.per_edge_dummies);
        // The pooled verdict is exact: a run either completes or deadlocks,
        // and a deadlock names at least one blocked node.
        prop_assert!(!pooled.inconclusive());
        if pooled.deadlocked {
            prop_assert!(!pooled.blocked.is_empty());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn pooled_engine_is_equivalent_to_simulator(s in scenario()) {
        assert_equivalent(s)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn pooled_engine_is_equivalent_to_simulator_on_deep_buffers(seed in 0u64..1 << 48) {
        assert_equivalent(Scenario::Deep { seed })?;
    }
}
