//! Verdict-cache correctness: a cache hit must be byte-identical — and
//! identical *in effect* (verdicts + per-edge data/dummy counts) — to the
//! verdict `Planner::certify` reaches, over random SP DAGs and CS4 ladders.

use std::sync::Arc;

use fila::prelude::*;
use fila::workloads::generators::{random_ladder, random_sp_dag, GeneratorConfig, LadderConfig};
use proptest::prelude::*;

/// Certifies `g` under the given per-node filter periods three ways —
/// directly via [`Planner::certify`], as a cache miss, and as a cache hit —
/// and asserts all three reach the same verdict, the same plan and the same
/// observable execution (completion/deadlock verdict and per-edge counts).
fn assert_cache_equivalence(
    g: &fila::graph::Graph,
    period_of: impl Fn(NodeId) -> u64,
    inputs: u64,
) -> Result<(), TestCaseError> {
    let periods: Vec<u64> = g.node_ids().map(&period_of).collect();
    let topo = Periodic::from_fn(g, period_of);
    for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
        let fresh = Planner::new(g)
            .algorithm(algorithm)
            .cycle_bound(4096)
            .certify(&periods);
        let cache = PlanCache::new(8);
        let certify = || cache.certify(g, algorithm, Rounding::Ceil, 4096, &periods);
        let (miss, hit) = (certify(), certify());
        prop_assert_eq!((cache.cert_misses(), cache.cert_hits()), (1, 1));
        let (fresh, miss, hit) = match (fresh, miss, hit) {
            (Ok(fresh), Ok(miss), Ok(hit)) => (fresh, miss, hit),
            (Err(fresh), Err(miss), Err(hit)) => {
                // A rejection is a verdict too, and the same one.
                prop_assert_eq!(miss.to_string(), fresh.to_string());
                prop_assert_eq!(hit.to_string(), fresh.to_string());
                continue;
            }
            (fresh, miss, hit) => {
                return Err(TestCaseError::fail(format!(
                    "{algorithm}: planner {fresh:?}, miss {miss:?}, hit {hit:?}"
                )))
            }
        };
        prop_assert!(!miss.hit && hit.hit, "{}: a miss, then a hit", algorithm);
        prop_assert!(Arc::ptr_eq(&miss.plan, &hit.plan));

        // Byte-identical: the cached plan IS the planner's plan.
        prop_assert_eq!(&*hit.plan, &*fresh.plan);
        prop_assert_eq!(
            (hit.used, hit.exhaustive, hit.fell_back),
            (fresh.used, fresh.exhaustive, fresh.fell_back)
        );
        prop_assert_eq!(&hit.attempts, &fresh.attempts);

        // Identical in effect: same verdict, same per-edge traffic.
        let with_fresh = Simulator::new(&topo)
            .with_shared_plan(fresh.plan)
            .run(inputs);
        let with_hit = Simulator::new(&topo).with_shared_plan(hit.plan).run(inputs);
        prop_assert_eq!(with_fresh.completed, with_hit.completed);
        prop_assert_eq!(with_fresh.deadlocked, with_hit.deadlocked);
        prop_assert_eq!(with_fresh.per_edge_data, with_hit.per_edge_data);
        prop_assert_eq!(with_fresh.per_edge_dummies, with_hit.per_edge_dummies);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_hits_are_identical_in_effect_on_sp_dags(seed in 0u64..4294967296u64) {
        // Derive the filter period from the seed (the vendored proptest
        // shim supports one strategy parameter per test).
        let period = 1 + seed % 5;
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 16,
            max_fanout: 3,
            capacity_range: (1, 6),
            seed,
        });
        // Interior filtering everywhere: the harshest workload (the chain
        // falls back or rejects on some — the cache must then agree on
        // *that* too).
        assert_cache_equivalence(&g, |_| period, 96)?;
    }

    #[test]
    fn cache_hits_are_identical_in_effect_on_cs4_ladders(seed in 0u64..4294967296u64) {
        let rungs = 2 + (seed % 6) as usize;
        let period = 2 + (seed / 7) % 4;
        let g = random_ladder(&LadderConfig {
            rungs,
            capacity_range: (2, 6),
            reverse_probability: 0.3,
            seed,
        });
        // Fork-only filtering, the protected scenario on every class.
        let source = g.single_source().unwrap();
        assert_cache_equivalence(&g, |n| if n == source { period } else { 1 }, 96)?;
    }
}

/// End-to-end through the service: resubmitting the same spec must be a
/// cache hit whose outcome (verdict + per-edge counts) equals the cold
/// submission's.
#[test]
fn service_resubmission_hits_and_matches() {
    for seed in [1u64, 7, 42] {
        let g = random_ladder(&LadderConfig {
            rungs: 4,
            capacity_range: (2, 5),
            reverse_probability: 0.3,
            seed,
        });
        let source = g.single_source().unwrap();
        let periods: Vec<u64> = g
            .node_ids()
            .map(|n| if n == source { 3 } else { 1 })
            .collect();
        let service = JobService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let spec = JobSpec::new(g, FilterSpec::PerNode(periods), 128);
        let cold = service.submit(spec.clone()).unwrap();
        let cold_outcome = cold.wait();
        let warm = service.submit(spec).unwrap();
        let warm_outcome = warm.wait();
        assert_eq!(cold.cache_hit, Some(false), "seed {seed}");
        assert_eq!(warm.cache_hit, Some(true), "seed {seed}");
        assert_eq!(cold_outcome.verdict, warm_outcome.verdict, "seed {seed}");
        assert_eq!(
            cold_outcome.report.per_edge_data, warm_outcome.report.per_edge_data,
            "seed {seed}"
        );
        assert_eq!(
            cold_outcome.report.per_edge_dummies, warm_outcome.report.per_edge_dummies,
            "seed {seed}"
        );
    }
}

/// Two clients build the same shape with different node declaration and
/// edge insertion orders: the canonical fingerprint puts them in one cache
/// bucket, but an `EdgeId`-indexed plan is not transplantable between their
/// arenas, so each ordering plans once — the arena comparison, not the
/// hash, decides — and then hits.
#[test]
fn isomorphic_submissions_share_a_bucket_and_plan_once_per_ordering() {
    let edges = [
        ("a", "b", 2u64),
        ("b", "e", 5),
        ("e", "f", 1),
        ("a", "c", 3),
        ("c", "d", 1),
        ("d", "f", 2),
    ];
    let build = |nodes: &[&str], order: &[usize]| {
        let mut b = GraphBuilder::new();
        for name in nodes {
            b.node(name);
        }
        for &i in order {
            let (s, t, cap) = edges[i];
            b.edge_with_capacity(s, t, cap).unwrap();
        }
        b.build().unwrap()
    };
    let first = build(&["a", "b", "c", "d", "e", "f"], &[0, 1, 2, 3, 4, 5]);
    let second = build(&["f", "d", "b", "a", "c", "e"], &[5, 3, 0, 4, 2, 1]);
    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let submit = |g: &fila::graph::Graph| {
        let ticket = service
            .submit(JobSpec::new(g.clone(), FilterSpec::Fork(3), 64))
            .unwrap();
        assert_eq!(ticket.wait().verdict, JobVerdict::Completed);
        ticket
    };
    let (cold_first, cold_second) = (submit(&first), submit(&second));
    assert_eq!(cold_first.fingerprint, cold_second.fingerprint);
    assert_eq!(cold_first.cache_hit, Some(false));
    assert_eq!(
        cold_second.cache_hit,
        Some(false),
        "a reordered arena must plan afresh"
    );
    assert_eq!(submit(&first).cache_hit, Some(true));
    assert_eq!(submit(&second).cache_hit, Some(true));
}
