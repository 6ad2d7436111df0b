//! What the filtering-aware certification gate costs relative to planning
//! the same shape (E17), plus the ledger's `admit_cold` shapes (E25) — the
//! `certification/*` rows CI asserts on.
//!
//! Set `FILA_BENCH_FAST=1` to run a tiny smoke configuration (used by CI to
//! catch bench rot), and `FILA_BENCH_JSON=<path>` to emit the
//! machine-readable record file (see the vendored criterion shim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::{Algorithm, PlanCache, Planner, Rounding};
use fila_workloads::generators::{random_ladder, random_sp_dag, GeneratorConfig, LadderConfig};
use std::hint::black_box;

fn fast() -> bool {
    std::env::var_os("FILA_BENCH_FAST").is_some()
}

/// The E17 certification-overhead sweep: what does the filtering-aware
/// certification gate cost **relative to planning** the same shape?  Three
/// labels per shape:
///
/// * `plan` — structural planning alone (the pre-certification admission
///   cost);
/// * `certify` — `Planner::certify` end to end (plan + bounded model check
///   of the declared profile and the adversarial family, including any
///   fallback);
/// * `cached_verdict` — a warm `PlanCache::certify` lookup, the steady-state
///   per-submission cost the service actually pays for repeat shapes.
fn bench_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("certification");
    group.sample_size(if fast() { 2 } else { 10 });
    let ladder_rungs: &[usize] = if fast() { &[8] } else { &[8, 16, 32] };
    for &rungs in ladder_rungs {
        let g = random_ladder(&LadderConfig {
            rungs,
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: 0x1ADD + rungs as u64,
        });
        let periods: Vec<u64> = g.node_ids().map(|_| 16).collect();
        group.bench_with_input(
            BenchmarkId::new("plan/ladder/rungs", rungs),
            &rungs,
            |b, _| {
                b.iter(|| {
                    black_box(
                        Planner::new(&g)
                            .algorithm(Algorithm::NonPropagation)
                            .plan()
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("certify/ladder/rungs", rungs),
            &rungs,
            |b, _| {
                b.iter(|| {
                    let certified = Planner::new(&g)
                        .algorithm(Algorithm::NonPropagation)
                        .certify(&periods)
                        .unwrap();
                    assert!(!certified.fell_back);
                    black_box(certified.certification.inputs)
                })
            },
        );
        let cache = PlanCache::new(64);
        // Warm the verdict once; the timed loop is the steady-state hit.
        cache
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 512, &periods)
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("cached_verdict/ladder/rungs", rungs),
            &rungs,
            |b, _| {
                b.iter(|| {
                    let hit = cache
                        .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 512, &periods)
                        .unwrap();
                    assert!(hit.hit);
                    black_box(hit.fell_back)
                })
            },
        );
    }
    // One SP shape for the quadratic-planner comparison point.
    let edges = if fast() { 24 } else { 128 };
    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: edges,
        max_fanout: 3,
        capacity_range: (2, 8),
        seed: 0xF11A,
    });
    let periods: Vec<u64> = g.node_ids().map(|_| 8).collect();
    group.bench_with_input(BenchmarkId::new("plan/sp/edges", edges), &edges, |b, _| {
        b.iter(|| {
            black_box(
                Planner::new(&g)
                    .algorithm(Algorithm::NonPropagation)
                    .plan()
                    .unwrap(),
            )
        })
    });
    group.bench_with_input(
        BenchmarkId::new("certify/sp/edges", edges),
        &edges,
        |b, _| {
            b.iter(|| {
                black_box(
                    Planner::new(&g)
                        .algorithm(Algorithm::NonPropagation)
                        .certify(&periods)
                        .unwrap()
                        .certification
                        .inputs,
                )
            })
        },
    );
    // The ledger's `admit_cold` shapes and profiles (period 3 at every SP
    // fork / at the ladder source), so its two dominant spans have rows here.
    let cold_ladders = [192usize, 256].map(|edges| {
        let g = random_ladder(&LadderConfig {
            rungs: edges / 3, // 3·rungs + 2 edges
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: 0xC01D + edges as u64,
        });
        let periods: Vec<u64> = g
            .node_ids()
            .map(|n| if g.in_degree(n) == 0 { 3 } else { 1 })
            .collect();
        ("cold_ladder/edges", edges, g, periods)
    });
    let cold_sp = [256usize, 512].map(|edges| {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: edges,
            max_fanout: 4,
            capacity_range: (2, 8),
            seed: 0xC01D + edges as u64,
        });
        let periods: Vec<u64> = g
            .node_ids()
            .map(|n| if g.out_degree(n) > 1 { 3 } else { 1 })
            .collect();
        ("cold_sp/edges", edges, g, periods)
    });
    for (kind, edges, g, periods) in cold_ladders.iter().chain(&cold_sp) {
        let planner = Planner::new(g).algorithm(Algorithm::NonPropagation);
        group.bench_with_input(
            BenchmarkId::new(format!("plan/{kind}"), edges),
            edges,
            |b, _| b.iter(|| black_box(planner.plan().unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("certify/{kind}"), edges),
            edges,
            |b, _| b.iter(|| black_box(planner.certify(periods).unwrap().certification.inputs)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_certification);
criterion_main!(benches);
