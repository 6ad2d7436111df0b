//! E9/E10: compile-time scaling of the CS4 / SP-ladder interval algorithms
//! on the full sweep, under both protocols, and of the structure pass they
//! start from.  `Structure::of` (reduction, biconnected split, ladder side
//! walk) is linear in the rung count (E48); Non-Propagation is one reverse
//! min-DP per fork branch (E47), quadratic in it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::{Algorithm, Planner, Structure};
use fila_bench::{ladder_of_size, LADDER_RUNGS};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_ladder");
    group.sample_size(10);
    for &rungs in LADDER_RUNGS {
        let g = ladder_of_size(rungs);
        group.bench_with_input(BenchmarkId::new("ladder_prop", rungs), &rungs, |b, _| {
            b.iter(|| {
                black_box(
                    Planner::new(&g)
                        .algorithm(Algorithm::Propagation)
                        .plan()
                        .unwrap(),
                )
            })
        });
    }
    // The sweep points plus the 341-rung (1 025-edge) ladder a cold
    // admission of that size has to afford.
    for rungs in [8usize, 32, 128, 341, 512] {
        let g = ladder_of_size(rungs);
        group.bench_with_input(BenchmarkId::new("ladder_nonprop", rungs), &rungs, |b, _| {
            b.iter(|| {
                black_box(
                    Planner::new(&g)
                        .algorithm(Algorithm::NonPropagation)
                        .plan()
                        .unwrap(),
                )
            })
        });
    }
    for rungs in [128usize, 512, 2048] {
        let g = ladder_of_size(rungs);
        group.bench_with_input(BenchmarkId::new("structure", rungs), &rungs, |b, _| {
            b.iter(|| black_box(Structure::of(&g).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
