//! E3: interval computation on the Fig. 3 worked example — the efficient SP
//! algorithms against the exhaustive baseline on the same graph.

use criterion::{criterion_group, criterion_main, Criterion};
use fila_avoidance::exhaustive::exhaustive_intervals;
use fila_avoidance::{nonprop_sp, prop_sp, Algorithm};
use fila_spdag::recognize;
use fila_workloads::figures::fig3_cycle;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let g = fig3_cycle();
    let d = recognize(&g).unwrap().decomposition().unwrap();
    let mut group = c.benchmark_group("fig3_intervals");
    group.bench_function("setivals_propagation", |b| {
        b.iter(|| black_box(prop_sp::setivals(&g, &d)))
    });
    group.bench_function("nonprop_quadratic", |b| {
        b.iter(|| black_box(nonprop_sp::nonprop_intervals(&g, &d)))
    });
    group.bench_function("exhaustive_propagation", |b| {
        b.iter(|| black_box(exhaustive_intervals(&g, Algorithm::Propagation)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
