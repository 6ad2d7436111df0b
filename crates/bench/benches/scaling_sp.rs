//! E6/E7: compile-time scaling of the SP-DAG interval algorithms —
//! SETIVALS (linear), the naive post-order Propagation variant (quadratic)
//! and the Non-Propagation algorithm (quadratic) over a sweep of graph
//! sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::{nonprop_sp, prop_sp};
use fila_bench::{sp_dag_of_size, SP_SIZES};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_sp");
    group.sample_size(10);
    for &size in SP_SIZES {
        let (g, d) = sp_dag_of_size(size);
        group.bench_with_input(BenchmarkId::new("setivals", size), &size, |b, _| {
            b.iter(|| black_box(prop_sp::setivals(&g, &d)))
        });
        group.bench_with_input(BenchmarkId::new("prop_naive", size), &size, |b, _| {
            b.iter(|| black_box(prop_sp::propagation_intervals_naive(&g, &d)))
        });
        group.bench_with_input(BenchmarkId::new("nonprop", size), &size, |b, _| {
            b.iter(|| black_box(nonprop_sp::nonprop_intervals(&g, &d)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
