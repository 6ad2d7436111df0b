//! E8: the exponential cycle-enumeration baseline on general DAGs — the
//! number of undirected simple cycles (and hence the running time) grows
//! combinatorially with the number of parallel branches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::exhaustive::exhaustive_intervals;
use fila_avoidance::Algorithm;
use fila_bench::CHAIN_COUNTS;
use fila_workloads::generators::{layered_dag, parallel_chains};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_exhaustive");
    group.sample_size(10);
    for &k in CHAIN_COUNTS {
        let g = parallel_chains(k, 2);
        group.bench_with_input(BenchmarkId::new("parallel_chains", k), &k, |b, _| {
            b.iter(|| black_box(exhaustive_intervals(&g, Algorithm::Propagation).unwrap()))
        });
    }
    for &width in &[2usize, 3, 4] {
        let g = layered_dag(4, width, 2, 7);
        group.bench_with_input(BenchmarkId::new("layered_dag", width), &width, |b, _| {
            b.iter(|| black_box(exhaustive_intervals(&g, Algorithm::Propagation).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
