//! E2/E12: end-to-end runtime behaviour on the Fig. 2 deadlock example — the
//! protected runs complete, and their cost is measured across buffer sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::{Algorithm, Planner};
use fila_runtime::filters::Predicate;
use fila_runtime::{Simulator, Topology};
use fila_workloads::figures::fig2_triangle;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_runtime");
    group.sample_size(10);
    for &buffer in &[2u64, 8, 32] {
        let g = fig2_triangle(buffer);
        let a = g.node_by_name("A").unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(|seq, out| out == 0 || seq % 97 == 0));
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let name = format!("{algorithm}/buffer{buffer}");
            group.bench_with_input(BenchmarkId::new("simulate_10k", name), &buffer, |b, _| {
                b.iter(|| {
                    let report = Simulator::new(&topo).with_plan(&plan).run(10_000);
                    assert!(report.completed);
                    black_box(report)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
