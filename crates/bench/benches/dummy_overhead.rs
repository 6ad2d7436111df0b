//! E13: dummy-message overhead of the two protocols as a function of buffer
//! size and filtering rate (the bench reports runtime; the overhead ratios
//! are printed once at start-up and recorded in EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::{Algorithm, Planner};
use fila_runtime::filters::Predicate;
use fila_runtime::{Simulator, Topology};
use fila_workloads::figures::fig2_triangle;
use std::hint::black_box;

fn print_overhead_table() {
    println!("# dummy overhead (dummy / total messages), Fig. 2 workload, 20k inputs");
    println!("buffer  filter-period  propagation  non-propagation");
    for &buffer in &[2u64, 8, 32] {
        for &period in &[4u64, 64, 1024] {
            let g = fig2_triangle(buffer);
            let a = g.node_by_name("A").unwrap();
            let topo = Topology::from_graph(&g)
                .with(a, move || Predicate::new(move |seq, out| out == 0 || seq % period == 0));
            let mut cells = Vec::new();
            for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
                let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
                let report = Simulator::new(&topo).with_plan(&plan).run(20_000);
                assert!(report.completed);
                cells.push(format!("{:.4}", report.dummy_overhead()));
            }
            println!("{buffer:>6}  {period:>13}  {:>11}  {:>15}", cells[0], cells[1]);
        }
    }
}

fn bench(c: &mut Criterion) {
    print_overhead_table();
    let mut group = c.benchmark_group("dummy_overhead");
    group.sample_size(10);
    for &period in &[4u64, 256] {
        let g = fig2_triangle(8);
        let a = g.node_by_name("A").unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, move || Predicate::new(move |seq, out| out == 0 || seq % period == 0));
        let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
        group.bench_with_input(BenchmarkId::new("nonprop_20k", period), &period, |b, _| {
            b.iter(|| black_box(Simulator::new(&topo).with_plan(&plan).run(20_000)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
