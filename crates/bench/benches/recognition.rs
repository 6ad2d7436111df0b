//! E4/E5: topology classification and decomposition cost — SP recognition,
//! CS4/ladder decomposition, and the brute-force cycle-level CS4 check on
//! the paper's figures and generated graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::cs4::{decompose_cs4, is_cs4_by_cycle_enumeration};
use fila_avoidance::classify;
use fila_bench::{ladder_of_size, sp_dag_of_size, LADDER_RUNGS, SP_SIZES};
use fila_graph::fingerprint::fingerprint;
use fila_spdag::recognize;
use fila_workloads::figures;
use fila_workloads::generators::pipeline_graph;
use std::hint::black_box;

/// Node counts of the chain rows (the last is the `pipe_hop` graph).
const CHAIN_NODES: &[usize] = &[256, 1024, 4096, 16384];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("recognition");
    group.sample_size(10);
    for &size in SP_SIZES {
        let (g, _) = sp_dag_of_size(size);
        group.bench_with_input(BenchmarkId::new("sp_recognition", size), &size, |b, _| {
            b.iter(|| black_box(recognize(&g).unwrap().is_sp()))
        });
        group.bench_with_input(BenchmarkId::new("fingerprint/sp_dag", size), &size, |b, _| {
            b.iter(|| black_box(fingerprint(&g)))
        });
    }
    // The acceptance row of ROADMAP's "Structure and planning in linear
    // time, block by block": the two structural passes of admission on the
    // `pipe_hop` shape (a deep chain, ids against the flow) must cost the
    // same per edge at every length.
    for &nodes in CHAIN_NODES {
        let g = pipeline_graph(nodes, 256, true);
        group.bench_with_input(BenchmarkId::new("sp_recognition_chain", nodes), &nodes, |b, _| {
            b.iter(|| black_box(recognize(&g).unwrap().is_sp()))
        });
        group.bench_with_input(BenchmarkId::new("fingerprint_chain", nodes), &nodes, |b, _| {
            b.iter(|| black_box(fingerprint(&g)))
        });
    }
    for &rungs in LADDER_RUNGS {
        let g = ladder_of_size(rungs);
        group.bench_with_input(BenchmarkId::new("cs4_decomposition", rungs), &rungs, |b, _| {
            b.iter(|| black_box(decompose_cs4(&g).unwrap()))
        });
    }
    group.bench_function("classify_fig4_crosslink", |b| {
        let g = figures::fig4_crosslink(2);
        b.iter(|| black_box(classify(&g).unwrap()))
    });
    group.bench_function("classify_fig4_butterfly", |b| {
        let g = figures::fig4_butterfly(2);
        b.iter(|| black_box(classify(&g).unwrap()))
    });
    group.bench_function("bruteforce_cs4_check_fig5", |b| {
        let g = figures::fig5_ladder(3);
        b.iter(|| black_box(is_cs4_by_cycle_enumeration(&g)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
