//! Experiment E12: end-to-end safety.  With computed intervals the runtime
//! never deadlocks on filtering workloads whose filtering happens at cycle
//! fork nodes; with avoidance disabled the same workloads deadlock.

use fila::prelude::*;
use fila::runtime::filters::Predicate;
use fila::runtime::Bernoulli;
use fila::workloads::figures;

fn fork_filtering_topology(buffer: u64, period: u64) -> (fila::graph::Graph, Topology) {
    let g = figures::fig2_triangle(buffer);
    let a = g.node_by_name("A").unwrap();
    let topo = Topology::from_graph(&g)
        .with(a, move || Predicate::new(move |seq, out| out == 0 || seq % period == 0));
    (g, topo)
}

#[test]
fn simulator_never_deadlocks_with_plans_across_buffer_sweep() {
    for buffer in [1u64, 2, 3, 5, 9, 17] {
        for period in [3u64, 16, 257] {
            let (g, topo) = fork_filtering_topology(buffer, period);
            // The unprotected run deadlocks whenever the filtered stretch
            // exceeds what the opposite branch can buffer.
            let unprotected = Simulator::new(&topo).run(5_000);
            if period > 2 * buffer + 2 {
                assert!(
                    unprotected.deadlocked,
                    "buffer {buffer} period {period}: expected deadlock, got {unprotected:?}"
                );
            }
            for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
                let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
                let report = Simulator::new(&topo).with_plan(&plan).run(5_000);
                assert!(
                    report.completed,
                    "buffer {buffer} period {period} {algorithm}: {report:?}"
                );
            }
        }
    }
}

#[test]
fn pooled_engine_completes_with_plans() {
    let (g, topo) = fork_filtering_topology(3, 64);
    for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
        let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
        let report = SharedPool::new(2)
            .submit_with(&topo, AvoidanceMode::plan(plan), 2_000)
            .wait();
        assert!(report.completed, "{algorithm}: {report:?}");
    }
}

#[test]
fn randomised_split_join_workloads_are_safe_with_nonpropagation() {
    for seed in 0..5u64 {
        let g = figures::fig1_split_join(3);
        let b = g.node_by_name("B").unwrap();
        let c = g.node_by_name("C").unwrap();
        let topo = Topology::from_graph(&g)
            .with(b, move || Bernoulli::new(0.05, seed))
            .with(c, move || Bernoulli::new(0.08, seed + 100));
        let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
        let report = Simulator::new(&topo).with_plan(&plan).run(20_000);
        assert!(report.completed, "seed {seed}: {report:?}");
        let unprotected = Simulator::new(&topo).run(20_000);
        assert!(unprotected.deadlocked, "seed {seed}");
    }
}

#[test]
fn dummy_overhead_decreases_with_buffer_size() {
    // E13 flavour: larger buffers mean larger intervals and fewer dummies.
    let mut overheads = Vec::new();
    for buffer in [2u64, 8, 32] {
        let (g, topo) = fork_filtering_topology(buffer, 1_000_000);
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let report = Simulator::new(&topo).with_plan(&plan).run(50_000);
        assert!(report.completed);
        overheads.push(report.dummy_overhead());
    }
    assert!(overheads[0] > overheads[1] && overheads[1] > overheads[2], "{overheads:?}");
}
