//! `SharedPool` running one job at a time through its public surface:
//! verdicts, plans, degenerate sizes, wall time, what a launch seeds.  (Many jobs at once:
//! `scheduler_stress.rs`; agreement with the simulator:
//! `engine_equivalence.rs`.)

use fila::prelude::*;
use fila::runtime::filters::{Broadcast, ModuloFilter, Predicate};
use fila::runtime::{FireInput, Payload, PropagationTrigger, SchedCounter};

fn fig2(buffer: u64) -> Graph {
    let mut b = GraphBuilder::new();
    b.edge_with_capacity("A", "B", buffer).unwrap();
    b.edge_with_capacity("B", "C", buffer).unwrap();
    b.edge_with_capacity("A", "C", buffer).unwrap();
    b.build().unwrap()
}

#[test]
fn pipeline_completes_pooled() {
    let mut b = GraphBuilder::new();
    b.chain(&["src", "mid", "dst"]).unwrap();
    let g = b.build().unwrap();
    let topo = Topology::from_graph(&g);
    for workers in [1, 2, 4] {
        let report = SharedPool::new(workers).submit(&topo, 200).wait();
        assert!(report.completed, "workers={workers}: {report:?}");
        assert_eq!(report.data_messages, 400);
        assert_eq!(report.sink_firings, 200);
    }
}

#[test]
fn fig2_deadlock_verdict_is_exact() {
    // No quiet period, no timeout: the pool parks and reports deadlock
    // with the blocked nodes, exactly like the simulator.
    let g = fig2(2);
    let a = g.node_by_name("A").unwrap();
    let topo = Topology::from_graph(&g)
        .with(a, || Predicate::new(|_seq, out| out == 0));
    for workers in [1, 3] {
        let report = SharedPool::new(workers).submit(&topo, 500).wait();
        assert!(report.deadlocked, "workers={workers}: {report:?}");
        assert!(!report.completed);
        assert!(!report.blocked.is_empty());
    }
}

#[test]
fn fig2_completes_pooled_with_plan() {
    let g = fig2(2);
    let a = g.node_by_name("A").unwrap();
    for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
        let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(|_seq, out| out == 0));
        let report = SharedPool::new(2)
            .submit_with(&topo, AvoidanceMode::plan(plan), 500)
            .wait();
        assert!(report.completed, "{algorithm}: {report:?}");
        assert!(report.dummy_messages > 0);
    }
}

#[test]
fn capacity_one_channels_work() {
    let mut b = GraphBuilder::new();
    b.edge_with_capacity("s", "m", 1).unwrap();
    b.edge_with_capacity("m", "t", 1).unwrap();
    let g = b.build().unwrap();
    let m = g.node_by_name("m").unwrap();
    let topo = Topology::from_graph(&g).with(m, || ModuloFilter::new(2, 0));
    let report = SharedPool::new(2).submit(&topo, 100).wait();
    assert!(report.completed, "{report:?}");
    assert_eq!(report.sink_firings, 50);
}

#[test]
fn split_join_deadlocks_and_plan_rescues_it() {
    let mut b = GraphBuilder::new();
    b.edge_with_capacity("split", "left", 4).unwrap();
    b.edge_with_capacity("split", "right", 4).unwrap();
    b.edge_with_capacity("left", "join", 4).unwrap();
    b.edge_with_capacity("right", "join", 4).unwrap();
    let g = b.build().unwrap();
    let split = g.node_by_name("split").unwrap();
    let left = g.node_by_name("left").unwrap();
    let right = g.node_by_name("right").unwrap();
    let topo = Topology::from_graph(&g)
        .with(split, || Broadcast)
        .with(left, || ModuloFilter::new(5, 0))
        .with(right, || ModuloFilter::new(50, 3));
    let pool = SharedPool::new(2);
    let without = pool.submit(&topo, 2000).wait();
    assert!(without.deadlocked, "{without:?}");
    let plan = Planner::new(&g)
        .algorithm(Algorithm::NonPropagation)
        .plan()
        .unwrap();
    let with_plan = pool
        .submit_with(&topo, AvoidanceMode::plan(plan), 2000)
        .wait();
    assert!(with_plan.completed, "{with_plan:?}");
}

#[test]
fn deep_pipeline_scales_past_thread_per_node_sizes() {
    // 4096 nodes on a handful of workers: far beyond what one OS thread
    // per node is meant for, trivially handled by the pool.
    let names: Vec<String> = (0..4096).map(|i| format!("n{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = GraphBuilder::new().default_capacity(4);
    b.chain(&refs).unwrap();
    let g = b.build().unwrap();
    let topo = Topology::from_graph(&g);
    let report = SharedPool::new(4).submit(&topo, 8).wait();
    assert!(report.completed, "{report:?}");
    assert_eq!(report.sink_firings, 8);
    assert_eq!(report.data_messages, 8 * 4095);
}

#[test]
fn tiny_batch_still_completes() {
    let g = fig2(2);
    let a = g.node_by_name("A").unwrap();
    let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
    let topo = Topology::from_graph(&g)
        .with(a, || Predicate::new(|_seq, out| out == 0));
    let pool = SharedPool::with(PoolOptions {
        workers: 3,
        batch: 1,
        ..PoolOptions::default()
    });
    let report = pool
        .submit_with(&topo, AvoidanceMode::plan(plan), 300)
        .wait();
    assert!(report.completed, "{report:?}");
}

#[test]
fn zero_inputs_and_zero_nodes_complete_immediately() {
    for g in [fig2(2), Graph::new()] {
        let topo = Topology::from_graph(&g);
        let report = SharedPool::new(1).submit(&topo, 0).wait();
        assert!(report.completed);
        assert_eq!(report.data_messages, 0);
    }
}

#[test]
fn wall_time_is_recorded() {
    let mut b = GraphBuilder::new();
    b.chain(&["s", "t"]).unwrap();
    let g = b.build().unwrap();
    let topo = Topology::from_graph(&g);
    let report = SharedPool::new(1).submit(&topo, 64).wait();
    assert!(report.completed);
    assert!(report.wall_time() > std::time::Duration::ZERO);
    assert!(report.messages_per_sec().expect("wall time recorded") > 0.0);
}

/// Tasks pushed onto the pool's injector so far, over every lane: the
/// `fila_sched_injector_pushes_total` series.
fn injector_pushes(pool: &SharedPool) -> u64 {
    let telemetry = pool.telemetry_handle().expect("a traced pool");
    let counters = telemetry.sched_counters();
    counters
        .iter()
        .map(|lane| lane[SchedCounter::InjectorPush as usize])
        .sum()
}

#[test]
fn a_fresh_job_seeds_its_sources_and_a_resumed_job_every_task() {
    // Two sources into a join, then a chain: six nodes, two sources.
    let mut b = GraphBuilder::new().default_capacity(2);
    b.edge("s1", "j").unwrap();
    b.edge("s2", "j").unwrap();
    b.chain(&["j", "m", "n", "t"]).unwrap();
    let g = b.build().unwrap();
    let topo = Topology::from_graph(&g);
    let reference = Simulator::new(&topo).run(300);
    let pool = SharedPool::with(PoolOptions {
        workers: 2,
        telemetry: true,
        ..PoolOptions::default()
    });
    let fresh = pool.submit(&topo, 300).wait();
    assert!(fresh.completed, "{fresh:?}");
    assert_eq!(fresh.per_edge_data, reference.per_edge_data);
    assert_eq!(injector_pushes(&pool), 2, "the sources, and only them");

    let CheckpointOutcome::Killed(cut) = Simulator::new(&topo).run_with_checkpoint(300, 40)
    else {
        panic!("step 40 interrupts a 300-input run");
    };
    let resumed = pool
        .resume_full(
            &topo,
            AvoidanceMode::Disabled,
            PropagationTrigger::default(),
            &cut,
            None,
        )
        .unwrap()
        .wait();
    assert!(resumed.completed, "{resumed:?}");
    assert_eq!(resumed.per_edge_data, reference.per_edge_data);
    assert_eq!(injector_pushes(&pool), 2 + 6, "every task of the resumed job");
}

#[test]
fn fig2_deadlocks_exactly_whichever_fork_output_is_filtered_out() {
    // Unseeded tasks start waiting on their first input.  With A -> B
    // filtered out completely, B never receives a message and C's first
    // input stays empty: neither ever runs, and the verdict must still be
    // the simulator's deadlock, with the same counts and blocked nodes.
    let g = fig2(2);
    let a = g.node_by_name("A").unwrap();
    for silent in [0, 1] {
        let topo = Topology::from_graph(&g)
            .with(a, move || Predicate::new(move |_seq, out| out != silent));
        let reference = Simulator::new(&topo).run(500);
        assert!(reference.deadlocked);
        for workers in [1, 2] {
            let pool = SharedPool::new(workers);
            let job = pool.submit(&topo, 500);
            let report = job.wait();
            assert_eq!(job.verdict(), Some(JobVerdict::Deadlocked), "{report:?}");
            assert_eq!(report.per_edge_data, reference.per_edge_data);
            assert_eq!(report.per_edge_dummies, reference.per_edge_dummies);
            assert_eq!(report.blocked, reference.blocked, "output {silent} silent");
        }
    }
}

#[test]
fn a_slot_the_behaviour_leaves_unwritten_is_filtered_in_both_engines() {
    // `a` writes its first output's slot on every firing and, with
    // `every = Some(k)`, its second one only when `k` divides the sequence
    // number.  An unwritten slot must carry no data in either engine,
    // although the source broadcasts to two outputs before `a` fires, the
    // simulator's model shares one scratch slice across nodes, and the pool
    // reuses a task's slice from one firing to the next.
    let mut b = GraphBuilder::new().default_capacity(4);
    for (from, to) in [("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"), ("b", "z")] {
        b.edge(from, to).unwrap();
    }
    let g = b.build().unwrap();
    let a = g.node_by_name("a").unwrap();
    for (every, a_to_y) in [(None, 0), (Some(2), 25)] {
        let topo = Topology::from_graph(&g).with(a, move || {
            move |input: &FireInput<'_>, emit: &mut [Option<Payload>]| {
                emit[0] = Some(input.seq);
                if every.is_some_and(|k| input.seq % k == 0) {
                    emit[1] = Some(input.seq);
                }
            }
        });
        let reference = Simulator::new(&topo).run(50);
        assert!(reference.completed, "{reference:?}");
        assert_eq!(reference.per_edge_data, [50, 50, 50, a_to_y, 50], "every {every:?}");
        for batch in [1, 64] {
            let pool = SharedPool::with(PoolOptions {
                workers: 2,
                batch,
                ..PoolOptions::default()
            });
            let report = pool.submit(&topo, 50).wait();
            assert_eq!(
                report.per_edge_data, reference.per_edge_data,
                "every {every:?} batch {batch}"
            );
        }
    }
}
