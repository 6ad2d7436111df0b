//! Stress tests of the pool's scheduler (E23): the slot / deque / injector
//! queues, wake throttling and per-worker park/unpark of
//! `fila_runtime::sched`, driven through [`SharedPool`].
//!
//! Per-job quiescence decides every verdict wherever a queued task sits, so
//! the scheduler can only break things in two ways: strand a queued task (a
//! lost wakeup — the job never settles) or starve one (unfairness).  Each
//! test runs under a watchdog, because the failure mode of a lost wakeup is
//! a hang, not a wrong answer.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use fila::avoidance::verify::certify_runs;
use fila::prelude::*;
use fila::runtime::filters::Predicate;
use fila::runtime::{AvoidanceMode, EventKind, JobHandle, PoolOptions, SchedCounter};
use fila::workloads::figures::fig2_triangle;
use fila::workloads::generators::{random_sp_dag, GeneratorConfig};

/// Runs `body` on its own thread and fails the test if it has not finished
/// within `limit`.
fn with_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => runner.join().expect("the test body panicked"),
        // The body panicked before it could report: surface that panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            runner.join().expect("the test body panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no verdict within {limit:?}: a queued task was stranded (lost wakeup)")
        }
    }
}

fn pipeline(nodes: usize, capacity: u64) -> Graph {
    let names: Vec<String> = (0..nodes).map(|i| format!("n{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = GraphBuilder::new().default_capacity(capacity);
    b.chain(&refs).unwrap();
    b.build().unwrap()
}

/// Fig. 2 with a fork that filters one branch: deadlocks unprotected.
fn fig2_deadlocker(buffer: u64) -> (Graph, Topology) {
    let g = fig2_triangle(buffer);
    let a = g.single_source().unwrap();
    let topology = Topology::from_graph(&g).with(a, || Predicate::new(2, |_seq, out| out == 0));
    (g, topology)
}

#[test]
fn five_thousand_tiny_jobs_never_lose_a_wakeup() {
    // A two-node capacity-1 job is nothing but wakeups: every message is a
    // non-empty wake, a block, a non-full wake.  One job at a time makes
    // the workers park and be unparked between every two jobs; a window of
    // jobs makes submissions race workers that are searching or parking.
    const JOBS: usize = 5_000;
    const INPUTS: u64 = 8;
    with_watchdog(Duration::from_secs(120), || {
        let g = pipeline(2, 1);
        let topology = Topology::from_graph(&g);
        let check = |what: &str, handle: &JobHandle| {
            let report = handle.wait();
            assert_eq!(handle.verdict(), Some(JobVerdict::Completed), "{what}");
            assert!(report.completed, "{what}: {report:?}");
            assert_eq!(report.per_edge_data, [INPUTS], "{what}");
            assert_eq!(report.per_edge_dummies, [0], "{what}");
            assert_eq!(report.sink_firings, INPUTS, "{what}");
        };
        for workers in [2, 4] {
            let pool = SharedPool::new(workers);
            for window in [1, 7] {
                let mut in_flight = std::collections::VecDeque::new();
                for job in 0..JOBS / 2 {
                    if in_flight.len() == window {
                        let handle = in_flight.pop_front().expect("window is non-empty");
                        check(&format!("workers {workers} window {window}"), &handle);
                    }
                    in_flight.push_back(pool.submit(&topology, INPUTS));
                    if job % 64 == 0 {
                        // Let every worker run dry and park now and then.
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                for handle in &in_flight {
                    check(&format!("workers {workers} window {window}"), handle);
                }
            }
        }
    });
}

#[test]
fn jobs_cancelled_or_dropped_with_tasks_queued_release_every_waiter() {
    // A cancelled job's tasks are dropped from the queues one by one, and a
    // dropped pool strands whatever its queues hold: either way a job's
    // activity must end or be released, every waiter must return, and the
    // jobs left alone must not notice.
    const JOBS: usize = 2_000;
    const PER_POOL: usize = 200;
    const WINDOW: usize = 16;
    const INPUTS: u64 = 20;
    with_watchdog(Duration::from_secs(120), || {
        let (fig2_graph, wedged) = fig2_deadlocker(1);
        let plan = Arc::new(
            Planner::new(&fig2_graph)
                .algorithm(Algorithm::NonPropagation)
                .plan()
                .unwrap(),
        );
        let (_, planned) = fig2_deadlocker(1);
        let relay = Topology::from_graph(&pipeline(2, 1));
        let kinds = [
            (relay, AvoidanceMode::Disabled),
            (wedged, AvoidanceMode::Disabled),
            (planned, AvoidanceMode::Plan(plan)),
        ];
        let references: Vec<ExecutionReport> = kinds
            .iter()
            .map(|(topology, mode)| match mode {
                AvoidanceMode::Plan(plan) => Simulator::new(topology)
                    .with_shared_plan(Arc::clone(plan))
                    .run(INPUTS),
                _ => Simulator::new(topology).run(INPUTS),
            })
            .collect();
        assert!(references[1].deadlocked && references[2].completed);

        let mut jobs: Vec<(usize, bool, JobHandle)> = Vec::with_capacity(JOBS);
        for _ in 0..JOBS / PER_POOL {
            let pool = SharedPool::new(2);
            for i in 0..PER_POOL {
                let n = jobs.len();
                if i >= WINDOW {
                    jobs[n - WINDOW].2.wait();
                }
                let (topology, mode) = &kinds[n % kinds.len()];
                let handle = pool.submit_with(topology, mode.clone(), INPUTS);
                let cancelled = n % 3 == 0 && handle.cancel();
                jobs.push((n, cancelled, handle));
            }
            // `pool` is dropped here, with up to `WINDOW` jobs still live.
        }
        let mut dropped = 0;
        for (n, cancelled, handle) in &jobs {
            let report = handle.wait();
            let verdict = handle.verdict();
            if *cancelled || verdict == Some(JobVerdict::Cancelled) {
                assert_eq!(verdict, Some(JobVerdict::Cancelled), "job {n}");
                dropped += usize::from(!*cancelled);
                continue;
            }
            let reference = &references[n % kinds.len()];
            assert_eq!(report.completed, reference.completed, "job {n}");
            assert_eq!(report.deadlocked, reference.deadlocked, "job {n}");
            assert_eq!(report.per_edge_data, reference.per_edge_data, "job {n}");
            assert_eq!(
                report.per_edge_dummies, reference.per_edge_dummies,
                "job {n}"
            );
        }
        eprintln!("{dropped} jobs were still live when their pool was dropped");
    });
}

#[test]
fn verdicts_stay_exact_with_deadlockers_among_healthy_jobs() {
    with_watchdog(Duration::from_secs(120), || {
        let (_, wedged) = fig2_deadlocker(2);
        let wedged_reference = Simulator::new(&wedged).run(300);
        assert!(wedged_reference.deadlocked);

        let healthy_graph = fig2_triangle(2);
        let plan = Arc::new(
            Planner::new(&healthy_graph)
                .algorithm(Algorithm::NonPropagation)
                .plan()
                .unwrap(),
        );
        let (_, healthy) = fig2_deadlocker(2);
        let healthy_reference = Simulator::new(&healthy)
            .with_shared_plan(Arc::clone(&plan))
            .run(300);
        assert!(healthy_reference.completed && healthy_reference.dummy_messages > 0);

        // A job in the mix whose behaviour takes its time: while one worker
        // sits in its slices the other must take what is queued behind it,
        // so the steal path runs too.
        let slow_graph = pipeline(6, 4);
        let first = slow_graph.single_source().unwrap();
        let slow = Topology::from_graph(&slow_graph).with(first, || {
            Predicate::new(1, |_seq, _out| {
                std::thread::sleep(Duration::from_micros(50));
                true
            })
        });

        for workers in [1, 2, 4] {
            let pool = SharedPool::new(workers);
            let mut jobs = Vec::new();
            for round in 0..40 {
                jobs.push((true, pool.submit(&wedged, 300)));
                let mode = AvoidanceMode::Plan(Arc::clone(&plan));
                jobs.push((false, pool.submit_with(&healthy, mode, 300)));
                if round % 8 == 0 {
                    let handle = pool.submit(&slow, 40);
                    assert!(handle.wait().completed, "workers {workers}: slow job");
                }
            }
            for (deadlocker, handle) in &jobs {
                let report = handle.wait();
                let reference = if *deadlocker {
                    assert_eq!(handle.verdict(), Some(JobVerdict::Deadlocked));
                    assert!(report.deadlocked && !report.blocked.is_empty());
                    &wedged_reference
                } else {
                    assert_eq!(handle.verdict(), Some(JobVerdict::Completed));
                    &healthy_reference
                };
                assert_eq!(
                    report.per_edge_data, reference.per_edge_data,
                    "workers {workers}"
                );
                assert_eq!(
                    report.per_edge_dummies, reference.per_edge_dummies,
                    "workers {workers}"
                );
                assert_eq!(
                    report.sink_firings, reference.sink_firings,
                    "workers {workers}"
                );
                let blocked = |r: &ExecutionReport| {
                    let mut nodes: Vec<_> = r.blocked.iter().map(|b| b.node).collect();
                    nodes.sort();
                    nodes
                };
                assert_eq!(blocked(&report), blocked(reference), "workers {workers}");
            }
        }
    });
}

#[test]
fn a_long_slice_does_not_hold_up_an_independent_job() {
    // Work conservation: while one worker sits in a 100 ms slice, whatever
    // is queued — the rest of that job on its deque, a new job in the
    // injector — is the other worker's to take.  A scheduler that hides a
    // busy worker's deque, or lets the peer sleep through pushes onto it,
    // settles the small job only after the slow one.
    with_watchdog(Duration::from_secs(60), || {
        let slow_graph = pipeline(3, 2);
        let source = slow_graph.single_source().unwrap();
        let slow_topology = Topology::from_graph(&slow_graph).with(source, || {
            Predicate::new(1, |_seq, _out| {
                std::thread::sleep(Duration::from_millis(100));
                true
            })
        });
        let small_graph = pipeline(3, 2);
        let small_topology = Topology::from_graph(&small_graph);
        for round in 0..3 {
            let pool = SharedPool::new(2);
            let slow = pool.submit(&slow_topology, 4);
            if round > 0 {
                // Also with the slow job already inside its first slice.
                std::thread::sleep(Duration::from_millis(5 * round));
            }
            let small = pool.submit(&small_topology, 10);
            let report = small.wait();
            assert!(report.completed, "{report:?}");
            assert_eq!(
                slow.verdict(),
                None,
                "round {round}: the small job waited for the slow one"
            );
            assert!(slow.wait().completed);
        }
    });
}

#[test]
fn a_certification_row_does_not_hold_up_an_independent_job() {
    // A cold certification on a 2-worker service offers its six rows: one
    // parked worker is unparked and works rows, each to its end, while the
    // other stays parked.  The row runner is neither searching nor parked,
    // so a job submitted behind it unparks the other worker, which runs it.
    // A row runner counted as a searcher would suppress that unpark: the
    // parked worker would sleep on, and the job would wait for the runner to
    // find no row left to claim and then run it on the runner's lane.  The
    // telemetry lanes, not a stopwatch or a count of rows finished, say
    // which happened: the worker parked when the job was submitted is woken
    // while the job is in flight and fires every one of its tasks.  Both
    // workers are asleep before the rows are offered, so the one the offer
    // leaves asleep is there to be woken however the host schedules them.
    with_watchdog(Duration::from_secs(120), || {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 1_024,
            max_fanout: 4,
            capacity_range: (2, 8),
            seed: 33,
        });
        let periods: Vec<u64> =
            g.node_ids().map(|n| if g.out_degree(n) > 1 { 3 } else { 1 }).collect();
        let service = Arc::new(JobService::new(ServiceConfig {
            workers: 2,
            telemetry: true,
            ..ServiceConfig::default()
        }));
        let spec = JobSpec::from_periods(g, periods, 8, Some(Algorithm::NonPropagation));
        let rows = || {
            let (caller, pool) = certify_runs();
            (caller + pool, pool)
        };
        // Both workers asleep before the rows are offered.
        let telemetry = service.telemetry().unwrap().clone();
        let parks = || {
            let lanes = telemetry.sched_counters();
            lanes[..2].iter().map(|lane| lane[SchedCounter::Park as usize]).min()
        };
        while parks() == Some(0) {
            std::thread::sleep(Duration::from_micros(100));
        }
        let before = rows();
        let cold = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.submit(spec).map(|ticket| ticket.wait().verdict))
        };
        // A worker that has finished a row is working the table.
        while rows().1 == before.1 && !cold.is_finished() {
            std::thread::sleep(Duration::from_micros(100));
        }
        let small = JobSpec::new(pipeline(3, 2), FilterSpec::Broadcast, 10).unplanned();
        assert!(service.submit(small).unwrap().wait().report.completed);
        let finished = rows().0 - before.0;
        assert_eq!(cold.join().unwrap(), Ok(JobVerdict::Completed));
        assert_eq!(rows().0 - before.0, 6);
        assert!(rows().1 > before.1, "a worker took rows");

        // The small job reached the pool first: the cold one waits for its
        // certification.
        let events = telemetry.all_events();
        let jobs = events.iter().filter(|e| e.kind == EventKind::Job);
        let job = jobs.min_by_key(|e| e.job).unwrap();
        let parked: Vec<_> = (events.iter())
            .filter(|e| e.kind == EventKind::Park)
            .filter(|e| e.t_start_ns <= job.t_start_ns && job.t_start_ns < e.t_end_ns)
            .collect();
        assert_eq!(parked.len(), 1, "one worker sleeps, one runs rows: {parked:?}");
        let (sleeper, woken) = (parked[0].worker, parked[0].t_end_ns);
        let lanes: Vec<u16> = (events.iter())
            .filter(|e| e.kind == EventKind::Firing && e.job == job.job)
            .map(|e| e.worker)
            .collect();
        eprintln!("the small job fired on lanes {lanes:?}; {finished} of six rows finished");
        assert!(woken <= job.t_end_ns, "the sleeper was not woken for the small job");
        assert!(
            !lanes.is_empty() && lanes.iter().all(|&lane| lane == sleeper),
            "the small job ran on {lanes:?}, not on the woken lane {sleeper}"
        );
    });
}

#[test]
fn a_ping_pong_pair_cannot_starve_small_jobs_on_one_worker() {
    // A capacity-1 two-node pipeline is a producer and a consumer waking
    // each other through the run-next slot for as long as it runs.  Without
    // the fairness turn it would own the only worker until it finished; with
    // it, 200 small jobs submitted meanwhile all settle first.
    with_watchdog(Duration::from_secs(120), || {
        let pool = SharedPool::new(1);
        let long_graph = pipeline(2, 1);
        let long_topology = Topology::from_graph(&long_graph);
        let small_graph = pipeline(3, 2);
        let small_topology = Topology::from_graph(&small_graph);

        let long = pool.submit(&long_topology, 3_000_000);
        while long.observe().per_node_firings[0] == 0 {
            std::thread::yield_now();
        }
        let small: Vec<JobHandle> = (0..200).map(|_| pool.submit(&small_topology, 10)).collect();
        for (i, handle) in small.iter().enumerate() {
            let report = handle.wait();
            assert!(report.completed, "small job {i}: {report:?}");
            assert_eq!(report.sink_firings, 10);
        }
        assert_eq!(
            long.verdict(),
            None,
            "the long pipeline finished before the small jobs got their turn"
        );
        long.cancel();
    });
}

#[test]
fn an_unbounded_buffer_cannot_starve_small_jobs_on_one_worker() {
    // A source over a channel that never fills renews its budget instead of
    // yielding (E39).  A slice that ran until its task blocked would make
    // the whole stream in one go, and the sink would drain it in one more,
    // both holding their task locks throughout.  Renewals are counted per
    // slice and refused while the injector holds work, so 200 small jobs
    // submitted once the sink has fired all settle first.
    with_watchdog(Duration::from_secs(120), || {
        let pool = SharedPool::new(1);
        let long = pool.submit(&Topology::from_graph(&pipeline(2, 1 << 40)), 10_000_000);
        while long.observe().per_node_firings[1] == 0 {
            std::thread::yield_now();
        }
        let small_topology = Topology::from_graph(&pipeline(3, 2));
        let small: Vec<JobHandle> = (0..200).map(|_| pool.submit(&small_topology, 10)).collect();
        for (i, handle) in small.iter().enumerate() {
            let report = handle.wait();
            assert!(report.completed, "small job {i}: {report:?}");
            assert_eq!(report.sink_firings, 10);
        }
        assert_eq!(
            long.verdict(),
            None,
            "the long job finished before the small jobs got their turn"
        );
        long.cancel();
    });
}

#[test]
fn a_coarse_wide_job_runs_on_both_workers() {
    // The sharing side of keeping a job on its home worker (E38): a job
    // whose tasks fire for ≈ 200 µs each must still spread over both
    // workers.  One source forks into eight three-node branches joined by
    // one sink, and every middle node takes ≈ 200 µs per firing, so while
    // the home worker runs one branch the others' tasks wait on its deque
    // long past a spin budget.  The telemetry lanes, not a stopwatch, say
    // who fired: each worker's firing spans must cover at least a third of
    // the job's firing time.  The middle nodes sleep rather than spin: the
    // scheduler cannot tell the two apart, and two spinning workers would
    // starve this file's timing-sensitive tests, which run alongside.
    const BRANCHES: usize = 8;
    const FIRING: Duration = Duration::from_micros(200);
    with_watchdog(Duration::from_secs(60), || {
        let mut b = GraphBuilder::new().default_capacity(4);
        for branch in 0..BRANCHES {
            let names = [format!("a{branch}"), format!("m{branch}"), format!("b{branch}")];
            b.chain(&["s", &names[0], &names[1], &names[2], "t"]).unwrap();
        }
        let g = b.build().unwrap();
        let middles: Vec<_> = (0..BRANCHES)
            .map(|branch| g.node_by_name(&format!("m{branch}")).unwrap())
            .collect();
        let topology = middles.iter().fold(Topology::from_graph(&g), |topology, &m| {
            topology.with(m, || {
                Predicate::new(1, |_seq, _out| {
                    std::thread::sleep(FIRING);
                    true
                })
            })
        });
        let pool = SharedPool::with(PoolOptions {
            workers: 2,
            telemetry: true,
            ..PoolOptions::default()
        });
        let report = pool.submit(&topology, 40).wait();
        assert!(report.completed, "{report:?}");
        assert_eq!(report.sink_firings, 40);
        let events = pool.telemetry_handle().unwrap().all_events();
        let firings: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Firing).collect();
        let start = firings.iter().map(|e| e.t_start_ns).min().unwrap();
        let end = firings.iter().map(|e| e.t_end_ns).max().unwrap();
        let mut covered = [0u64; 2];
        for e in &firings {
            covered[usize::from(e.worker)] += e.duration_ns();
        }
        let window = end - start;
        eprintln!("firing time {window} ns, covered per worker {covered:?}");
        for (worker, &ns) in covered.iter().enumerate() {
            assert!(
                3 * ns >= window,
                "worker {worker} fired {ns} ns of the job's {window} ns: {covered:?}"
            );
        }
    });
}
