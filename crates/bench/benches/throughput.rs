//! Runtime-engine throughput on wide and deep generated DAGs across filter
//! rates — the scaling benchmark behind the worklist-scheduler and
//! pooled-engine optimisations.
//!
//! Every simulator workload is measured under both schedulers so the
//! speedup of the event-driven worklist over the `O(V)`-per-step reference
//! scan is read directly off one run.  The pooled work-stealing engine is
//! swept over worker counts × node counts × filter rates (E15).
//!
//! Set `FILA_BENCH_FAST=1` to run a tiny smoke configuration (used by CI to
//! catch bench rot), and `FILA_BENCH_JSON=<path>` to emit the
//! machine-readable record file (see the vendored criterion shim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fila_avoidance::{Algorithm, Planner};
use fila_graph::Graph;
use fila_runtime::{
    Batching, JobVerdict, PoolOptions, PooledExecutor, Scheduler, SharedPool, Simulator, Topology,
};
use fila_service::{JobService, JobSpec, ServiceConfig};
use fila_workloads::generators::{
    periodic_filtered_topology, pipeline_graph, random_ladder, random_sp_dag, GeneratorConfig,
    LadderConfig,
};
use fila_workloads::jobs::{job_mix, JobKind, JobShape};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

fn fast() -> bool {
    std::env::var_os("FILA_BENCH_FAST").is_some()
}

const SCHEDULERS: [(Scheduler, &str); 2] = [
    (Scheduler::Worklist, "worklist"),
    (Scheduler::Scan, "scan"),
];

/// A linear pipeline of `n` nodes (capacity 4).  `reversed` declares the
/// nodes against the flow direction, so node ids are anti-topological: the
/// scan scheduler then advances each message only one hop per full `O(n)`
/// sweep (its generic behaviour on graphs whose declaration order does not
/// happen to match the dataflow), while with forward ids a single sweep
/// luckily rides a message all the way down.  The worklist scheduler and
/// the concurrent engines are insensitive to declaration order.
fn pipeline(n: usize, reversed: bool) -> Graph {
    pipeline_graph(n, 4, reversed)
}

/// The canonical period filter on every node (see
/// [`fila_workloads::generators::periodic_filtered_topology`]; period 1 =
/// broadcast, no filtering).
fn filtered_topology(g: &Graph, period: u64) -> Topology {
    periodic_filtered_topology(g, |_| period)
}

/// Filters only at the single source (the fork-filtering scenario of the
/// paper's Figs. 1–3, which every planner algorithm protects on every graph
/// class); interior nodes broadcast (period 1).
fn fork_filtered_topology(g: &Graph, period: u64) -> Topology {
    let source = g.single_source().unwrap();
    periodic_filtered_topology(g, |n| if n == source { period } else { 1 })
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_pipeline");
    group.sample_size(if fast() { 3 } else { 10 });
    let sizes: &[usize] = if fast() { &[32] } else { &[64, 256, 1024, 4096] };
    let inputs = 32;
    for &n in sizes {
        for (reversed, order) in [(false, "fwd"), (true, "rev")] {
            let g = pipeline(n, reversed);
            let topo = Topology::from_graph(&g);
            for (scheduler, name) in SCHEDULERS {
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}/{order}/nodes"), n),
                    &n,
                    |b, _| {
                        b.iter(|| {
                            let report = Simulator::new(&topo).scheduler(scheduler).run(inputs);
                            assert!(report.completed);
                            black_box(report.data_messages)
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_wide_sp(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_sp");
    group.sample_size(if fast() { 3 } else { 10 });
    let sizes: &[usize] = if fast() { &[48] } else { &[256, 1024] };
    let rates: &[u64] = if fast() { &[4] } else { &[1, 4, 16] };
    let inputs = if fast() { 32 } else { 128 };
    for &edges in sizes {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: edges,
            max_fanout: 4,
            capacity_range: (2, 8),
            seed: 0xF11A + edges as u64,
        });
        // Non-Propagation handles filtering at interior nodes, which the
        // random per-node filters below produce.  The plan is shared via
        // Arc so the timed region never copies the interval table.
        let plan = Arc::new(
            Planner::new(&g)
                .algorithm(Algorithm::NonPropagation)
                .plan()
                .unwrap(),
        );
        for &rate in rates {
            let topo = filtered_topology(&g, rate);
            for (scheduler, name) in SCHEDULERS {
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("{name}/edges{edges}"),
                        format!("rate{rate}"),
                    ),
                    &rate,
                    |b, _| {
                        b.iter(|| {
                            let report = Simulator::new(&topo)
                                .with_shared_plan(Arc::clone(&plan))
                                .scheduler(scheduler)
                                .run(inputs);
                            assert!(report.completed, "{report:?}");
                            black_box(report.data_messages + report.dummy_messages)
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_ladder");
    group.sample_size(if fast() { 3 } else { 10 });
    let sizes: &[usize] = if fast() { &[8] } else { &[85, 341] };
    let rates: &[u64] = if fast() { &[16] } else { &[1, 16] };
    let inputs = if fast() { 32 } else { 128 };
    for &rungs in sizes {
        let g = random_ladder(&LadderConfig {
            rungs,
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: 0x1ADD + rungs as u64,
        });
        let plan = Arc::new(
            Planner::new(&g)
                .algorithm(Algorithm::NonPropagation)
                .plan()
                .unwrap(),
        );
        for &rate in rates {
            let topo = fork_filtered_topology(&g, rate);
            for (scheduler, name) in SCHEDULERS {
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("{name}/rungs{rungs}"),
                        format!("rate{rate}"),
                    ),
                    &rate,
                    |b, _| {
                        b.iter(|| {
                            let report = Simulator::new(&topo)
                                .with_shared_plan(Arc::clone(&plan))
                                .scheduler(scheduler)
                                .run(inputs);
                            assert!(report.completed, "{report:?}");
                            black_box(report.data_messages + report.dummy_messages)
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

/// The E15 scaling sweep: the pooled work-stealing engine over worker
/// counts × pipeline sizes × filter rates, with the exact-verdict simulator
/// as the single-threaded baseline.
///
/// The pipeline is declared anti-topologically (ids against the flow), the
/// adversarial order for id-driven scheduling; the concurrent engines are
/// insensitive to it.
fn bench_pooled_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_pooled");
    group.sample_size(if fast() { 2 } else { 10 });
    let sizes: &[usize] = if fast() { &[64] } else { &[1024, 4096, 16384] };
    let worker_counts: &[usize] = if fast() { &[2] } else { &[1, 2, 4, 8] };
    let rates: &[u64] = if fast() { &[4] } else { &[1, 4] };
    let inputs = 32;
    for &n in sizes {
        let g = pipeline(n, true);
        for &rate in rates {
            let topo = filtered_topology(&g, rate);
            group.bench_with_input(
                BenchmarkId::new(format!("sim/rate{rate}/nodes"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let report = Simulator::new(&topo).run(inputs);
                        assert!(report.completed, "{report:?}");
                        black_box(report.total_messages())
                    })
                },
            );
            for &workers in worker_counts {
                group.bench_with_input(
                    BenchmarkId::new(format!("pooled/w{workers}/rate{rate}/nodes"), n),
                    &n,
                    |b, _| {
                        b.iter(|| {
                            let report =
                                PooledExecutor::new(&topo).workers(workers).run(inputs);
                            assert!(report.completed, "{report:?}");
                            black_box(report.total_messages())
                        })
                    },
                );
            }
        }
    }

    // E22: the container-batching sweep — the largest pipeline of the run,
    // swept over per-container message limits.  `batch/1` carries one
    // message per container (the scalar engine's exact channel traffic,
    // plus the container bookkeeping); larger limits amortise ring
    // crossings, wake checks and threshold lookups over whole runs.
    // Unlike the capacity-4 scaling sweep above, this workload gives
    // batching room to form runs: capacity-256 channels and a long input
    // stream, so container fills are capacity-bound (tens of messages)
    // rather than ring-bound, and the fixed ring/topology setup — the
    // dominant per-iteration constant at 16 k edges — is amortised away.
    // One worker reads the per-core per-message cost directly.
    {
        let n = *sizes.last().expect("sweep has sizes");
        let g = pipeline_graph(n, 256, true);
        let topo = filtered_topology(&g, 1);
        let workers = if fast() { 2 } else { 1 };
        let batch_inputs = if fast() { 64 } else { 4096 };
        for &limit in &[1u32, 16, 256] {
            group.bench_with_input(
                BenchmarkId::new(format!("batch/{limit}/nodes"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let report = PooledExecutor::new(&topo)
                            .workers(workers)
                            .batching(Batching::Messages(limit))
                            .run(batch_inputs);
                        assert!(report.completed, "{report:?}");
                        black_box(report.total_messages())
                    })
                },
            );
        }
    }
    group.finish();
}

/// The E21 flight-recorder overhead pair: the identical pooled pipeline
/// workload on a [`SharedPool`] with the recorder off vs on.
///
/// * `off` — the production configuration; no recorder exists and every
///   telemetry hook is a never-taken `None` branch, so the disabled cost
///   is zero by construction (asserted structurally below: the pool hands
///   out no handle at all, i.e. it runs the same code path PR 8 shipped);
/// * `on` — per-worker rings record firing / steal / park / blocked-stall
///   spans and the settle path drains them, exactly what
///   `fila storm --trace` pays.
///
/// The full (non-fast) run additionally guards the headline claim quoted
/// in EXPERIMENTS.md E21: enabled CPU cost within 5 % of disabled, over
/// 30 interleaved pairs (see the comment at the guard for why CPU time,
/// not wall clock).
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_pooled");
    group.sample_size(if fast() { 2 } else { 10 });
    let n = if fast() { 64 } else { 16384 };
    let inputs = 32;
    let g = pipeline(n, true);
    let topo = filtered_topology(&g, 4);
    let run = |pool: &SharedPool| {
        let report = pool.submit(&topo, inputs).wait();
        assert!(report.completed, "{report:?}");
        report.total_messages()
    };
    let off = SharedPool::new(2);
    assert!(
        off.telemetry_handle().is_none(),
        "disabled pool must carry no recorder (zero cost by construction)"
    );
    let on = SharedPool::with(PoolOptions {
        workers: 2,
        telemetry: true,
        ..PoolOptions::default()
    });
    let recorder = on.telemetry_handle().expect("enabled pool records");
    group.bench_with_input(BenchmarkId::new("telemetry/off/nodes", n), &n, |b, _| {
        b.iter(|| black_box(run(&off)))
    });
    group.bench_with_input(BenchmarkId::new("telemetry/on/nodes", n), &n, |b, _| {
        b.iter(|| {
            let messages = run(&on);
            black_box(recorder.drain_new().len());
            black_box(messages)
        })
    });
    if !fast() {
        // CPU time, not wall clock: two worker threads multiplexed onto a
        // busy shared core make wall-clock minima drift by ±30 % between
        // rounds, which can never resolve a 5 % bound.  The total CPU the
        // process consumes (per-thread schedstat, nanosecond resolution)
        // is schedule-noise-resistant, and interleaving the pairs lets
        // slow drift (thermal, co-tenants) hit both sides equally; 30
        // pairs bring the aggregate ratio's run-to-run scatter to ~±1.5 %
        // on a loaded single-core worker, against a measured ~1–2 % true
        // overhead.
        'guard: {
            let Some(mut prev) = process_cpu_ns() else {
                eprintln!("telemetry overhead guard skipped: no readable schedstat");
                break 'guard;
            };
            black_box(run(&off));
            black_box(run(&on));
            black_box(recorder.drain_new().len());
            let (mut cpu_off, mut cpu_on) = (0u64, 0u64);
            for _ in 0..30 {
                black_box(run(&off));
                let Some(mid) = process_cpu_ns() else { break 'guard };
                black_box(run(&on));
                black_box(recorder.drain_new().len());
                let Some(end) = process_cpu_ns() else { break 'guard };
                cpu_off += mid.saturating_sub(prev);
                cpu_on += end.saturating_sub(mid);
                prev = end;
            }
            let ratio = cpu_on as f64 / cpu_off as f64;
            eprintln!(
                "telemetry overhead: cpu off {:.1}ms on {:.1}ms ratio {ratio:.4}",
                cpu_off as f64 / 1e6,
                cpu_on as f64 / 1e6
            );
            assert!(
                ratio < 1.05,
                "enabled telemetry overhead must stay under 5% (cpu ratio {ratio:.4})"
            );
        }
    }
    group.finish();
}

/// Total CPU nanoseconds consumed so far by every live thread of this
/// process (`/proc/self/task/*/schedstat`, first field).  `None` where
/// per-thread schedstat is unavailable — the telemetry-overhead guard then
/// reports instead of asserting, because wall clock on a shared worker
/// cannot bound a 5 % effect.
fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    let mut seen = false;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        if let Some(first) = std::fs::read_to_string(path)
            .ok()
            .as_deref()
            .and_then(|s| s.split_whitespace().next())
        {
            total += first.parse::<u64>().ok()?;
            seen = true;
        }
    }
    seen.then_some(total)
}

/// Time to *detect* a deadlock on an unprotected, heavily filtering ladder:
/// the scan scheduler needs a full unproductive sweep over all nodes, the
/// worklist simply runs its ready queue dry, and the pooled engine parks
/// its pool — all three verdicts are exact (no quiet-period timeout is
/// involved).
fn bench_deadlock_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_deadlock");
    group.sample_size(if fast() { 3 } else { 10 });
    let sizes: &[usize] = if fast() { &[8] } else { &[85, 341] };
    let inputs = if fast() { 32 } else { 128 };
    for &rungs in sizes {
        let g = random_ladder(&LadderConfig {
            rungs,
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: 0x1ADD + rungs as u64,
        });
        let topo = filtered_topology(&g, 4);
        for (scheduler, name) in SCHEDULERS {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/rungs"), rungs),
                &rungs,
                |b, _| {
                    b.iter(|| {
                        let report = Simulator::new(&topo).scheduler(scheduler).run(inputs);
                        assert!(report.deadlocked, "{report:?}");
                        black_box(report.blocked.len())
                    })
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new("pooled/rungs", rungs),
            &rungs,
            |b, _| {
                b.iter(|| {
                    let report = PooledExecutor::new(&topo).workers(2).run(inputs);
                    assert!(report.deadlocked, "{report:?}");
                    black_box(report.blocked.len())
                })
            },
        );
    }
    group.finish();
}

/// The E16 service sweep: one `JobService` executing batches of planned
/// jobs (SP DAGs + CS4 ladders from the template mix) concurrently on its
/// shared pool, **cold** vs **warm** plan cache.
///
/// Both variants submit the identical shape stream through the identical
/// steady-state service; the only difference is fingerprint novelty:
///
/// * `warm` — the template shapes as generated; after a pre-warming pass
///   every submission's plan is a cache hit;
/// * `cold` — each submission perturbs one buffer capacity with a
///   globally unique value, so every job carries a never-seen structural
///   fingerprint and must be planned from scratch.
///
/// The gap between the two is exactly the planning work the structural
/// plan cache amortises for repeat-template traffic.
fn bench_service_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_jobs");
    group.sample_size(if fast() { 2 } else { 10 });
    let job_counts: &[usize] = if fast() { &[8] } else { &[64, 256, 1024] };
    for &jobs in job_counts {
        // Planned kinds only (SP DAGs + ladders): the cold/warm delta is
        // about planning, so unplanned pipelines would only dilute it.
        let shapes: Vec<JobShape> = job_mix(0xF11A ^ jobs as u64, jobs * 3)
            .into_iter()
            .filter(|s| matches!(s.kind, JobKind::SpDag | JobKind::Ladder))
            .take(jobs)
            .collect();
        assert_eq!(shapes.len(), jobs, "mix must yield enough planned shapes");
        let spec_of = |shape: &JobShape| {
            JobSpec::from_periods(
                shape.graph.clone(),
                shape.periods.clone(),
                shape.inputs,
                shape.avoidance,
            )
        };
        let service = JobService::new(ServiceConfig {
            max_in_flight: jobs,
            plan_cache_capacity: 8 * jobs,
            ..ServiceConfig::default()
        });
        let run_batch = |make_spec: &dyn Fn(&JobShape) -> JobSpec| {
            let tickets: Vec<_> = shapes
                .iter()
                .map(|s| service.submit(make_spec(s)).expect("admitted"))
                .collect();
            let mut messages = 0u64;
            for t in &tickets {
                let outcome = t.wait();
                assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
                messages += outcome.report.total_messages();
            }
            messages
        };
        // Pre-warm: one pass caches every template's plan.
        run_batch(&spec_of);
        group.bench_with_input(BenchmarkId::new("warm/jobs", jobs), &jobs, |b, _| {
            b.iter(|| black_box(run_batch(&spec_of)))
        });
        let unique = Cell::new(0u64);
        let perturbed = |shape: &JobShape| {
            let mut spec = spec_of(shape);
            // Encode counter+1 so even the first cold submission differs
            // from the (pre-warmed) unperturbed template.
            let mut bump = unique.get() + 1;
            unique.set(bump);
            // A globally unique capacity *combination* ⇒ a never-seen
            // fingerprint ⇒ a fresh plan, in every sample of every
            // iteration — encoded base-8 across the edges so each
            // capacity moves by at most +7 (runtime behaviour stays
            // comparable to the warm variant instead of drifting as the
            // counter grows).  Growing a buffer never introduces a
            // deadlock, so completion verdicts are preserved.
            for e in spec.graph.edge_ids().collect::<Vec<_>>() {
                let digit = bump % 8;
                bump /= 8;
                if digit > 0 {
                    let cap = spec.graph.capacity(e);
                    spec.graph
                        .set_capacity(e, cap + digit)
                        .expect("non-zero capacity");
                }
                if bump == 0 {
                    break;
                }
            }
            spec
        };
        group.bench_with_input(BenchmarkId::new("cold/jobs", jobs), &jobs, |b, _| {
            b.iter(|| black_box(run_batch(&perturbed)))
        });
    }
    group.finish();
}

/// The E17 certification-overhead sweep: what does the filtering-aware
/// certification gate cost **relative to planning** the same shape?  Three
/// labels per shape:
///
/// * `plan` — structural planning alone (the pre-certification admission
///   cost);
/// * `certify` — `Planner::certify` end to end (plan + bounded model check
///   of the declared profile and the adversarial family, including any
///   fallback);
/// * `cached_verdict` — a warm `PlanCache::certify` lookup, the steady-state
///   per-submission cost the service actually pays for repeat shapes.
fn bench_certification(c: &mut Criterion) {
    use fila_avoidance::{PlanCache, Rounding};
    let mut group = c.benchmark_group("certification");
    group.sample_size(if fast() { 2 } else { 10 });
    let ladder_rungs: &[usize] = if fast() { &[8] } else { &[8, 16, 32] };
    for &rungs in ladder_rungs {
        let g = random_ladder(&LadderConfig {
            rungs,
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: 0x1ADD + rungs as u64,
        });
        let periods: Vec<u64> = g.node_ids().map(|_| 16).collect();
        group.bench_with_input(
            BenchmarkId::new("plan/ladder/rungs", rungs),
            &rungs,
            |b, _| {
                b.iter(|| {
                    black_box(
                        Planner::new(&g)
                            .algorithm(Algorithm::NonPropagation)
                            .plan()
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("certify/ladder/rungs", rungs),
            &rungs,
            |b, _| {
                b.iter(|| {
                    let certified = Planner::new(&g)
                        .algorithm(Algorithm::NonPropagation)
                        .certify(&periods)
                        .unwrap();
                    assert!(!certified.fell_back);
                    black_box(certified.certification.inputs)
                })
            },
        );
        let cache = PlanCache::new(64);
        // Warm the verdict once; the timed loop is the steady-state hit.
        cache
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 512, &periods)
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("cached_verdict/ladder/rungs", rungs),
            &rungs,
            |b, _| {
                b.iter(|| {
                    let hit = cache
                        .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 512, &periods)
                        .unwrap();
                    assert!(hit.hit);
                    black_box(hit.fell_back)
                })
            },
        );
    }
    // One SP shape for the quadratic-planner comparison point.
    let edges = if fast() { 24 } else { 128 };
    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: edges,
        max_fanout: 3,
        capacity_range: (2, 8),
        seed: 0xF11A,
    });
    let periods: Vec<u64> = g.node_ids().map(|_| 8).collect();
    group.bench_with_input(BenchmarkId::new("plan/sp/edges", edges), &edges, |b, _| {
        b.iter(|| {
            black_box(
                Planner::new(&g)
                    .algorithm(Algorithm::NonPropagation)
                    .plan()
                    .unwrap(),
            )
        })
    });
    group.bench_with_input(
        BenchmarkId::new("certify/sp/edges", edges),
        &edges,
        |b, _| {
            b.iter(|| {
                black_box(
                    Planner::new(&g)
                        .algorithm(Algorithm::NonPropagation)
                        .certify(&periods)
                        .unwrap()
                        .certification
                        .inputs,
                )
            })
        },
    );
    // The ledger's `admit_cold` shapes and profiles (period 3 at every SP
    // fork / at the ladder source), so its two dominant spans have rows here.
    let cold_ladders = [192usize, 256].map(|edges| {
        let g = random_ladder(&LadderConfig {
            rungs: edges / 3, // 3·rungs + 2 edges
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: 0xC01D + edges as u64,
        });
        let periods: Vec<u64> =
            g.node_ids().map(|n| if g.in_degree(n) == 0 { 3 } else { 1 }).collect();
        ("cold_ladder/edges", edges, g, periods)
    });
    let cold_sp = [256usize, 512].map(|edges| {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: edges,
            max_fanout: 4,
            capacity_range: (2, 8),
            seed: 0xC01D + edges as u64,
        });
        let periods: Vec<u64> =
            g.node_ids().map(|n| if g.out_degree(n) > 1 { 3 } else { 1 }).collect();
        ("cold_sp/edges", edges, g, periods)
    });
    for (kind, edges, g, periods) in cold_ladders.iter().chain(&cold_sp) {
        let planner = Planner::new(g).algorithm(Algorithm::NonPropagation);
        group.bench_with_input(BenchmarkId::new(format!("plan/{kind}"), edges), edges, |b, _| {
            b.iter(|| black_box(planner.plan().unwrap()))
        });
        group.bench_with_input(
            BenchmarkId::new(format!("certify/{kind}"), edges),
            edges,
            |b, _| b.iter(|| black_box(planner.certify(periods).unwrap().certification.inputs)),
        );
    }
    group.finish();
}

/// The E18 checkpoint/restore overhead sweep on a planned, filtering SP
/// DAG.  Four labels:
///
/// * `uninterrupted` — the plain run, the baseline every other label is
///   read against;
/// * `kill_restore` — the same workload killed halfway (barrier snapshot
///   taken) and restored into a fresh engine that runs it to completion:
///   the end-to-end price of one crash/recovery cycle;
/// * `encode` / `decode` — the versioned wire codec on the captured
///   mid-run snapshot (what a durable checkpoint would pay per write/read).
fn bench_snapshot(c: &mut Criterion) {
    use fila_runtime::{CheckpointOutcome, JobSnapshot};
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(if fast() { 2 } else { 10 });
    let edges = if fast() { 24 } else { 128 };
    let inputs = if fast() { 32 } else { 128 };
    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: edges,
        max_fanout: 3,
        capacity_range: (2, 8),
        seed: 0x5A4B,
    });
    let plan = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap(),
    );
    let topo = filtered_topology(&g, 4);
    let sim = || Simulator::new(&topo).with_shared_plan(Arc::clone(&plan));
    let reference = sim().run(inputs);
    assert!(reference.completed, "{reference:?}");
    // Kill halfway through the reference run's step count, so the snapshot
    // carries a representative mix of in-flight channel state.
    let kill_at = (reference.steps / 2).max(1);
    group.bench_with_input(
        BenchmarkId::new("uninterrupted/edges", edges),
        &edges,
        |b, _| {
            b.iter(|| {
                let report = sim().run(inputs);
                assert!(report.completed);
                black_box(report.total_messages())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("kill_restore/edges", edges),
        &edges,
        |b, _| {
            b.iter(|| {
                let s = sim();
                let CheckpointOutcome::Killed(snapshot) =
                    s.run_with_checkpoint(inputs, kill_at)
                else {
                    panic!("halfway kill point must interrupt");
                };
                let resumed = s.resume(&snapshot).expect("same plan restores");
                assert_eq!(resumed.per_edge_data, reference.per_edge_data);
                black_box(resumed.total_messages())
            })
        },
    );
    let snapshot = match sim().run_with_checkpoint(inputs, kill_at) {
        CheckpointOutcome::Killed(s) => s,
        CheckpointOutcome::Finished(_) => panic!("halfway kill point must interrupt"),
    };
    group.bench_with_input(BenchmarkId::new("encode/edges", edges), &edges, |b, _| {
        b.iter(|| black_box(snapshot.to_bytes()))
    });
    let bytes = snapshot.to_bytes();
    group.bench_with_input(BenchmarkId::new("decode/edges", edges), &edges, |b, _| {
        b.iter(|| black_box(JobSnapshot::from_bytes(&bytes).expect("own bytes decode")))
    });
    group.finish();
}

/// The E19 adaptive-runtime sweep: what does drift supervision cost when
/// nothing drifts, and what does a certified plan hot-swap cost when
/// something does?  Labels:
///
/// * `unsupervised` / `supervised` — the identical honest job executed
///   bare vs under the polling supervisor.  The firing hot path is
///   untouched by supervision (the counters it reads exist regardless),
///   so the delta is the cost of the poll loop's periodic one-lock-per-
///   node counter observations;
/// * `hot_swap/warm` — a drifting job detected mid-flight, barrier-
///   snapshotted and resumed under a plan whose certification verdict for
///   the observed profile is already cached (the service's steady-state
///   fast path);
/// * `hot_swap/cold` — the same migration where every iteration carries a
///   never-seen structural fingerprint, so the full re-certification runs
///   inside the swap window.
fn bench_adaptive(c: &mut Criterion) {
    use fila_service::{AdaptiveOutcome, DriftPolicy, FilterSpec};
    use fila_workloads::figures::fig2_triangle;
    use std::time::Duration;

    let mut group = c.benchmark_group("adaptive");
    group.sample_size(if fast() { 2 } else { 10 });

    // --- Detector overhead on an honest job -----------------------------
    // Long enough that the supervisor's settle-detection tail (at most one
    // poll period) is small against the job's wall time, so the label pair
    // reads as the real per-poll observation cost.
    let inputs = if fast() { 20_000 } else { 100_000 };
    let svc = JobService::new(ServiceConfig::default());
    let policy = DriftPolicy::default();
    let honest = JobSpec::new(fig2_triangle(4), FilterSpec::Fork(2), inputs);
    group.bench_with_input(
        BenchmarkId::new("unsupervised/fig2/inputs", inputs),
        &inputs,
        |b, _| {
            b.iter(|| {
                let ticket = svc.submit(honest.clone()).expect("admitted");
                let outcome = ticket.wait();
                assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
                black_box(outcome.report.total_messages())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("supervised/fig2/inputs", inputs),
        &inputs,
        |b, _| {
            b.iter(|| {
                let ticket = svc.submit(honest.clone()).expect("admitted");
                let AdaptiveOutcome::Settled(outcome) = svc.supervise(&honest, ticket, &policy)
                else {
                    panic!("an honest job must settle untouched");
                };
                assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
                black_box(outcome.report.total_messages())
            })
        },
    );

    // --- Hot-swap latency, warm vs cold certification -------------------
    // Inputs sized so the drifting job's wall time (linear in inputs, a
    // couple of ms per 10k in release) dwarfs the detect → certify →
    // snapshot pipeline even on a busy CI worker: the swap must land
    // mid-flight every iteration or the benchmark panics.
    let swap_inputs = if fast() { 100_000 } else { 200_000 };
    let tight = DriftPolicy {
        window: 16,
        breaches: 2,
        poll: Duration::from_micros(50),
        ..DriftPolicy::default()
    };
    let drifting = |buffer: u64| {
        JobSpec::new(fig2_triangle(buffer), FilterSpec::Fork(2), swap_inputs)
            .with_actual_filters(FilterSpec::Fork(4))
    };
    let run_swap = |spec: &JobSpec| -> u64 {
        let ticket = svc.submit(spec.clone()).expect("admitted");
        match svc.supervise(spec, ticket, &tight) {
            AdaptiveOutcome::HotSwapped { outcome, swap }
            | AdaptiveOutcome::Replanned { outcome, swap } => {
                assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
                black_box(swap.latency);
                outcome.report.total_messages()
            }
            other => panic!("a drifting fig2 job must be swapped, got {other:?}"),
        }
    };
    // Pre-warm: one swap caches the observed profile's certification
    // verdict, so every timed warm iteration takes the fast path.
    run_swap(&drifting(4));
    group.bench_with_input(
        BenchmarkId::new("hot_swap/warm/inputs", swap_inputs),
        &swap_inputs,
        |b, _| b.iter(|| black_box(run_swap(&drifting(4)))),
    );
    // Cold: a never-seen buffer capacity per iteration gives each job a
    // fresh structural fingerprint, so certification runs from scratch
    // inside every swap window.  Growing a buffer never introduces a
    // deadlock; capacities stay far below the input count, so the job
    // remains back-pressured and the dynamics comparable to `warm`.
    let unique = Cell::new(4u64);
    group.bench_with_input(
        BenchmarkId::new("hot_swap/cold/inputs", swap_inputs),
        &swap_inputs,
        |b, _| {
            b.iter(|| {
                let buffer = unique.get() + 1;
                unique.set(buffer);
                black_box(run_swap(&drifting(buffer)))
            })
        },
    );
    group.finish();
}

/// The E20 self-healing sweep: end-to-end crash→recovered latency of
/// [`JobService::run_recoverable`] as a function of the auto-checkpoint
/// interval.
///
/// Every iteration builds a fresh service whose pool is armed with the
/// chaos fault plan at a seed for which the *first* job serial
/// deterministically draws a mid-firing worker panic and the recovery
/// incarnations stay unarmed — so each timed run is exactly one injected
/// crash plus one trip down the recovery ladder.  The interval sweep reads
/// the checkpoint-cadence trade directly: a fine cadence recovers from a
/// fresh snapshot (short replay), a coarse cadence replays more, and an
/// interval longer than the job's progress at the crash leaves no snapshot
/// at all, forcing the genesis rung (full re-run) — the priced-in worst
/// case.
fn bench_recovery(c: &mut Criterion) {
    use fila_runtime::FaultPlan;
    use fila_service::{
        CheckpointPolicy, FilterSpec, RecoveryMode, RecoveryOutcome, RecoveryPolicy,
    };
    use fila_workloads::figures::fig2_triangle;

    let mut group = c.benchmark_group("recovery");
    group.sample_size(if fast() { 2 } else { 10 });

    // The injected panics are the workload here — keep their default-hook
    // stack traces out of the bench output, but let real panics through.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.starts_with("injected:"))
            .unwrap_or(false);
        if !injected {
            previous_hook(info);
        }
    }));

    // Seed 66 at rate 0.3: serial 0 is armed with a Firing(47) crash and
    // the following serials are unarmed (the same deterministic pair the
    // service's recovery tests pin), so the crash always lands and the
    // recovery incarnation always survives.
    let inputs = if fast() { 2_048 } else { 4_096 };
    let spec = JobSpec::new(fig2_triangle(4), FilterSpec::Fork(2), inputs);
    let policy = RecoveryPolicy {
        mode: RecoveryMode::Exact,
        ..RecoveryPolicy::default()
    };
    for interval in [256u64, 1_024, 4_096] {
        let checkpoints = CheckpointPolicy {
            every_n_inputs: interval,
            max_snapshots: 4,
        };
        group.bench_with_input(
            BenchmarkId::new("crash_recover/interval", interval),
            &interval,
            |b, _| {
                b.iter(|| {
                    let svc = JobService::new(ServiceConfig {
                        faults: Some(Arc::new(FaultPlan::seeded(66).kill_rate(0.3))),
                        ..ServiceConfig::default()
                    });
                    let outcome = svc
                        .run_recoverable(&spec, &checkpoints, &policy)
                        .expect("admitted");
                    let RecoveryOutcome::Recovered { outcome, report } = outcome else {
                        panic!("serial 0 must crash and recover, got {outcome:?}");
                    };
                    assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
                    black_box((report.crashes, outcome.report.total_messages()))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_wide_sp,
    bench_ladder,
    bench_pooled_scaling,
    bench_telemetry_overhead,
    bench_deadlock_detection,
    bench_service_jobs,
    bench_certification,
    bench_snapshot,
    bench_adaptive,
    bench_recovery
);
criterion_main!(benches);
