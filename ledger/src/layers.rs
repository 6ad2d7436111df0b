//! The traced run: per-layer numbers, taken from outside.
//!
//! `task` is private, so the hop path and the admission path are re-enacted
//! with the public functions of each layer (the allow-list in README.md),
//! every call wrapped in a [`Tracer`] span.  Engine and admission probes
//! replay the workload's own jobs — scaled down by
//! [`Workload::probe_jobs`] so a traced run fits the run length — and each
//! probe gets a fixed share of `--seconds`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fila_avoidance::{Algorithm, PlanCache, Planner};
use fila_graph::fingerprint::fingerprint;
use fila_runtime::spsc::{self, MsgCap};
use fila_runtime::{
    AvoidanceMode, Batch, Container, DummyWrapper, ExecutionReport, JobSnapshot, Message,
    PropagationTrigger, SharedPool, Simulator, Single, SnapshotError, Topology,
};
use fila_service::AvoidanceChoice;
use fila_spdag::recognize;
use fila_workloads::generators::{random_ladder, random_sp_dag, GeneratorConfig, LadderConfig};

use crate::e2e::{check_round, run_round, start_service, Measured, RoundStats, Tally};
use crate::report::Metric;
use crate::rng::SplitMix64;
use crate::span::{self_times_by_name, Tracer};
use crate::stats::median;
use crate::sys::process_cpu_ns;
use crate::workloads::{Expect, Job, Reference, Workload};

/// Messages per container in the batch probes — the pooled engines' default.
const BATCH: usize = 64;

/// Calls `sample` until `budget` has passed and at least `min` samples are
/// in; each call returns one sample.
fn sample_for(budget: Duration, min: usize, mut sample: impl FnMut() -> f64) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || started.elapsed() < budget {
        samples.push(sample());
    }
    samples
}

/// Nanoseconds per iteration of `body`, timed over `iterations` calls.
fn ns_per_iteration(iterations: u64, mut body: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        body(i);
    }
    started.elapsed().as_nanos() as f64 / iterations as f64
}

/// A probe job that is admitted, ready to run on any engine.
struct Runnable<'a> {
    job: &'a Job,
    reference: &'a Reference,
    topology: Topology,
    mode: AvoidanceMode,
}

fn runnable(jobs: &[Job]) -> Vec<Runnable<'_>> {
    jobs.iter()
        .filter_map(|job| match &job.expect {
            Expect::Settles(reference) => Some(Runnable {
                job,
                reference,
                topology: job.spec.topology(),
                mode: job.plan.as_ref().map_or(AvoidanceMode::Disabled, |p| {
                    AvoidanceMode::Plan(Arc::clone(p))
                }),
            }),
            _ => None,
        })
        .collect()
}

/// Engine probes bypass the service, so their reports are checked here.
fn check_report(tally: &mut Tally, what: &str, r: &Runnable<'_>, report: &ExecutionReport) {
    let difference = r.reference.difference(report);
    tally.record(difference.is_none(), || {
        format!("{what} {}: {}", r.job.label, difference.unwrap_or_default())
    });
}

struct Probes<'a> {
    workload: &'a Workload,
    seconds: f64,
    metrics: Vec<Metric>,
    tally: Tally,
}

impl Probes<'_> {
    fn share(&self, of_run: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * of_run)
    }

    fn push_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> f64 {
        let metric = Metric::median(name, unit, samples);
        let value = metric.value;
        self.metrics.push(metric);
        value
    }

    fn push_single(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::single(name, unit, value));
    }

    // ------------------------------------------------------- hop layers --

    /// `runtime::spsc`: one ring, both endpoints on the driver thread.
    fn spsc(&mut self, tracer: &mut Tracer) -> f64 {
        let budget = self.share(0.01);
        let data = |seq: u64| Message::Data { seq, payload: seq };

        let (mut tx, mut rx) = spsc::ring::<Single>(MsgCap::new(256));
        let single = tracer.span("spsc.single_push_pop", 0, |_| {
            sample_for(budget, 3, || {
                ns_per_iteration(4096, |round| {
                    for i in 0..BATCH as u64 {
                        black_box(tx.push(Single(data(round * BATCH as u64 + i))).is_ok());
                    }
                    for _ in 0..BATCH {
                        black_box(rx.pop());
                    }
                }) / BATCH as f64
            })
        });
        self.push_median("spsc.single_push_pop_ns", "ns", &single);

        black_box(tx.push(Single(data(0))).is_ok());
        let front = tracer.span("spsc.front", 0, |_| {
            sample_for(budget, 3, || {
                ns_per_iteration(1 << 18, |_| {
                    black_box(rx.front());
                })
            })
        });
        self.push_median("spsc.front_ns", "ns", &front);

        let (mut tx, mut rx) = spsc::ring::<Batch>(MsgCap::new(256));
        let mut batch = Some(filled_batch(0));
        let batched = tracer.span("spsc.batch_push_pop", 0, |_| {
            sample_for(budget, 3, || {
                ns_per_iteration(1 << 16, |_| {
                    let full = batch.take().expect("the batch comes back every iteration");
                    black_box(tx.push(full).is_ok());
                    batch = rx.pop();
                }) / BATCH as f64
            })
        });
        self.push_median("spsc.batch_push_pop_ns_per_msg", "ns", &batched)
    }

    /// `runtime::container`: filling and draining a 64-message `Batch`.
    fn container(&mut self, tracer: &mut Tracer) -> f64 {
        let budget = self.share(0.01);
        let fill = tracer.span("container.fill", 0, |_| {
            sample_for(budget, 3, || {
                ns_per_iteration(1 << 14, |i| {
                    black_box(filled_batch(i * BATCH as u64));
                }) / BATCH as f64
            })
        });
        let fill_ns = self.push_median("container.fill_ns_per_msg", "ns", &fill);

        // Consumption is timed together with the fill that feeds it; the
        // fill's median is taken off again.
        let both = tracer.span("container.consume", 0, |_| {
            sample_for(budget, 3, || {
                ns_per_iteration(1 << 14, |i| {
                    let mut batch = filled_batch(i * BATCH as u64);
                    while let Some(message) = batch.pop_front() {
                        black_box(message);
                    }
                }) / BATCH as f64
            })
        });
        let consume: Vec<f64> = both.iter().map(|b| (b - fill_ns).max(0.0)).collect();
        let consume_ns = self.push_median("container.consume_ns_per_msg", "ns", &consume);

        let runs = tracer.span("container.dummy_run_push", 0, |_| {
            sample_for(budget, 3, || {
                let mut batch = Batch::new();
                ns_per_iteration(1 << 16, |i| {
                    // Adjacent runs merge into one RLE segment, as the
                    // wrapper's periodic dummies do in a silent stretch.
                    black_box(batch.push_dummy_run(usize::MAX, i * 16, 16));
                })
            })
        });
        self.push_median("container.dummy_run_push_ns", "ns", &runs);
        fill_ns + consume_ns
    }

    /// `runtime::wrapper`: acceptance at the widest fork of a certified
    /// 256-edge SP DAG, planned and bare, and the run-level dummy path.
    fn wrapper(
        &mut self,
        tracer: &mut Tracer,
        planned_workload: bool,
        canonical: &Canonical,
    ) -> f64 {
        let budget = self.share(0.01);
        let graph = &canonical.sp;
        let fork = graph
            .node_ids()
            .max_by_key(|&n| graph.out_degree(n))
            .expect("a generated graph has nodes");
        let planned_mode = AvoidanceMode::Plan(Arc::clone(&canonical.sp_plan));
        let cost = |tracer: &mut Tracer, name: &'static str, mode: &AvoidanceMode| {
            let mut wrapper = DummyWrapper::new(graph, fork, mode);
            tracer.span(name, 0, |_| {
                sample_for(budget, 3, || {
                    ns_per_iteration(1 << 18, |seq| {
                        // The canonical period-4 filter: output `i` carries
                        // sequence number `s` iff (s + i) % 4 == 0.
                        black_box(wrapper.on_accept(false, |i| (seq + i as u64) % 4 == 0));
                    })
                })
            })
        };
        let planned = cost(tracer, "wrapper.on_accept_planned", &planned_mode);
        let bare = cost(
            tracer,
            "wrapper.on_accept_unplanned",
            &AvoidanceMode::Disabled,
        );
        let planned_ns = self.push_median("wrapper.on_accept_planned_ns", "ns", &planned);
        let bare_ns = self.push_median("wrapper.on_accept_unplanned_ns", "ns", &bare);

        let mut wrapper = DummyWrapper::new(graph, fork, &planned_mode);
        let run = tracer.span("wrapper.dummy_run", 0, |_| {
            sample_for(budget, 3, || {
                ns_per_iteration(1 << 16, |_| {
                    wrapper.on_accept_dummy_run(BATCH as u64, |i, dummies| {
                        black_box((i, dummies));
                    });
                }) / BATCH as f64
            })
        });
        self.push_median("wrapper.dummy_run_ns_per_msg", "ns", &run);
        if planned_workload {
            planned_ns
        } else {
            bare_ns
        }
    }

    // ------------------------------------------------------ the engines --

    /// One pass of the probe jobs through the single-threaded `Simulator`:
    /// nanoseconds per delivered message.
    fn simulator(&mut self, tracer: &mut Tracer, jobs: &[Runnable<'_>]) -> f64 {
        let budget = self.share(0.08);
        let samples = tracer.span("simulator.pass", 0, |_| {
            sample_for(budget, 2, || {
                let started = Instant::now();
                let mut messages = 0;
                for r in jobs {
                    let report = Simulator::new(&r.topology)
                        .avoidance(r.mode.clone())
                        .run(r.job.spec.inputs);
                    messages += report.total_messages();
                    check_report(&mut self.tally, "simulator", r, &report);
                }
                started.elapsed().as_nanos() as f64 / messages.max(1) as f64
            })
        });
        self.push_median("simulator.ns_per_msg", "ns", &samples)
    }

    /// The same pass, one job at a time, on a `SharedPool` of `workers`:
    /// nanoseconds per delivered message and CPU-seconds per wall-second.
    fn pool(&mut self, tracer: &mut Tracer, jobs: &[Runnable<'_>], workers: usize) -> (f64, f64) {
        let budget = self.share(0.08);
        let pool = SharedPool::new(workers);
        let mut cpu_per_wall = Vec::new();
        let mut first = true;
        let mut samples = tracer.span("pool.pass", workers as u64, |_| {
            sample_for(budget, 3, || {
                let cpu_before = process_cpu_ns().unwrap_or(0);
                let started = Instant::now();
                let mut messages = 0;
                for r in jobs {
                    let handle = pool.submit_with(&r.topology, r.mode.clone(), r.job.spec.inputs);
                    let report = handle.wait();
                    messages += report.total_messages();
                    if first {
                        check_report(&mut self.tally, "pool", r, &report);
                    }
                }
                first = false;
                let wall_ns = started.elapsed().as_nanos() as f64;
                let cpu_ns = process_cpu_ns().unwrap_or(0).saturating_sub(cpu_before);
                cpu_per_wall.push(cpu_ns as f64 / wall_ns);
                wall_ns / messages.max(1) as f64
            })
        });
        // The first pass on a fresh pool is its warm-up.
        samples.remove(0);
        cpu_per_wall.remove(0);
        (
            median(&samples).unwrap_or(0.0),
            median(&cpu_per_wall).unwrap_or(0.0),
        )
    }

    /// Submit → verdict of a 1-input 2-node job on a one-worker pool: run
    /// queue, wake and park/unpark round trip with no work to hide them.
    fn empty_job(&mut self, tracer: &mut Tracer) {
        let budget = self.share(0.01);
        let mut b = fila_graph::GraphBuilder::new();
        b.edge("a", "b").expect("two distinct nodes");
        let topology = Topology::from_graph(&b.build().expect("a two-node pipeline"));
        let pool = SharedPool::new(1);
        let samples = tracer.span("pool.empty_job", 0, |_| {
            sample_for(budget, 100, || {
                let started = Instant::now();
                black_box(pool.submit(&topology, 1).wait());
                started.elapsed().as_nanos() as f64 / 1e3
            })
        });
        self.push_median("pool.empty_job_us", "us", &samples);
    }

    /// `runtime::checkpoint`: a live barrier snapshot of the largest probe
    /// job, the codec on it, and a resume that must finish with the
    /// uninterrupted run's counts.
    fn checkpoint(&mut self, tracer: &mut Tracer, jobs: &[Job]) {
        let Some(largest) = jobs
            .iter()
            .filter_map(|j| match &j.expect {
                Expect::Settles(r) if r.completed => Some((j, r.messages())),
                _ => None,
            })
            .max_by_key(|&(_, messages)| messages)
        else {
            return self.push_checkpoint([0.0; 5]);
        };
        // Long enough (≥ 2 M messages) that the barrier lands mid-run.
        let (job, messages) = largest;
        let stretch = 2_000_000u64.div_ceil(messages.max(1));
        let mut inputs = job.spec.inputs * stretch;
        let pool = SharedPool::new(self.workload.workers);
        for _attempt in 0..3 {
            let mut spec = job.spec.clone();
            spec.inputs = inputs;
            let stretched = Job::with_simulated_reference(job.label.clone(), spec);
            let runnable = runnable(std::slice::from_ref(&stretched));
            let r = &runnable[0];
            let handle = pool.submit_with(&r.topology, r.mode.clone(), inputs);
            let started = Instant::now();
            let captured = tracer.span("checkpoint.capture", 0, |_| handle.checkpoint());
            let capture = started.elapsed();
            let original = handle.wait();
            check_report(&mut self.tally, "checkpointed", r, &original);
            let snapshot = match captured {
                Ok(snapshot) => snapshot,
                Err(SnapshotError::Settled(_)) => {
                    inputs *= 4;
                    continue;
                }
                Err(e) => {
                    self.tally
                        .record(false, || format!("checkpoint of {}: {e}", job.label));
                    break;
                }
            };
            let bytes = snapshot.to_bytes();
            let encode = tracer.span("checkpoint.encode", 0, |_| {
                sample_for(Duration::ZERO, 5, || {
                    let started = Instant::now();
                    black_box(snapshot.to_bytes());
                    started.elapsed().as_nanos() as f64 / 1e3
                })
            });
            let decode = tracer.span("checkpoint.decode", 0, |_| {
                sample_for(Duration::ZERO, 5, || {
                    let started = Instant::now();
                    black_box(JobSnapshot::from_bytes(&bytes).is_ok());
                    started.elapsed().as_nanos() as f64 / 1e3
                })
            });
            let started = Instant::now();
            let resumed = tracer.span("checkpoint.resume", 0, |_| {
                pool.resume_full(
                    &r.topology,
                    r.mode.clone(),
                    PropagationTrigger::default(),
                    &snapshot,
                    None,
                )
            });
            let resume = started.elapsed();
            match resumed {
                Ok(handle) => check_report(&mut self.tally, "resumed", r, &handle.wait()),
                Err(e) => self
                    .tally
                    .record(false, || format!("resume of {}: {e}", job.label)),
            }
            return self.push_checkpoint([
                capture.as_nanos() as f64 / 1e3,
                median(&encode).unwrap_or(0.0),
                median(&decode).unwrap_or(0.0),
                bytes.len() as f64,
                resume.as_nanos() as f64 / 1e6,
            ]);
        }
        eprintln!(
            "ledger: every checkpoint attempt of {} settled first",
            job.label
        );
        self.push_checkpoint([0.0; 5]);
    }

    /// The five `checkpoint.` rows, zeros when no snapshot could be taken.
    fn push_checkpoint(&mut self, values: [f64; 5]) {
        let rows = [
            ("checkpoint.capture_us", "us"),
            ("checkpoint.encode_us", "us"),
            ("checkpoint.decode_us", "us"),
            ("checkpoint.bytes", "B"),
            ("checkpoint.resume_ms", "ms"),
        ];
        for ((name, unit), value) in rows.into_iter().zip(values) {
            self.push_single(name, unit, value);
        }
    }

    /// `runtime::telemetry`: CPU of the probe jobs on a service with the
    /// flight recorder on over the same with it off, interleaved pairs.
    fn telemetry(&mut self, tracer: &mut Tracer, jobs: &[Job]) {
        let budget = self.share(0.12);
        let services = [
            start_service(self.workload, false),
            start_service(self.workload, true),
        ];
        let window = self.workload.window;
        let mut cpu = [0u64; 2];
        let mut measured = Measured::default();
        for service in &services {
            // Warm-up: plans cached, pools and allocators warm.
            measured.keep(service, jobs, run_round(service, jobs, window, None, 0));
        }
        let started = Instant::now();
        let mut pairs = 0;
        tracer.span("telemetry.pairs", 0, |_| {
            while pairs < 3 || started.elapsed() < budget {
                for (side, service) in services.iter().enumerate() {
                    let round = run_round(service, jobs, window, None, 0);
                    cpu[side] += round.cpu_ns;
                    measured.keep(service, jobs, round);
                }
                pairs += 1;
            }
        });
        self.tally.merge(measured.tally);
        self.push_single(
            "telemetry.on_over_off_cpu",
            "ratio",
            cpu[1] as f64 / cpu[0].max(1) as f64,
        );
    }

    // -------------------------------------------------- admission layers --

    /// `graph` and `spdag` on the probe jobs' graphs, and `avoidance` on a
    /// canonical 256-edge SP DAG and ladder drawn from the seed.
    fn admission_layers(&mut self, tracer: &mut Tracer, jobs: &[Job], canonical: &Canonical) {
        let per_graph = |tracer: &mut Tracer, name: &'static str, call: &dyn Fn(&Job)| {
            tracer.span(name, 0, |_| {
                jobs.iter()
                    .map(|job| {
                        // Small graphs are timed over several calls so the
                        // clock reads stay a small share.
                        let calls = (4096 / job.spec.graph.edge_count().max(1)).max(1) as u64;
                        ns_per_iteration(calls, |_| call(job)) / 1e3
                    })
                    .collect::<Vec<f64>>()
            })
        };
        let prints = per_graph(tracer, "graph.fingerprint", &|job| {
            black_box(fingerprint(&job.spec.graph));
        });
        self.push_median("graph.fingerprint_us", "us", &prints);
        let recognised = per_graph(tracer, "spdag.recognize", &|job| {
            black_box(recognize(&job.spec.graph).is_ok());
        });
        self.push_median("spdag.recognize_us", "us", &recognised);

        for (kind, graph, periods) in [
            ("sp", &canonical.sp, &canonical.sp_periods),
            ("ladder", &canonical.ladder, &canonical.ladder_periods),
        ] {
            let planner = || Planner::new(graph).algorithm(Algorithm::NonPropagation);
            let plan = tracer.span("avoidance.plan", 0, |_| {
                sample_for(Duration::ZERO, 5, || {
                    let started = Instant::now();
                    black_box(planner().plan().is_ok());
                    started.elapsed().as_nanos() as f64 / 1e3
                })
            });
            self.push_median(&format!("avoidance.plan_us.{kind}"), "us", &plan);
            let certify = tracer.span("avoidance.certify", 0, |_| {
                sample_for(Duration::ZERO, 3, || {
                    let started = Instant::now();
                    black_box(planner().certify(periods).is_ok());
                    started.elapsed().as_nanos() as f64 / 1e3
                })
            });
            self.push_median(&format!("avoidance.certify_us.{kind}"), "us", &certify);
        }

        let cache = PlanCache::new(64);
        let config = fila_service::ServiceConfig::default();
        let probe = || {
            cache.certify(
                &canonical.sp,
                Algorithm::NonPropagation,
                config.rounding,
                config.cycle_bound,
                &canonical.sp_periods,
            )
        };
        black_box(probe().is_ok());
        let budget = self.share(0.01);
        let hits = tracer.span("avoidance.cache_hit", 0, |_| {
            sample_for(budget, 3, || {
                ns_per_iteration(256, |_| {
                    black_box(probe().is_ok_and(|c| c.hit));
                })
            })
        });
        self.push_median("avoidance.cache_hit_ns", "ns", &hits);
    }

    // ------------------------------------------------------- the service --

    /// Alternating traced and untraced rounds through the front door: the
    /// span self-times of `submit`, the exact per-round counts, the cache
    /// hit rate, and what the spans themselves cost.  A workload that
    /// repeats replays its probe jobs; one that never repeats a shape
    /// consumes its fresh batches (batch 0 is the probe batch).
    fn service(&mut self, tracer: &mut Tracer, probe: &[Job]) {
        let workload = self.workload;
        let jobs_of = |k: usize| -> Option<&[Job]> {
            if workload.repeat {
                Some(probe)
            } else {
                workload.batches.get(k + 1).map(Vec::as_slice)
            }
        };
        let budget = self.share(0.15);
        let service = start_service(workload, false);
        if workload.repeat {
            let round = run_round(&service, probe, workload.window, None, 0);
            check_round(&service, probe, &round, &mut self.tally);
        }
        let (mut traced, mut untraced): (Vec<RoundStats>, Vec<RoundStats>) = Default::default();
        let first_span = tracer.spans().len();
        let started = Instant::now();
        let mut k = 0;
        while traced.len() < 2 || started.elapsed() < budget {
            let (Some(with), Some(without)) = (jobs_of(k), jobs_of(k + 1)) else {
                break;
            };
            let first_id = (k * probe.len()) as u64;
            let round = tracer.span("service.round", first_id, |t| {
                run_round(&service, with, workload.window, Some(t), first_id)
            });
            check_round(&service, with, &round, &mut self.tally);
            traced.push(round.stats());
            let round = run_round(&service, without, workload.window, None, 0);
            check_round(&service, without, &round, &mut self.tally);
            untraced.push(round.stats());
            k += 2;
        }

        let own = self_times_by_name(tracer.spans(), first_span);
        let submit_us: Vec<f64> = own
            .get("service.submit")
            .map(|ns| ns.iter().map(|ns| ns / 1e3).collect())
            .unwrap_or_default();
        self.push_median("service.submit_warm_us", "us", &submit_us);

        let first = traced.first().cloned().unwrap_or_default();
        self.push_single("service.admitted", "count", first.admitted as f64);
        self.push_single(
            "service.rejected_unplannable",
            "count",
            first.rejected_unplannable as f64,
        );
        self.push_single("service.deadlocked", "count", first.deadlocked as f64);
        self.push_single("service.fell_back", "count", first.fell_back as f64);
        self.push_single(
            "traffic.dummy_per_data",
            "ratio",
            first.dummies as f64 / first.data.max(1) as f64,
        );
        let sum = |f: &dyn Fn(&RoundStats) -> u64| -> f64 {
            traced.iter().chain(&untraced).map(f).sum::<u64>() as f64
        };
        let planned = sum(&|r| r.planned);
        let hit_rate = if planned > 0.0 {
            sum(&|r| r.cache_hits) / planned
        } else {
            0.0
        };
        self.push_single("avoidance.cache_hit_rate", "share", hit_rate);
        self.push_single(
            "avoidance.certify_share",
            "share",
            sum(&|r| r.certify_ns) / sum(&|r| r.admit_ns).max(1.0),
        );
        let wall_per_job = |rounds: &[RoundStats]| {
            let samples: Vec<f64> = rounds
                .iter()
                .map(|r| r.wall_s / r.jobs.max(1) as f64)
                .collect();
            median(&samples).unwrap_or(0.0)
        };
        let base = wall_per_job(&untraced);
        let overhead = if base > 0.0 {
            wall_per_job(&traced) / base - 1.0
        } else {
            0.0
        };
        self.push_single("trace.overhead_share", "share", overhead);
    }

    /// The admission path re-enacted call by call — fingerprint or verdict
    /// cache probe, topology build, pool submit — beside the same job's
    /// measured `JobService::submit`, with the caches in the same state
    /// (warm for a workload that repeats, cold for one that does not).
    /// The two sides take turns going first, job by job, so neither always
    /// runs on the caches the other just warmed.  What the parts do not
    /// cover (validation, slot accounting, hooks) is the unattributed share.
    fn admission_budget(&mut self, tracer: &mut Tracer, probe: &[Job]) {
        let workload = self.workload;
        let service = start_service(workload, false);
        let config = service.config().clone();
        let cache = PlanCache::new(workload.plan_cache_capacity);
        let pool = SharedPool::new(workload.workers);
        let reenact = |tracer: &mut Tracer, i: u64, job: &Job| {
            let spec = &job.spec;
            let handle = tracer.span("admit.reenacted", i, |t| {
                let mode = match spec.avoidance {
                    AvoidanceChoice::Disabled => {
                        t.span("graph.fingerprint", i, |_| {
                            black_box(fingerprint(&spec.graph));
                        });
                        AvoidanceMode::Disabled
                    }
                    AvoidanceChoice::Planned(algorithm) => {
                        let periods = spec.filters.periods(&spec.graph);
                        let certified = t.span("avoidance.cache_probe", i, |_| {
                            cache.certify(
                                &spec.graph,
                                algorithm,
                                config.rounding,
                                config.cycle_bound,
                                &periods,
                            )
                        });
                        // A reject ends the admission here, as in the service.
                        AvoidanceMode::Plan(certified.ok()?.plan)
                    }
                };
                let topology = t.span("spec.topology", i, |_| spec.topology());
                Some(t.span("pool.submit", i, |_| {
                    pool.submit_full(&topology, mode, config.trigger, spec.inputs, None)
                }))
            });
            if let Some(handle) = handle {
                black_box(handle.wait());
            }
        };
        let mut submit = |i: u64, job: &Job| -> u64 {
            let jobs = std::slice::from_ref(job);
            let round = run_round(&service, jobs, 1, None, i);
            check_round(&service, jobs, &round, &mut self.tally);
            round.stats().admit_ns
        };
        let passes = if workload.repeat { 2 } else { 1 };
        let (mut first_span, mut measured_ns) = (0, 0u64);
        for pass in 0..passes {
            // Only the last pass counts: the one before it fills the caches.
            first_span = tracer.spans().len();
            measured_ns = 0;
            for (i, job) in probe.iter().enumerate() {
                let i = (pass * probe.len() + i) as u64;
                if (i / 2) % 2 == 0 {
                    measured_ns += submit(i, job);
                    reenact(tracer, i, job);
                } else {
                    reenact(tracer, i, job);
                    measured_ns += submit(i, job);
                }
            }
        }

        let spans = &tracer.spans()[first_span..];
        let duration_of = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .collect()
        };
        let parts: f64 = [
            "graph.fingerprint",
            "avoidance.cache_probe",
            "spec.topology",
            "pool.submit",
        ]
        .iter()
        .flat_map(|name| duration_of(name))
        .sum();
        let pool_submit_us: Vec<f64> = duration_of("pool.submit")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        self.push_median("pool.submit_us", "us", &pool_submit_us);
        self.push_single(
            "service.admit_unattributed_share",
            "share",
            1.0 - parts / measured_ns.max(1) as f64,
        );
    }
}

/// Every per-layer metric of `workload`, from one traced run.
pub fn per_layer(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    tracer: &mut Tracer,
) -> (Vec<Metric>, Tally) {
    let canonical = tracer.span("setup.canonical", 0, |_| Canonical::draw(seed, smoke));
    let probe = tracer.span("setup.probe_jobs", 0, |_| workload.probe_jobs());
    let mut p = Probes {
        workload,
        seconds,
        metrics: Vec::new(),
        tally: Tally::default(),
    };
    let planned = probe.iter().any(|job| job.plan.is_some());
    let attributed = p.spsc(tracer) + p.container(tracer) + p.wrapper(tracer, planned, &canonical);

    let jobs = runnable(&probe);
    let sim = p.simulator(tracer, &jobs);
    let (w1, _) = p.pool(tracer, &jobs, 1);
    let (w2, cpu_per_wall) = p.pool(tracer, &jobs, 2);
    p.push_single("pool.ns_per_msg_w1", "ns", w1);
    p.push_single("pool.ns_per_msg_w2", "ns", w2);
    // Throughput of two workers over one's (below 1: the second worker
    // costs more than it buys) and time per message of one worker over the
    // simulator's (above 1: the pool loses to the single-threaded baseline).
    p.push_single("pool.w2_over_w1", "ratio", w1 / w2.max(f64::MIN_POSITIVE));
    p.push_single("pool.w1_over_sim", "ratio", w1 / sim.max(f64::MIN_POSITIVE));
    p.push_single("pool.cpu_per_wall", "ratio", cpu_per_wall);
    p.push_single("hop.attributed_ns", "ns", attributed);
    p.push_single(
        "hop.unattributed_share",
        "share",
        1.0 - attributed / w1.max(f64::MIN_POSITIVE),
    );
    drop(jobs);

    p.empty_job(tracer);
    p.checkpoint(tracer, &probe);
    p.telemetry(tracer, &probe);
    p.admission_layers(tracer, &probe, &canonical);
    p.service(tracer, &probe);
    p.admission_budget(tracer, &probe);
    (p.metrics, p.tally)
}

/// A 64-message batch of data messages starting at sequence number `first`.
fn filled_batch(first: u64) -> Batch {
    let mut batch = Batch::new();
    for seq in first..first + BATCH as u64 {
        let pushed = batch.try_push(BATCH, Message::Data { seq, payload: seq });
        debug_assert!(pushed.is_ok());
        black_box(pushed.is_ok());
    }
    batch
}

/// The two graphs the `avoidance` and `wrapper` probes use on every
/// workload, so those rows compare across workloads: a 256-edge SP DAG
/// (period 4 at every fork, as in `sp_tight`) and a 256-edge ladder (period
/// 3 at the source, as in `admit_cold`), drawn from the seed.
pub struct Canonical {
    sp: fila_graph::Graph,
    sp_periods: Vec<u64>,
    sp_plan: Arc<fila_avoidance::AvoidancePlan>,
    ladder: fila_graph::Graph,
    ladder_periods: Vec<u64>,
}

impl Canonical {
    fn draw(seed: u64, smoke: bool) -> Canonical {
        let mut rng = SplitMix64::new(seed).fork(9);
        let edges = if smoke { 64 } else { 256 };
        let (sp, _) = random_sp_dag(&GeneratorConfig {
            target_edges: edges,
            max_fanout: 4,
            capacity_range: (2, 8),
            seed: rng.next_u64(),
        });
        let sp_periods: Vec<u64> = sp
            .node_ids()
            .map(|n| if sp.out_degree(n) >= 2 { 4 } else { 1 })
            .collect();
        let sp_plan = Planner::new(&sp)
            .algorithm(Algorithm::NonPropagation)
            .certify(&sp_periods)
            .expect("fork filtering on an SP DAG certifies under Non-Propagation")
            .plan;
        let ladder = random_ladder(&LadderConfig {
            rungs: edges / 3,
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: rng.next_u64(),
        });
        let source = ladder.single_source().expect("a ladder has one source");
        let ladder_periods = ladder
            .node_ids()
            .map(|n| if n == source { 3 } else { 1 })
            .collect();
        Canonical {
            sp,
            sp_periods,
            sp_plan,
            ladder,
            ladder_periods,
        }
    }
}
