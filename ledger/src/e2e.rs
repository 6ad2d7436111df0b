//! The end-to-end run: one driver thread pushes a workload's jobs through
//! the service's front door (`JobService::submit` → `JobTicket::wait`) in a
//! closed loop, and every outcome is checked against its reference.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fila_runtime::{JobVerdict, Simulator};
use fila_service::{
    AvoidanceChoice, JobOutcome, JobService, JobSpec, JobTicket, RejectReason, ServiceConfig,
};

use crate::host::{HostProbe, NOMINAL_NS};
use crate::span::Tracer;
use crate::stats::{median, percentile};
use crate::sys::process_cpu_ns;
use crate::workloads::{Expect, Job, Reference, Workload};

/// The service a workload runs on.  `telemetry` is the flight recorder
/// inside the program, off for every end-to-end number.
pub fn start_service(workload: &Workload, telemetry: bool) -> JobService {
    JobService::new(ServiceConfig {
        workers: workload.workers,
        plan_cache_capacity: workload.plan_cache_capacity,
        telemetry,
        ..ServiceConfig::default()
    })
}

/// How one submission ended, as the driver saw it.
#[derive(Debug)]
pub struct Settled {
    /// Index of the job within its round.
    pub index: usize,
    /// Time inside `JobService::submit` on the driver thread.
    pub admit: Duration,
    /// `submit` call → verdict (for a reject, the `submit` call alone).
    pub settle: Duration,
    /// Model-checker time the ticket reports for this admission.
    pub certify_time: Duration,
    pub result: Result<JobOutcome, RejectReason>,
}

/// One measured round: every job of a batch submitted and settled.
#[derive(Debug)]
pub struct Round {
    pub wall: Duration,
    pub cpu_ns: u64,
    pub settled: Vec<Settled>,
}

/// What is kept of a round once its outcomes are checked (the outcomes
/// themselves, with their per-edge vectors, are dropped round by round so
/// the harness does not inflate the peak memory it reports).
#[derive(Debug, Clone, Default)]
pub struct RoundStats {
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub data: u64,
    pub dummies: u64,
    /// Jobs settled or rejected.
    pub jobs: u64,
    pub admitted: u64,
    pub rejected_unplannable: u64,
    pub deadlocked: u64,
    pub fell_back: u64,
    /// Planned admissions, and those served from the verdict cache.
    pub planned: u64,
    pub cache_hits: u64,
    /// Summed over the round's submissions.
    pub admit_ns: u64,
    pub certify_ns: u64,
    /// Nearest-rank percentiles over the round's submissions, microseconds.
    pub admit_p50_us: f64,
    pub admit_p99_us: f64,
    pub settle_p50_us: f64,
    pub settle_p99_us: f64,
}

impl RoundStats {
    pub fn messages(&self) -> u64 {
        self.data + self.dummies
    }
}

impl Round {
    pub fn stats(&self) -> RoundStats {
        let micros = |of: fn(&Settled) -> Duration| -> Vec<f64> {
            self.settled
                .iter()
                .map(|s| of(s).as_secs_f64() * 1e6)
                .collect()
        };
        let (admit, settle) = (micros(|s| s.admit), micros(|s| s.settle));
        let mut stats = RoundStats {
            wall_s: self.wall.as_secs_f64(),
            cpu_ns: self.cpu_ns,
            jobs: self.settled.len() as u64,
            admit_p50_us: percentile(&admit, 50.0).unwrap_or(0.0),
            admit_p99_us: percentile(&admit, 99.0).unwrap_or(0.0),
            settle_p50_us: percentile(&settle, 50.0).unwrap_or(0.0),
            settle_p99_us: percentile(&settle, 99.0).unwrap_or(0.0),
            ..RoundStats::default()
        };
        for settled in &self.settled {
            stats.admit_ns += settled.admit.as_nanos() as u64;
            stats.certify_ns += settled.certify_time.as_nanos() as u64;
            match &settled.result {
                Ok(outcome) => {
                    stats.admitted += 1;
                    stats.data += outcome.report.data_messages;
                    stats.dummies += outcome.report.dummy_messages;
                    stats.deadlocked += u64::from(outcome.verdict == JobVerdict::Deadlocked);
                    stats.fell_back += u64::from(outcome.fell_back);
                    stats.planned += u64::from(outcome.cache_hit.is_some());
                    stats.cache_hits += u64::from(outcome.cache_hit == Some(true));
                }
                Err(RejectReason::Unplannable(_)) => stats.rejected_unplannable += 1,
                Err(_) => {}
            }
        }
        stats
    }
}

/// Runs `call` inside a span when a tracer is attached, bare otherwise, so
/// the traced and untraced runs share one driver loop.
fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    job: u64,
    call: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, job, |_| call()),
        None => call(),
    }
}

/// Submits `jobs` through a window of `window` in flight: the driver tops
/// the window up and, when it is full, waits for the oldest job.  Specs are
/// cloned before the clock starts — the program receives generated inputs,
/// it does not pay for generating them.
pub fn run_round(
    service: &JobService,
    jobs: &[Job],
    window: usize,
    mut tracer: Option<&mut Tracer>,
    first_job_id: u64,
) -> Round {
    let specs: Vec<JobSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
    let mut settled = Vec::with_capacity(jobs.len());
    let mut in_flight: VecDeque<(usize, JobTicket, Instant, Duration)> = VecDeque::new();
    let settle_oldest = |in_flight: &mut VecDeque<(usize, JobTicket, Instant, Duration)>,
                         tracer: &mut Option<&mut Tracer>,
                         settled: &mut Vec<Settled>| {
        let Some((index, ticket, submitted, admit)) = in_flight.pop_front() else {
            return;
        };
        let outcome = spanned(tracer, "ticket.wait", first_job_id + index as u64, || {
            ticket.wait()
        });
        // With one job in flight the driver's own clock is exact.  With
        // more, the driver waits oldest-first and a job may have settled
        // long before it is asked, so the engine's submit-to-verdict wall
        // is added to the admission time instead (the two overlap by the
        // pool's task construction, which is small for the small jobs a
        // window is used for).
        let settle = if window == 1 {
            submitted.elapsed()
        } else {
            admit + outcome.report.wall
        };
        settled.push(Settled {
            index,
            admit,
            settle,
            certify_time: ticket.certify_time,
            result: Ok(outcome),
        });
    };

    let cpu_before = process_cpu_ns().unwrap_or(0);
    let started = Instant::now();
    for (index, spec) in specs.into_iter().enumerate() {
        if in_flight.len() >= window {
            settle_oldest(&mut in_flight, &mut tracer, &mut settled);
        }
        let submitted = Instant::now();
        let result = spanned(
            &mut tracer,
            "service.submit",
            first_job_id + index as u64,
            || service.submit(spec),
        );
        let admit = submitted.elapsed();
        match result {
            Ok(ticket) => in_flight.push_back((index, ticket, submitted, admit)),
            Err(reason) => settled.push(Settled {
                index,
                admit,
                settle: admit,
                certify_time: Duration::ZERO,
                result: Err(reason),
            }),
        }
    }
    while !in_flight.is_empty() {
        settle_oldest(&mut in_flight, &mut tracer, &mut settled);
    }
    let wall = started.elapsed();
    let cpu_ns = process_cpu_ns().unwrap_or(0).saturating_sub(cpu_before);
    Round {
        wall,
        cpu_ns,
        settled,
    }
}

/// Operations attempted and those whose outcome differs from the reference.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few differences, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

fn differs(reference: &Reference, outcome: &JobOutcome) -> Option<String> {
    let expected_verdict = if reference.completed {
        JobVerdict::Completed
    } else {
        JobVerdict::Deadlocked
    };
    if outcome.verdict != expected_verdict {
        return Some(format!(
            "verdict {:?}, reference {expected_verdict:?}",
            outcome.verdict
        ));
    }
    if let Some(what) = reference.difference(&outcome.report) {
        return Some(what);
    }
    if (outcome.algorithm, outcome.fell_back) != (reference.algorithm, reference.fell_back) {
        return Some(format!(
            "ran {:?} (fell back: {}), the certification chain selects {:?} (fell back: {})",
            outcome.algorithm, outcome.fell_back, reference.algorithm, reference.fell_back
        ));
    }
    None
}

/// The reference of a [`Expect::CheckedAfter`] job: a `Simulator` replay
/// under the plan the service cached when it admitted the job.  The lookup
/// must hit — a miss means the service did not keep what it certified.
fn replay_under_cached_plan(service: &JobService, spec: &JobSpec) -> Result<Reference, String> {
    let AvoidanceChoice::Planned(algorithm) = spec.avoidance else {
        return Err("a job checked after the run must be planned".to_string());
    };
    let config = service.config();
    let periods = spec.filters.periods(&spec.graph);
    let cached = service
        .plan_cache()
        .certify(
            &spec.graph,
            algorithm,
            config.rounding,
            config.cycle_bound,
            &periods,
        )
        .map_err(|e| format!("no cached plan: {e}"))?;
    if !cached.hit {
        return Err("the admitted job's plan was not in the cache".to_string());
    }
    let report = Simulator::new(&spec.topology())
        .with_shared_plan(Arc::clone(&cached.plan))
        .run(spec.inputs);
    Ok(Reference::of(report, Some(cached.used), cached.fell_back))
}

/// Checks every outcome of a round: verdict, per-edge data and dummy
/// counts, sink firings and the protocol that ran.  An expected reject or an
/// expected deadlock is a correct outcome; anything else that differs is a
/// failure.
pub fn check_round(service: &JobService, jobs: &[Job], round: &Round, tally: &mut Tally) {
    for settled in &round.settled {
        let job = &jobs[settled.index];
        let difference = match (&job.expect, &settled.result) {
            (Expect::RejectedUnplannable, Err(RejectReason::Unplannable(_))) => None,
            (Expect::RejectedUnplannable, Ok(_)) => {
                Some("admitted, expected unplannable".to_string())
            }
            (_, Err(reason)) => Some(format!("rejected: {reason}")),
            (Expect::Settles(reference), Ok(outcome)) => differs(reference, outcome),
            (Expect::CheckedAfter, Ok(outcome)) => {
                match replay_under_cached_plan(service, &job.spec) {
                    // Admitted ⇒ deadlock-free: the replay must complete too.
                    Ok(reference) if !reference.completed => {
                        Some("the reference replay did not complete".to_string())
                    }
                    Ok(reference) => differs(&reference, outcome),
                    Err(why) => Some(why),
                }
            }
        };
        tally.record(difference.is_none(), || {
            format!("{}: {}", job.label, difference.unwrap_or_default())
        });
    }
}

/// Everything the timed rounds of one run produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub rounds: Vec<RoundStats>,
    pub tally: Tally,
    /// Median host-probe reading of the run over the nominal one, for a
    /// workload whose time-based metrics are reported with it divided out.
    pub host_slowdown: Option<f64>,
}

impl Measured {
    /// Checks `round`, then keeps its statistics.
    pub fn keep(&mut self, service: &JobService, jobs: &[Job], round: Round) {
        check_round(service, jobs, &round, &mut self.tally);
        self.rounds.push(round.stats());
    }
}

/// Runs the workload's warm-up rounds, then timed rounds until their walls
/// add up to `seconds` (at least `min_rounds`, and for a workload that never
/// repeats a shape, at most as many as it generated batches for).  Every
/// round, warm-up or timed, is checked.
pub fn measure(
    workload: &Workload,
    service: &JobService,
    seconds: f64,
    min_rounds: usize,
) -> Measured {
    let mut measured = Measured::default();
    let mut rounds = workload.rounds();
    for jobs in rounds.by_ref().take(workload.warmups) {
        let round = run_round(service, jobs, workload.window, None, 0);
        check_round(service, jobs, &round, &mut measured.tally);
    }
    // Probed before every timed round and once after the last, so the
    // probes bracket everything that is measured.
    let probe = workload.host_normalised.then(HostProbe::new);
    let mut loads_ns = Vec::new();
    let mut timed = Duration::ZERO;
    for jobs in rounds {
        if timed.as_secs_f64() >= seconds && measured.rounds.len() >= min_rounds {
            break;
        }
        loads_ns.extend(probe.as_ref().map(HostProbe::ns_per_load));
        let round = run_round(service, jobs, workload.window, None, 0);
        timed += round.wall;
        measured.keep(service, jobs, round);
    }
    loads_ns.extend(probe.as_ref().map(HostProbe::ns_per_load));
    measured.host_slowdown = median(&loads_ns).map(|ns| ns / NOMINAL_NS);
    measured
}
