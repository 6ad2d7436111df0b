//! `fila` — drive the multi-tenant job service from the command line.
//!
//! ```text
//! fila run <jobfile> [--workers N]      execute the jobs in a textual job file
//! fila storm [--jobs N] [--seed S] [--workers N] [--kill-rate F]
//!            [--drift-rate F] [--chaos SEED] [--json PATH]
//!            [--trace PATH] [--metrics]
//!                                       submit a generated mixed workload,
//!                                       check every admitted job against
//!                                       its Simulator reference, and
//!                                       optionally checkpoint/kill/restore
//!                                       a fraction of it and/or inject
//!                                       filter-drifting tenants that the
//!                                       adaptive supervisor must catch;
//!                                       with --chaos, arm a seeded fault
//!                                       plan inside the pool itself and
//!                                       run every job under the
//!                                       self-healing recovery ladder;
//!                                       with --trace/--metrics, run the
//!                                       flight recorder and export a
//!                                       Chrome trace / Prometheus text
//! fila trace <file>                     summarize an exported Chrome trace
//! fila help                             this text + the job-file grammar
//! ```
//!
//! Storm's human-readable progress goes to **stderr**; stdout carries only
//! the stats JSON, so `fila storm --json - | jq` style piping stays clean.
//!
//! ## Job-file grammar (line-oriented, `#` comments)
//!
//! ```text
//! job <name>
//!   inputs <count>               # sequence numbers offered at every source
//!   algorithm <propagation|nonpropagation|none>
//!   capacity <default>           # default buffer capacity (optional, 4)
//!   edge <src> <dst> [capacity]  # nodes are created on first mention
//!   filter <node> <period>       # periodic filter (1 = broadcast)
//! end
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use fila::prelude::*;
use fila::runtime::FaultPlan;
use fila::workloads::jobs::{job_mix_with_drift, JobKind, JobShape};
use fila_service::metrics::{certify_prometheus, sched_prometheus};
use fila_service::{
    CheckpointPolicy, JobOutcome, JobTicket, RecoveryMode, RecoveryOutcome, RecoveryPolicy,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("storm") => cmd_storm(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}` (try `fila help`)")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("fila: {e}");
        ExitCode::FAILURE
    })
}

const HELP: &str = "\
fila — filtering-aware deadlock avoidance as a multi-tenant job service

USAGE:
  fila run <jobfile> [--workers N]
  fila storm [--jobs N] [--seed S] [--workers N] [--kill-rate F]
             [--drift-rate F] [--chaos SEED] [--json PATH]
             [--trace PATH] [--metrics]
  fila trace <file>
  fila help

`run` executes every job of a textual job file on one shared worker pool,
prints a per-job verdict table and the aggregate service stats as JSON.

`storm` generates a mixed workload (pipelines, SP DAGs, CS4 ladders, plus
deliberately unplannable and deadlocking shapes), submits all of it
concurrently, and reports the same stats; `--json PATH` also writes them to
a file (used by CI as a service smoke test).  Every admitted job is checked
against its Simulator reference — its executed program under the plan
`Planner::certify` picks for it — and any violation fails the storm, naming
the job.  `--kill-rate F` (0.0..=1.0) additionally takes a live barrier
snapshot of a deterministic fraction F of the admitted jobs and resumes each
once the originals have settled; original and resumed run must both equal
the reference exactly — a crash-recovery fault-injection smoke on the real
service.  `--drift-rate F` (0.0..=1.0) converts a deterministic fraction F
of the workload into filter-drifting tenants: jobs that declare (and get
certified for) one filter profile but execute a strictly heavier one.  Each
drifting job runs under the adaptive supervisor, which detects the drift
and walks the response ladder — certified plan hot-swap, quarantine +
escalated replan, or cancellation with the offending nodes — and every
swapped job's data counts must equal a reference of its observed profile.
`--chaos SEED` turns the storm into a self-healing smoke: the pool itself
is armed with a deterministic seeded fault plan (worker panics mid-firing
and mid-barrier, delayed wakeups, snapshot corruption on encode and on
restore; `--kill-rate F` is reused as the per-job arming probability,
default 0.25), and every job runs under the supervised auto-checkpoint +
recovery ladder (full restore -> partial subgraph restart -> genesis,
alternating exact and approximate recovery modes per job).  Exact-mode
recoveries must reproduce the reference verdict, per-edge data counts, and
sink firings; approximate recoveries may trail by at most the reported
divergence.

`--trace PATH` and/or `--metrics` switch on the pool's flight recorder:
per-worker lock-free event rings capture firing spans, steals,
park/unpark, blocked stalls, barrier alignments, fault injections,
recovery-ladder rungs and drift-swap decisions with zero cost when off
(the recorder simply does not exist).  `--trace PATH` exports everything
as Chrome `trace_event` JSON for chrome://tracing / Perfetto (and the
`fila trace` summarizer); `--metrics` prints Prometheus text-format
metrics — per-tenant settle-latency percentiles, firing/blocked-time
histograms, and per-interval dummy-vs-data traffic — to stderr.  Storm's
human-readable summary always goes to stderr; stdout carries only the
stats JSON (schema v7, with the nested latency/tenant summaries).

`fila trace <file>` summarizes an exported trace: event counts per kind,
total firing time, steal/stall counts, and per-job span statistics.

JOB FILE GRAMMAR (line oriented, `#` starts a comment):
  job <name>
    inputs <count>
    algorithm <propagation|nonpropagation|none>
    capacity <default buffer capacity>
    edge <src> <dst> [capacity]
    filter <node> <period>
  end
";

fn parse_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    Ok(Some(value.clone()))
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match parse_flag(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: invalid number `{v}`")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// A `0.0..=1.0` rate flag, `0.0` when absent.
fn parse_rate(args: &[String], flag: &str) -> Result<f64, String> {
    match parse_num(args, flag, 0.0f64)? {
        rate if (0.0..=1.0).contains(&rate) => Ok(rate),
        rate => Err(format!("{flag}: {rate} is not within 0.0..=1.0")),
    }
}

/// Storm worker-count resolution: an explicit `--workers N` is used as
/// given; the `0` default floors the pool at two workers even on a
/// single-core host, so cross-worker behaviour (work stealing, and its
/// flight-recorder spans) is exercised everywhere CI runs.
fn storm_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map_or(2, std::num::NonZeroUsize::get)
            .max(2)
    }
}

// ---------------------------------------------------------------- run ----

/// One parsed job of a job file.
struct FileJob {
    name: String,
    spec: JobSpec,
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let file = match args.first() {
        Some(f) if !f.starts_with("--") => f,
        _ => return Err("run: missing <jobfile> (try `fila help`)".into()),
    };
    let workers = parse_num(args, "--workers", 0usize)?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let jobs = parse_job_file(&text).map_err(|e| format!("{file}: {e}"))?;
    if jobs.is_empty() {
        return Err(format!("{file}: no jobs defined"));
    }

    let svc = JobService::new(ServiceConfig {
        workers,
        max_in_flight: jobs.len().max(16),
        ..ServiceConfig::default()
    });
    let mut tickets: Vec<(String, Result<JobTicket, RejectReason>)> = Vec::new();
    for job in jobs {
        let ticket = svc.submit(job.spec);
        tickets.push((job.name, ticket));
    }
    let mut failures = 0;
    println!(
        "{:<20} {:<12} {:>10} {:>12} {:>10}  plan",
        "job", "verdict", "msgs", "msgs/sec", "wall"
    );
    for (name, ticket) in tickets {
        match ticket {
            Err(reason) => {
                failures += 1;
                println!(
                    "{name:<20} {:<12} {:>10} {:>12} {:>10}  {reason}",
                    "rejected", "-", "-", "-"
                );
            }
            Ok(ticket) => {
                let outcome = ticket.wait();
                let verdict = format!("{:?}", outcome.verdict).to_lowercase();
                if outcome.verdict != JobVerdict::Completed {
                    failures += 1;
                }
                let plan = match ticket.cache_hit {
                    None => "none".to_string(),
                    Some(hit) => {
                        let src = if hit {
                            "cache-hit".to_string()
                        } else {
                            format!("fresh ({:.1?})", ticket.plan_time)
                        };
                        match (ticket.fell_back, ticket.algorithm) {
                            (true, Some(algorithm)) => format!("{src}, fell back to {algorithm}"),
                            _ => src,
                        }
                    }
                };
                let rate = outcome
                    .report
                    .messages_per_sec()
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.0}"));
                println!(
                    "{name:<20} {verdict:<12} {:>10} {rate:>12} {:>10.1?}  {plan}",
                    outcome.report.total_messages(),
                    outcome.report.wall_time(),
                );
            }
        }
    }
    println!("\n{}", svc.stats().to_json());
    Ok(ExitCode::from(u8::from(failures > 0)))
}

fn parse_job_file(text: &str) -> Result<Vec<FileJob>, String> {
    let mut jobs = Vec::new();
    let mut current: Option<JobDraft> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().unwrap();
        let rest: Vec<&str> = words.collect();
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        match (keyword, current.as_mut()) {
            ("job", None) => {
                let [name] = rest[..] else {
                    return Err(at("job needs <name>"));
                };
                current = Some(JobDraft::new(name));
            }
            ("job", Some(_)) => return Err(at("nested `job` (missing `end`?)")),
            (_, None) => return Err(at("directive outside a job block")),
            ("end", Some(_)) => {
                if !rest.is_empty() {
                    return Err(at("end takes no arguments"));
                }
                let draft = current.take().expect("matched Some");
                jobs.push(draft.finish().map_err(|e| at(&e))?);
            }
            (kw, Some(draft)) => draft.directive(kw, &rest).map_err(|e| at(&e))?,
        }
    }
    if current.is_some() {
        return Err("unterminated job block (missing `end`)".into());
    }
    Ok(jobs)
}

struct JobDraft {
    name: String,
    inputs: u64,
    avoidance: AvoidanceChoice,
    default_capacity: u64,
    edges: Vec<(String, String, Option<u64>)>,
    filters: HashMap<String, u64>,
}

impl JobDraft {
    fn new(name: &str) -> Self {
        JobDraft {
            name: name.to_string(),
            inputs: 128,
            avoidance: AvoidanceChoice::Planned(Algorithm::NonPropagation),
            default_capacity: 4,
            edges: Vec::new(),
            filters: HashMap::new(),
        }
    }

    fn directive(&mut self, keyword: &str, rest: &[&str]) -> Result<(), String> {
        let num = |s: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("invalid number `{s}`"))
        };
        match (keyword, rest) {
            ("inputs", &[count]) => self.inputs = num(count)?,
            ("inputs", _) => return Err("inputs needs <count>".into()),
            ("algorithm", &[value]) => {
                self.avoidance = match value {
                    "propagation" => AvoidanceChoice::Planned(Algorithm::Propagation),
                    "nonpropagation" => AvoidanceChoice::Planned(Algorithm::NonPropagation),
                    "none" => AvoidanceChoice::Disabled,
                    other => return Err(format!("unknown algorithm `{other}`")),
                };
            }
            ("algorithm", _) => return Err("algorithm needs <value>".into()),
            ("capacity", &[value]) => self.default_capacity = num(value)?,
            ("capacity", _) => return Err("capacity needs <value>".into()),
            ("edge", &[src, dst]) => self.edges.push((src.into(), dst.into(), None)),
            ("edge", &[src, dst, cap]) => {
                self.edges.push((src.into(), dst.into(), Some(num(cap)?)));
            }
            ("edge", _) => return Err("edge needs <src> <dst> [capacity]".into()),
            ("filter", &[node, period]) => {
                self.filters.insert(node.to_string(), num(period)?);
            }
            ("filter", _) => return Err("filter needs <node> <period>".into()),
            (other, _) => return Err(format!("unknown directive `{other}`")),
        }
        Ok(())
    }

    fn finish(self) -> Result<FileJob, String> {
        if self.edges.is_empty() {
            return Err(format!("job {}: no edges", self.name));
        }
        let mut b = GraphBuilder::new().default_capacity(self.default_capacity);
        for (src, dst, cap) in &self.edges {
            match cap {
                Some(c) => b.edge_with_capacity(src, dst, *c),
                None => b.edge(src, dst),
            }
            .map_err(|e| format!("job {}: {e}", self.name))?;
        }
        let graph = b.build().map_err(|e| format!("job {}: {e}", self.name))?;
        let mut periods = vec![1u64; graph.node_count()];
        for (name, period) in &self.filters {
            let node = graph
                .node_by_name(name)
                .ok_or_else(|| format!("job {}: filter on unknown node `{name}`", self.name))?;
            periods[node.index()] = (*period).max(1);
        }
        let spec = JobSpec::new(graph, FilterSpec::PerNode(periods), self.inputs)
            .avoidance(self.avoidance);
        Ok(FileJob {
            name: self.name,
            spec,
        })
    }
}

// -------------------------------------------------------------- trace ----

/// `fila trace <file>`: summarize a Chrome trace exported by
/// `fila storm --trace`.  The exporter writes exactly one event per line,
/// so this stays a line scanner — no JSON parser needed (or available:
/// this workspace is serde-free by design).
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let file = match args.first() {
        Some(f) if !f.starts_with("--") => f,
        _ => return Err("trace: missing <file> (try `fila help`)".into()),
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    // One (count, total span µs) accumulator per event name, and one total
    // per scheduler counter (`ph:"C"` samples, one per worker lane).
    let mut kinds: Vec<(String, u64, f64)> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut jobs = std::collections::BTreeSet::new();
    let mut workers = std::collections::BTreeSet::new();
    let mut first_ts = f64::MAX;
    let mut last_ts = f64::MIN;
    let mut events = 0u64;
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
        Some(rest[..end].to_string())
    };
    for line in text.lines() {
        let Some(name) = field(line, "\"name\":\"") else {
            continue; // array brackets / blank lines
        };
        if line.contains("\"ph\":\"C\"") {
            let value: u64 = field(line, "\"value\":")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            match counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += value,
                None => counters.push((name, value)),
            }
            continue;
        }
        events += 1;
        let ts: f64 = field(line, "\"ts\":")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        let dur: f64 = field(line, "\"dur\":")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        first_ts = first_ts.min(ts);
        last_ts = last_ts.max(ts + dur);
        if let Some(pid) = field(line, "\"pid\":") {
            jobs.insert(pid);
        }
        if let Some(tid) = field(line, "\"tid\":") {
            workers.insert(tid);
        }
        match kinds.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += dur;
            }
            None => kinds.push((name, 1, dur)),
        }
    }
    if events == 0 {
        return Err(format!("{file}: no trace events found"));
    }
    kinds.sort_by_key(|k| std::cmp::Reverse(k.1));
    println!(
        "{file}: {events} events, {} jobs, {} worker lanes, {:.1} ms recorded",
        jobs.len(),
        workers.len(),
        (last_ts - first_ts) / 1_000.0
    );
    println!("{:<16} {:>10} {:>14}", "event", "count", "total ms");
    for (name, count, total_us) in &kinds {
        println!("{name:<16} {count:>10} {:>14.3}", total_us / 1_000.0);
    }
    if !counters.is_empty() {
        println!("{:<24} {:>10}", "scheduler counter", "total");
        for (name, total) in &counters {
            println!("{name:<24} {total:>10}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

// -------------------------------------------------------------- storm ----

/// The spec a storm submits — or resumes, or recovers — for a generated
/// shape: every storm mode goes through this one mapping, so the traffic a
/// snapshot is resumed against is the traffic it was admitted as.
fn spec_of(shape: &JobShape) -> JobSpec {
    JobSpec::from_periods(
        shape.graph.clone(),
        shape.periods.clone(),
        shape.inputs,
        shape.avoidance,
    )
    .with_tenant(shape.tenant)
}

/// How one storm job runs, from admission until it settles.
enum Run<'s> {
    Rejected(RejectReason),
    Submitted(JobTicket),
    /// A drifting tenant under the adaptive supervisor.
    Supervised(ScopedJoinHandle<'s, AdaptiveOutcome>),
    /// Chaos mode: the job under the recovery ladder, in this mode.
    Chaos(
        RecoveryMode,
        ScopedJoinHandle<'s, Result<RecoveryOutcome, RejectReason>>,
    ),
}

fn cmd_storm(args: &[String]) -> Result<ExitCode, String> {
    let jobs = parse_num(args, "--jobs", 256usize)?.max(1);
    let seed = parse_num(args, "--seed", 0xF11A_u64)?;
    let workers = storm_workers(parse_num(args, "--workers", 0usize)?);
    let json_path = parse_flag(args, "--json")?;
    let kill_rate = parse_rate(args, "--kill-rate")?;
    let drift_rate = parse_rate(args, "--drift-rate")?;
    let chaos = parse_flag(args, "--chaos")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--chaos: invalid seed `{v}`"))
        })
        .transpose()?;
    let trace_path = parse_flag(args, "--trace")?;
    let metrics = has_flag(args, "--metrics");
    if chaos.is_some() && drift_rate > 0.0 {
        return Err("--chaos and --drift-rate are separate smokes; pick one".into());
    }
    // In chaos mode --kill-rate is the fault-plan arming probability.
    let arm_rate = if kill_rate > 0.0 { kill_rate } else { 0.25 };
    if chaos.is_some() {
        // Injected fault panics are part of the experiment: silence their
        // default-hook stack traces, but keep the hook for any real panic.
        let previous_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload().downcast_ref::<String>();
            if !payload.is_some_and(|s| s.starts_with("injected:")) {
                previous_hook(info);
            }
        }));
    }

    let shapes = job_mix_with_drift(seed, jobs, drift_rate);
    let svc = JobService::new(ServiceConfig {
        workers,
        max_in_flight: jobs,
        faults: chaos.map(|s| Arc::new(FaultPlan::seeded(s).kill_rate(arm_rate))),
        telemetry: trace_path.is_some() || metrics,
        ..ServiceConfig::default()
    });
    let cycle_bound = svc.config().cycle_bound;
    let drift_policy = DriftPolicy::default();
    let started = Instant::now();
    // Every violation, named by its job: any one fails the storm.
    let mut failures = Vec::new();
    // Every settled run: its job, which run, outcome, reference and bound.
    let mut settled = Vec::new();
    let mut snapshots = Vec::new();
    let mut outran = 0u64;
    let (mut hot_swapped, mut replanned) = (0u64, 0u64);
    let (mut drift_cancelled, mut drift_settled) = (0u64, 0u64);
    let (mut uninterrupted, mut recovered, mut crashes, mut exhausted) = (0u64, 0u64, 0u64, 0u64);
    let (mut partial_restarts, mut midbarrier_partial_restarts) = (0u64, 0u64);
    let (mut genesis_restarts, mut approx_divergent) = (0u64, 0u64);

    std::thread::scope(|scope| {
        let (svc, drift_policy) = (&svc, &drift_policy);
        // A drifting tenant blocks its supervisor, and a chaos job its
        // recovery ladder, until it settles: each runs on a scoped thread
        // while this one drives the rest of the storm.
        let mut runs = Vec::new();
        let mut admitted = 0u64;
        for (i, shape) in shapes.iter().enumerate() {
            let spec = spec_of(shape);
            let run = if chaos.is_some() {
                // Alternate what recovery may give up, so one storm runs both
                // ladder orders: exact (full restore first, partial only at
                // zero divergence) and approximate (partial subgraph restart
                // first, bounded divergence accepted).
                let mode = if i % 2 == 0 {
                    RecoveryMode::Exact
                } else {
                    RecoveryMode::Approximate {
                        max_divergence: 256,
                    }
                };
                let checkpoints = CheckpointPolicy {
                    every_n_inputs: (shape.inputs / 6).max(16),
                    max_snapshots: 4,
                };
                let policy = RecoveryPolicy {
                    max_attempts: 12,
                    initial_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(20),
                    mode,
                    ..RecoveryPolicy::default()
                };
                let ladder = move || svc.run_recoverable(&spec, &checkpoints, &policy);
                Run::Chaos(mode, scope.spawn(ladder))
            } else if let Some(actual) = &shape.actual_periods {
                let spec = spec.with_actual_filters(FilterSpec::PerNode(actual.clone()));
                match svc.submit(spec.clone()) {
                    Ok(t) => {
                        Run::Supervised(scope.spawn(move || svc.supervise(&spec, t, drift_policy)))
                    }
                    Err(reason) => Run::Rejected(reason),
                }
            } else {
                match svc.submit(spec) {
                    Ok(ticket) => {
                        // Kill mode: a deterministic fraction of the admitted
                        // jobs is snapshotted live right after admission,
                        // while the pool churns through the rest of the
                        // storm.  The originals run on to their verdicts.
                        let pick = mix(seed ^ 0xD1E ^ admitted) as f64;
                        admitted += 1;
                        if kill_rate > 0.0 && pick < kill_rate * u64::MAX as f64 {
                            match svc.checkpoint_job(&ticket) {
                                Ok(snapshot) => snapshots.push((shape, snapshot)),
                                Err(SnapshotError::Settled(_)) => outran += 1,
                                Err(e) => {
                                    failures.push(format!("{}: checkpoint: {e}", shape.label))
                                }
                            }
                        }
                        Run::Submitted(ticket)
                    }
                    Err(reason) => Run::Rejected(reason),
                }
            };
            runs.push((shape, run));
        }

        // Settle every job.  A plain job and a resumed snapshot must be their
        // reference exactly (a consistent cut loses nothing); a swapped
        // drifter its reference's data under a plan for the profile the
        // detector observed (quarantine certifies at four times the
        // budget); a chaos recovery its reference within the divergence it
        // reported.
        for (shape, run) in runs {
            let declared = || reference(shape, shape.avoidance, &shape.periods, cycle_bound);
            let observed = |swap: &SwapReport, budget| {
                reference(shape, Some(swap.algorithm), &swap.observed_periods, budget)
            };
            let unplannable = shape.kind == JobKind::Unplannable;
            match run {
                Run::Rejected(RejectReason::Unplannable(_)) if unplannable => {}
                Run::Rejected(reason) => {
                    failures.push(format!("{}: rejected: {reason}", shape.label))
                }
                Run::Submitted(ticket) => {
                    settled.push((shape, "original", ticket.wait(), declared(), Bound::Exact));
                }
                Run::Supervised(handle) => match handle.join().expect("supervisors do not panic") {
                    AdaptiveOutcome::Settled(outcome) => {
                        drift_settled += 1;
                        settled.push((shape, "unswapped", outcome, declared(), Bound::Exact));
                    }
                    AdaptiveOutcome::HotSwapped { outcome, swap } => {
                        hot_swapped += 1;
                        let reference = observed(&swap, cycle_bound);
                        settled.push((shape, "hot-swapped", outcome, reference, Bound::Data(0)));
                    }
                    AdaptiveOutcome::Replanned { outcome, swap } => {
                        replanned += 1;
                        let reference = observed(&swap, cycle_bound.saturating_mul(4));
                        settled.push((shape, "replanned", outcome, reference, Bound::Data(0)));
                    }
                    AdaptiveOutcome::DriftCancelled { offenders, .. } => {
                        drift_cancelled += 1;
                        if offenders.is_empty() {
                            failures.push(format!("{}: cancelled without offenders", shape.label));
                        }
                    }
                },
                Run::Chaos(mode, ladder) => match ladder.join().expect("ladders do not panic") {
                    Err(RejectReason::Unplannable(_)) if unplannable => {}
                    Err(reason) => failures.push(format!("{}: rejected: {reason}", shape.label)),
                    Ok(RecoveryOutcome::Uninterrupted(outcome)) => {
                        uninterrupted += 1;
                        settled.push((shape, "uninterrupted", outcome, declared(), Bound::Exact));
                    }
                    Ok(RecoveryOutcome::Recovered { outcome, report }) => {
                        recovered += 1;
                        crashes += u64::from(report.crashes);
                        partial_restarts += u64::from(report.partial_restart);
                        midbarrier_partial_restarts +=
                            u64::from(report.partial_restart && report.midbarrier_crash);
                        genesis_restarts += u64::from(report.genesis_restart);
                        // An exact-mode ladder (and any zero-divergence
                        // recovery) loses nothing; an approximate splice may
                        // trail the reference by what it reported losing.
                        let bound = match mode {
                            RecoveryMode::Exact => 0,
                            RecoveryMode::Approximate { .. } => report.divergence,
                        };
                        approx_divergent += u64::from(bound > 0);
                        let bound = Bound::Data(bound);
                        settled.push((shape, "recovered", outcome, declared(), bound));
                    }
                    Ok(RecoveryOutcome::Exhausted { report, last_error }) => {
                        exhausted += 1;
                        failures.push(format!(
                            "{}: recovery exhausted after {} attempts: {last_error}",
                            shape.label, report.attempts
                        ));
                    }
                },
            }
        }
        // Resume every snapshot, now that the originals have settled.
        for (shape, snapshot) in &snapshots {
            match svc.resume_job(spec_of(shape), snapshot) {
                Ok(ticket) => {
                    let declared = reference(shape, shape.avoidance, &shape.periods, cycle_bound);
                    settled.push((*shape, "resumed", ticket.wait(), declared, Bound::Exact));
                }
                Err(e) => failures.push(format!("{}: resume: {e}", shape.label)),
            }
        }
    });
    let wall = started.elapsed();
    let stats = svc.stats();

    // Admissions of the declared profile that ran planned, and that fell back.
    let (mut planned, mut fell_back) = (0u64, 0u64);
    let (runs, captured) = (settled.len(), snapshots.len());
    for (shape, run, outcome, reference, bound) in settled {
        if matches!(bound, Bound::Exact) && shape.avoidance.is_some() {
            planned += 1;
            fell_back += u64::from(outcome.fell_back);
        }
        if let Err(why) = check(shape, &outcome, reference, bound) {
            failures.push(format!("{} {run}: {why}", shape.label));
        }
    }
    if chaos.is_none() {
        // The mix exercises every admission path: its unplannable shapes
        // are rejected, its deadlockers deadlock, its interior-filtered
        // shapes fall back.
        let has = |kind| shapes.iter().any(|s| s.kind == kind);
        let totals = [
            (JobKind::Unplannable, "rejected", stats.rejected_unplannable),
            (JobKind::Deadlocker, "deadlocked", stats.deadlocked),
            (JobKind::InteriorFiltered, "fell back", stats.fell_back),
        ];
        for (kind, what, total) in totals {
            if has(kind) && total == 0 {
                failures.push(format!("storm: no job {what}"));
            }
        }
    }
    if chaos.is_none()
        && drift_rate == 0.0
        && (stats.certified, stats.fell_back) != (planned, fell_back)
    {
        failures.push(format!(
            "storm: {} certified ({} fell back), {planned} ran planned ({fell_back} fell back)",
            stats.certified, stats.fell_back
        ));
    }

    eprintln!(
        "storm: {jobs} jobs in {wall:.2?} — {} completed, {} deadlocked, {} rejected unplannable; \
         {} certified ({} via fallback); cert cache {:.0}% hits; \
         {} runs checked against their Simulator reference, {} failures",
        stats.completed,
        stats.deadlocked,
        stats.rejected_unplannable,
        stats.certified,
        stats.fell_back,
        stats.cert_cache_hit_rate() * 100.0,
        runs,
        failures.len(),
    );
    if kill_rate > 0.0 && chaos.is_none() {
        eprintln!(
            "storm kill/restore: {captured} snapshots captured and resumed, {outran} settled \
             before their checkpoint"
        );
    }
    if drift_rate > 0.0 {
        eprintln!(
            "storm drift: {} drifting tenants — {hot_swapped} hot-swapped, \
             {replanned} replanned, {drift_cancelled} drift-cancelled, \
             {drift_settled} settled untouched",
            hot_swapped + replanned + drift_cancelled + drift_settled
        );
    }
    if let Some(chaos_seed) = chaos {
        eprintln!(
            "storm chaos: seed={chaos_seed} arm-rate={arm_rate} — {jobs} jobs in {wall:.2?}: \
             uninterrupted={uninterrupted} recovered={recovered} crashes={crashes} \
             partial_restarts={partial_restarts} \
             midbarrier_partial_restarts={midbarrier_partial_restarts} \
             genesis_restarts={genesis_restarts} approx_divergent={approx_divergent} \
             exhausted={exhausted} rejected_unplannable={} mismatched={}",
            stats.rejected_unplannable,
            failures.len() as u64 - exhausted,
        );
    }
    for failure in &failures {
        eprintln!("storm: FAILED {failure}");
    }
    finish_storm(
        &svc,
        &stats,
        json_path.as_deref(),
        trace_path.as_deref(),
        metrics,
        failures.is_empty(),
    )
}

/// The tail of every storm: the stats JSON on stdout and in
/// `json_path`, the Chrome trace in `trace_path`, the Prometheus text
/// metrics on stderr (stdout stays reserved for the stats JSON), and the
/// exit code — success only for a `healthy` run and no I/O failure.
fn finish_storm(
    svc: &JobService,
    stats: &ServiceStats,
    json_path: Option<&str>,
    trace_path: Option<&str>,
    metrics: bool,
    healthy: bool,
) -> Result<ExitCode, String> {
    let json = stats.to_json();
    println!("{json}");
    if let Some(path) = json_path {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = trace_path {
        let telemetry = svc.telemetry().expect("--trace switches the recorder on");
        let trace = telemetry.chrome_trace();
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        let dropped = telemetry.dropped();
        if dropped > 0 {
            eprintln!("storm: flight recorder dropped {dropped} events (full rings)");
        }
    }
    if metrics {
        let m = svc.metrics().expect("--metrics switches the recorder on");
        let telemetry = svc.telemetry().expect("--metrics switches the recorder on");
        m.ingest(&telemetry.drain_new());
        eprint!(
            "{}{}{}",
            m.prometheus(),
            sched_prometheus(telemetry),
            certify_prometheus()
        );
    }
    Ok(ExitCode::from(u8::from(!healthy)))
}

/// A storm run's reference report, and the protocol and fallback decision
/// of the plan it ran under (`None`: bare).
type Reference = (ExecutionReport, Option<(Algorithm, bool)>);

/// A storm job's reference: its executed program on the [`Simulator`],
/// under the plan [`Planner::certify`] picks for `periods` — the chain
/// admission walks, fallback included, at the service's `cycle_bound` — or
/// bare when `algorithm` is `None`.  Channels are bounded and blocking, so
/// a job is a deterministic (Kahn) network and the pool must reproduce it.
fn reference(
    shape: &JobShape,
    algorithm: Option<Algorithm>,
    periods: &[u64],
    cycle_bound: usize,
) -> Result<Reference, String> {
    let program = shape.executed_program();
    let simulator = Simulator::new(&program);
    let Some(algorithm) = algorithm else {
        return Ok((simulator.run(shape.inputs), None));
    };
    let certified = Planner::new(&shape.graph)
        .algorithm(algorithm)
        .cycle_bound(cycle_bound)
        .certify(periods)
        .map_err(|e| format!("no reference plan: {e}"))?;
    let report = simulator.with_plan(&certified.plan).run(shape.inputs);
    Ok((report, Some((certified.used, certified.fell_back))))
}

/// How closely a storm run must reproduce its [`reference`].
#[derive(Clone, Copy)]
enum Bound {
    /// Verdict, protocol, fallback decision, sink firings and every
    /// per-edge data and dummy count.
    Exact,
    /// The verdict; per-edge data may trail by this many messages, and sink
    /// firings by as many per sink (a lost frontier message suppresses at
    /// most one firing at each sink).  The run may have finished under a
    /// plan certified for an observed profile, so neither its protocol nor
    /// its dummies are compared.
    Data(u64),
}

/// Checks a settled storm run against its reference within `bound`.  Only a
/// [`JobKind::Deadlocker`] may deadlock, and an exactly checked
/// [`JobKind::InteriorFiltered`] job must have fallen back to
/// Non-Propagation.
fn check(
    shape: &JobShape,
    outcome: &JobOutcome,
    reference: Result<Reference, String>,
    bound: Bound,
) -> Result<(), String> {
    let (want, protocol) = reference?;
    let got = &outcome.report;
    let flags = |r: &ExecutionReport| (r.completed, r.deadlocked);
    let expected = if want.completed {
        JobVerdict::Completed
    } else {
        JobVerdict::Deadlocked
    };
    if outcome.verdict != expected || flags(got) != flags(&want) {
        return Err(format!(
            "verdict {:?} {:?}, reference {expected:?} {:?} (completed, deadlocked)",
            outcome.verdict,
            flags(got),
            flags(&want)
        ));
    }
    if outcome.verdict == JobVerdict::Deadlocked && shape.kind != JobKind::Deadlocker {
        return Err("deadlocked, and only Deadlocker shapes may".into());
    }
    let (exact, slack) = match bound {
        Bound::Exact => (true, 0),
        Bound::Data(slack) => (false, slack),
    };
    let ran = outcome.algorithm.map(|a| (a, outcome.fell_back));
    if exact && ran != protocol {
        return Err(format!(
            "ran under {ran:?}, the certification chain picks {protocol:?}"
        ));
    }
    let fallback = Some((Algorithm::NonPropagation, true));
    if exact && shape.kind == JobKind::InteriorFiltered && ran != fallback {
        return Err(format!(
            "ran under {ran:?}, not the Non-Propagation fallback"
        ));
    }
    let edges = want.per_edge_data.len();
    let dummies = want.per_edge_dummies.len();
    if (got.per_edge_data.len(), got.per_edge_dummies.len()) != (edges, dummies) {
        return Err("per-edge count shapes disagree".into());
    }
    for e in 0..edges {
        let (g, r) = (got.per_edge_data[e], want.per_edge_data[e]);
        if g > r || r - g > slack {
            return Err(format!("edge {e}: data {g}, reference {r} (bound {slack})"));
        }
        let (g, r) = (got.per_edge_dummies[e], want.per_edge_dummies[e]);
        if exact && g != r {
            return Err(format!("edge {e}: dummies {g}, reference {r}"));
        }
    }
    let sink_slack = slack.saturating_mul(shape.graph.sinks().len() as u64);
    let (s, r) = (got.sink_firings, want.sink_firings);
    if s > r || r - s > sink_slack {
        return Err(format!(
            "sink firings {s}, reference {r} (bound {sink_slack})"
        ));
    }
    Ok(())
}

/// splitmix64 finaliser — deterministic per-job kill selection.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_file_parses() {
        let text = "# two jobs\njob a\n  inputs 8  # per source\n  algorithm none\n  \
                    edge s t 2\n  filter s 3\nend\njob b\n  edge x y\nend\n";
        let jobs = parse_job_file(text).unwrap();
        let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn every_error_names_its_line() {
        let cases = [
            ("job a\njob b\n", "line 2: nested `job`"),
            ("edge a b\n", "line 1: directive outside a job block"),
            (
                "job a\n  speed 3\nend\n",
                "line 2: unknown directive `speed`",
            ),
            (
                "job a\n  algorithm fast\nend\n",
                "line 2: unknown algorithm `fast`",
            ),
            (
                "job a\n  inputs many\nend\n",
                "line 2: invalid number `many`",
            ),
            ("job a\n  edge a b -1\nend\n", "line 2: invalid number `-1`"),
            (
                "job a\n  edge a\nend\n",
                "line 2: edge needs <src> <dst> [capacity]",
            ),
            (
                "job a\n  edge a b\n  filter a\nend\n",
                "line 3: filter needs <node> <period>",
            ),
            ("job a\n\n  # none\nend\n", "line 4: job a: no edges"),
            (
                "job a\n  edge a b\n  filter c 2\nend\n",
                "line 4: job a: filter on unknown node `c`",
            ),
            ("job a\n  edge a b\n", "unterminated job block"),
            // Surplus words, one case per directive.
            ("job a b\n", "line 1: job needs <name>"),
            (
                "job a\n  edge a b\nend now\n",
                "line 3: end takes no arguments",
            ),
            ("job a\n  inputs 8 9\nend\n", "line 2: inputs needs <count>"),
            (
                "job a\n  algorithm none none\nend\n",
                "line 2: algorithm needs <value>",
            ),
            (
                "job a\n  capacity 4 4\nend\n",
                "line 2: capacity needs <value>",
            ),
            (
                "job a\n  edge a b 4 junk\nend\n",
                "line 2: edge needs <src> <dst> [capacity]",
            ),
            (
                "job a\n  edge a b\n  filter a 2 2\nend\n",
                "line 3: filter needs <node> <period>",
            ),
        ];
        for (text, expected) in cases {
            match parse_job_file(text) {
                Ok(_) => panic!("{text:?} parsed"),
                Err(e) => assert!(e.starts_with(expected), "{text:?}: {e}"),
            }
        }
    }

    /// Seeded random files over the grammar's keywords, its arguments and
    /// junk, with up to five words after a keyword (so every directive also
    /// appears with surplus words): the parser never panics, every error
    /// starts with the line it is about or names the unterminated block, and
    /// a file that parses has no line with more or fewer words than its
    /// directive takes.
    #[test]
    fn random_job_files_never_panic() {
        let keywords: Vec<&str> = "end end inputs algorithm capacity edge edge filter x job"
            .split(' ')
            .collect();
        let words: Vec<&str> = "a b c a b 0 1 3 none propagation nonpropagation -2 1.5 # é job \
                                18446744073709551615 18446744073709551616"
            .split_whitespace()
            .collect();
        fn pick<'a>(r: u64, from: &[&'a str]) -> &'a str {
            from[(r % from.len() as u64) as usize]
        }
        let mut jobs = 0;
        for case in 0..20_000u64 {
            let mut text = String::new();
            for line in 0..mix(case) % 10 {
                let r = mix(case << 16 ^ line);
                // Most files open a block, so the directives are reached.
                let opens = line == 0 && case % 8 != 0;
                text += if opens { "job a" } else { pick(r, &keywords) };
                // Up to three words, and two more on one line in four.
                let surplus = if (r >> 12) % 4 == 0 { 2 } else { 0 };
                for w in 0..(r >> 8) % 4 + surplus {
                    text += " ";
                    text += pick(mix(r ^ w), &words);
                }
                text += "\n";
            }
            match parse_job_file(&text) {
                Ok(parsed) => {
                    for line in text.lines().map(|l| l.split('#').next().unwrap_or("")) {
                        let mut words = line.split_whitespace();
                        let Some(keyword) = words.next() else {
                            continue;
                        };
                        let arity = match keyword {
                            "end" => 0..=0,
                            "edge" => 2..=3,
                            "filter" => 2..=2,
                            _ => 1..=1,
                        };
                        assert!(arity.contains(&words.count()), "{text:?} parsed");
                    }
                    jobs += parsed.len();
                }
                Err(e) => {
                    let line = e
                        .strip_prefix("line ")
                        .and_then(|rest| rest.split_once(':'));
                    let names_line = line.is_some_and(|(n, _)| n.parse::<usize>().is_ok());
                    assert!(
                        names_line || e.starts_with("unterminated job block"),
                        "{text:?}: {e}"
                    );
                }
            }
        }
        assert!(jobs > 0, "no random file held a job");
    }
}
