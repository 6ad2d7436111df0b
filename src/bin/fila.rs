//! `fila` — drive the multi-tenant job service from the command line.
//!
//! ```text
//! fila run <jobfile> [--workers N]      execute the jobs in a textual job file
//! fila storm [--jobs N] [--seed S] [--workers N] [--kill-rate F]
//!            [--drift-rate F] [--chaos SEED] [--json PATH]
//!            [--trace PATH] [--metrics]
//!                                       submit a generated mixed workload,
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
use std::time::{Duration, Instant};

use fila::prelude::*;
use fila::runtime::FaultPlan;
use fila::workloads::jobs::{job_mix_with_drift, JobKind, JobShape};
use fila_service::metrics::{certify_prometheus, sched_prometheus};
use fila_service::{CheckpointPolicy, JobTicket, RecoveryMode, RecoveryOutcome, RecoveryPolicy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("run") => cmd_run(&args[1..]),
        Some("storm") => cmd_storm(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("fila: unknown command `{other}` (try `fila help`)");
            ExitCode::FAILURE
        }
    }
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
a file (used by CI as a service smoke test).  `--kill-rate F` (0.0..=1.0)
additionally takes a live barrier snapshot of a deterministic fraction F of
the admitted jobs, lets the originals run to their verdicts as references,
then resumes every snapshot and checks the resumed runs settle with the
exact same verdicts and per-edge message counts — a crash-recovery
fault-injection smoke on the real service.  `--drift-rate F` (0.0..=1.0)
converts a deterministic fraction F of the workload into filter-drifting
tenants: jobs that declare (and get certified for) one filter profile but
execute a strictly heavier one.  Each drifting job runs under the adaptive
supervisor, which detects the drift and walks the response ladder —
certified plan hot-swap, quarantine + escalated replan, or cancellation
with the offending nodes — while every hot-swapped job's final counts are
checked against an uninterrupted reference run of its observed profile.
`--chaos SEED` turns the storm into a self-healing smoke: the pool itself
is armed with a deterministic seeded fault plan (worker panics mid-firing
and mid-barrier, delayed wakeups, snapshot corruption on encode and on
restore; `--kill-rate F` is reused as the per-job arming probability,
default 0.25), every job runs under the supervised auto-checkpoint +
recovery ladder (full restore -> partial subgraph restart -> genesis,
alternating exact and approximate recovery modes per job), and every
outcome — recovered or not — is cross-checked against an uninterrupted
Simulator reference run.  Exact-mode recoveries must reproduce the
reference verdict, per-edge data counts, and sink firings bit-exactly;
approximate recoveries may trail by at most the reported divergence.

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
stats JSON (schema v6, with the nested latency/tenant summaries).

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
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
        i += 1;
    }
    Ok(None)
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

fn service(workers: usize, max_in_flight: usize, telemetry: bool) -> JobService {
    JobService::new(ServiceConfig {
        workers,
        max_in_flight,
        telemetry,
        ..ServiceConfig::default()
    })
}

/// Storm worker-count resolution: an explicit `--workers N` is used as
/// given; the `0` default floors the pool at two workers even on a
/// single-core host, so cross-worker behaviour (work stealing, and its
/// flight-recorder spans) is exercised everywhere CI runs.
fn storm_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).max(2)
    }
}

// ---------------------------------------------------------------- run ----

/// One parsed job of a job file.
struct FileJob {
    name: String,
    spec: JobSpec,
}

fn cmd_run(args: &[String]) -> ExitCode {
    let file = match args.first() {
        Some(f) if !f.starts_with("--") => f.clone(),
        _ => {
            eprintln!("fila run: missing <jobfile> (try `fila help`)");
            return ExitCode::FAILURE;
        }
    };
    let workers = match parse_num(args, "--workers", 0usize) {
        Ok(w) => w,
        Err(e) => return fail(&e),
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {file}: {e}")),
    };
    let jobs = match parse_job_file(&text) {
        Ok(jobs) => jobs,
        Err(e) => return fail(&format!("{file}: {e}")),
    };
    if jobs.is_empty() {
        return fail(&format!("{file}: no jobs defined"));
    }

    let svc = service(workers, jobs.len().max(16), false);
    let mut tickets: Vec<(String, Result<JobTicket, RejectReason>)> = Vec::new();
    for job in jobs {
        let ticket = svc.submit(job.spec);
        tickets.push((job.name, ticket));
    }
    let mut failures = 0;
    println!("{:<20} {:<12} {:>10} {:>12} {:>10}  plan", "job", "verdict", "msgs", "msgs/sec", "wall");
    for (name, ticket) in tickets {
        match ticket {
            Err(reason) => {
                failures += 1;
                println!("{name:<20} {:<12} {:>10} {:>12} {:>10}  {reason}", "rejected", "-", "-", "-");
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
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
                let name = rest.first().ok_or_else(|| at("job needs a name"))?;
                current = Some(JobDraft::new(name));
            }
            ("job", Some(_)) => return Err(at("nested `job` (missing `end`?)")),
            (_, None) => return Err(at("directive outside a job block")),
            ("end", Some(_)) => {
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
        let num = |s: &&str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("invalid number `{s}`"))
        };
        match keyword {
            "inputs" => {
                self.inputs = num(rest.first().ok_or("inputs needs a count")?)?;
            }
            "algorithm" => {
                self.avoidance = match *rest.first().ok_or("algorithm needs a value")? {
                    "propagation" => AvoidanceChoice::Planned(Algorithm::Propagation),
                    "nonpropagation" => AvoidanceChoice::Planned(Algorithm::NonPropagation),
                    "none" => AvoidanceChoice::Disabled,
                    other => return Err(format!("unknown algorithm `{other}`")),
                };
            }
            "capacity" => {
                self.default_capacity = num(rest.first().ok_or("capacity needs a value")?)?;
            }
            "edge" => {
                let [src, dst, cap @ ..] = rest else {
                    return Err("edge needs <src> <dst> [capacity]".into());
                };
                let cap = cap.first().map(num).transpose()?;
                self.edges.push((src.to_string(), dst.to_string(), cap));
            }
            "filter" => {
                let [node, period] = rest else {
                    return Err("filter needs <node> <period>".into());
                };
                self.filters.insert(node.to_string(), num(period)?);
            }
            other => return Err(format!("unknown directive `{other}`")),
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
        let graph = b
            .build()
            .map_err(|e| format!("job {}: {e}", self.name))?;
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
fn cmd_trace(args: &[String]) -> ExitCode {
    let file = match args.first() {
        Some(f) if !f.starts_with("--") => f.clone(),
        _ => {
            eprintln!("fila trace: missing <file> (try `fila help`)");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {file}: {e}")),
    };
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
        let ts: f64 = field(line, "\"ts\":").and_then(|v| v.parse().ok()).unwrap_or(0.0);
        let dur: f64 = field(line, "\"dur\":").and_then(|v| v.parse().ok()).unwrap_or(0.0);
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
        return fail(&format!("{file}: no trace events found"));
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
    ExitCode::SUCCESS
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

fn cmd_storm(args: &[String]) -> ExitCode {
    let jobs = match parse_num(args, "--jobs", 256usize) {
        Ok(j) => j.max(1),
        Err(e) => return fail(&e),
    };
    let seed = match parse_num(args, "--seed", 0xF11A_u64) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let workers = match parse_num(args, "--workers", 0usize) {
        Ok(w) => w,
        Err(e) => return fail(&e),
    };
    let json_path = match parse_flag(args, "--json") {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let kill_rate = match parse_num(args, "--kill-rate", 0.0f64) {
        Ok(k) if (0.0..=1.0).contains(&k) => k,
        Ok(k) => return fail(&format!("--kill-rate: {k} is not within 0.0..=1.0")),
        Err(e) => return fail(&e),
    };
    let drift_rate = match parse_num(args, "--drift-rate", 0.0f64) {
        Ok(d) if (0.0..=1.0).contains(&d) => d,
        Ok(d) => return fail(&format!("--drift-rate: {d} is not within 0.0..=1.0")),
        Err(e) => return fail(&e),
    };
    let chaos = match parse_flag(args, "--chaos") {
        Ok(None) => None,
        Ok(Some(v)) => match v.parse::<u64>() {
            Ok(s) => Some(s),
            Err(_) => return fail(&format!("--chaos: invalid seed `{v}`")),
        },
        Err(e) => return fail(&e),
    };
    let trace_path = match parse_flag(args, "--trace") {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let metrics = has_flag(args, "--metrics");
    let telemetry = trace_path.is_some() || metrics;
    let workers = storm_workers(workers);
    if let Some(chaos_seed) = chaos {
        if drift_rate > 0.0 {
            return fail("--chaos and --drift-rate are separate smokes; pick one");
        }
        // In chaos mode --kill-rate is the fault-plan arming probability.
        let arm_rate = if kill_rate > 0.0 { kill_rate } else { 0.25 };
        return cmd_storm_chaos(
            jobs, seed, chaos_seed, arm_rate, workers, json_path, trace_path, metrics,
        );
    }

    let shapes = job_mix_with_drift(seed, jobs, drift_rate);
    let svc = service(workers, jobs, telemetry);
    let policy = DriftPolicy::default();
    let started = Instant::now();
    // Drifting tenants block their supervisor until they settle, so each
    // one runs under a scoped supervision thread while the main thread
    // drives the rest of the storm.
    std::thread::scope(|scope| {
    let svc = &svc;
    let policy = &policy;
    let mut tickets = Vec::new();
    let mut supervisions = Vec::new();
    let mut rejected_unplannable = 0u64;
    let mut rejected_other = 0u64;
    // Fault injection: a deterministic fraction of the admitted jobs gets
    // a live barrier snapshot taken right after admission, *while the pool
    // churns through the rest of the storm*.  The originals are not
    // actually torn down — they run to their verdicts and serve as the
    // uninterrupted references the resumed runs are checked against.
    let mut snapshots = Vec::new();
    let mut killed = 0u64;
    let mut outran = 0u64;
    let mut mismatched = 0u64;
    for shape in &shapes {
        if shape.kind == JobKind::Drifting {
            let actual = shape
                .actual_periods
                .clone()
                .expect("drifting shapes carry an executed profile");
            let spec = spec_of(shape).with_actual_filters(FilterSpec::PerNode(actual));
            match svc.submit(spec.clone()) {
                Ok(ticket) => {
                    let handle = scope.spawn(move || svc.supervise(&spec, ticket, policy));
                    supervisions.push((shape, handle));
                }
                Err(reason) => {
                    rejected_other += 1;
                    eprintln!("storm: {} rejected: {reason}", shape.label);
                }
            }
            continue;
        }
        match svc.submit(spec_of(shape)) {
            Ok(t) => {
                let i = tickets.len();
                if kill_rate > 0.0
                    && (mix(seed ^ 0xD1E ^ i as u64) as f64) < kill_rate * u64::MAX as f64
                {
                    match svc.checkpoint_job(&t) {
                        Ok(snapshot) => {
                            killed += 1;
                            snapshots.push((i, snapshot));
                        }
                        Err(fila::runtime::SnapshotError::Settled(_)) => outran += 1,
                        Err(e) => {
                            mismatched += 1;
                            eprintln!("storm: {} checkpoint failed: {e}", shape.label);
                        }
                    }
                }
                tickets.push((shape, t));
            }
            Err(RejectReason::Unplannable(_)) => {
                rejected_unplannable += 1;
                assert!(
                    shape.kind == JobKind::Unplannable,
                    "only Unplannable shapes may be rejected as unplannable, got {}",
                    shape.label
                );
            }
            Err(other) => {
                rejected_other += 1;
                eprintln!("storm: {} rejected: {other}", shape.label);
            }
        }
    }
    let mut completed = 0u64;
    let mut deadlocked = 0u64;
    let mut fell_back = 0u64;
    let mut other = 0u64;
    let mut outcomes = Vec::with_capacity(tickets.len());
    for (shape, ticket) in &tickets {
        let outcome = ticket.wait();
        if outcome.fell_back {
            fell_back += 1;
        }
        match outcome.verdict {
            JobVerdict::Completed => completed += 1,
            JobVerdict::Deadlocked => {
                deadlocked += 1;
                assert!(
                    shape.kind == JobKind::Deadlocker,
                    "only Deadlocker shapes may deadlock, got {}",
                    shape.label
                );
            }
            _ => other += 1,
        }
        outcomes.push(outcome);
    }
    // Restore every snapshot and pin the resumed run to its reference:
    // same verdict, same cumulative per-edge counts, same sink firings.
    let mut restored = 0u64;
    for (i, snapshot) in &snapshots {
        let (shape, _) = &tickets[*i];
        let original = &outcomes[*i];
        match svc.resume_job(spec_of(shape), snapshot) {
            Ok(ticket) => {
                let resumed = ticket.wait();
                if resumed.verdict == original.verdict
                    && resumed.report.per_edge_data == original.report.per_edge_data
                    && resumed.report.per_edge_dummies == original.report.per_edge_dummies
                    && resumed.report.sink_firings == original.report.sink_firings
                {
                    restored += 1;
                } else {
                    mismatched += 1;
                    eprintln!(
                        "storm: {} resumed run diverged from its reference \
                         ({:?} vs {:?})",
                        shape.label, resumed.verdict, original.verdict
                    );
                }
            }
            Err(e) => {
                mismatched += 1;
                eprintln!("storm: {} resume rejected: {e}", shape.label);
            }
        }
    }
    // Join the supervisors and pin every swapped job to its reference: a
    // hot-swapped (or replanned) run must complete with exactly the
    // per-edge data counts and sink firings of an uninterrupted run of
    // its *observed* profile under the swapped-in plan — data counts are
    // a property of the Kahn network, not of the protecting plan or of
    // where the migration cut fell.
    let mut drifting = 0u64;
    let mut hot_swapped = 0u64;
    let mut replanned = 0u64;
    let mut drift_cancelled = 0u64;
    let mut drift_settled = 0u64;
    let swap_matches_reference =
        |shape: &JobShape, outcome: &fila_service::JobOutcome, swap: &SwapReport| -> bool {
            let reference = Planner::new(&shape.graph)
                .algorithm(swap.algorithm)
                .certify(&swap.observed_periods)
                .ok()
                .map(|c| {
                    Simulator::new(&shape.executed_program())
                        .with_plan(&c.plan)
                        .run(shape.inputs)
                });
            outcome.verdict == JobVerdict::Completed
                && reference.as_ref().is_some_and(|r| {
                    r.completed
                        && r.per_edge_data == outcome.report.per_edge_data
                        && r.sink_firings == outcome.report.sink_firings
                })
        };
    for (shape, handle) in supervisions {
        drifting += 1;
        match handle.join().expect("supervisor threads do not panic") {
            AdaptiveOutcome::Settled(outcome) => {
                drift_settled += 1;
                if outcome.verdict != JobVerdict::Completed {
                    other += 1;
                    eprintln!(
                        "storm: {} settled {:?} before the ladder could act",
                        shape.label, outcome.verdict
                    );
                }
            }
            AdaptiveOutcome::HotSwapped { outcome, swap } => {
                hot_swapped += 1;
                if !swap_matches_reference(shape, &outcome, &swap) {
                    mismatched += 1;
                    eprintln!(
                        "storm: {} hot-swapped run diverged from its \
                         observed-profile reference ({:?})",
                        shape.label, outcome.verdict
                    );
                }
            }
            AdaptiveOutcome::Replanned { outcome, swap } => {
                replanned += 1;
                if !swap_matches_reference(shape, &outcome, &swap) {
                    mismatched += 1;
                    eprintln!(
                        "storm: {} replanned run diverged from its \
                         observed-profile reference ({:?})",
                        shape.label, outcome.verdict
                    );
                }
            }
            AdaptiveOutcome::DriftCancelled { offenders, .. } => {
                drift_cancelled += 1;
                if offenders.is_empty() {
                    mismatched += 1;
                    eprintln!("storm: {} drift-cancelled without offenders", shape.label);
                }
            }
        }
    }
    let wall = started.elapsed();
    let stats = svc.stats();
    eprintln!(
        "storm: {jobs} jobs in {wall:.2?} — {completed} completed, {deadlocked} deadlocked, \
         {rejected_unplannable} rejected unplannable, {rejected_other} rejected other, {other} other; \
         {} certified ({fell_back} via fallback); \
         cache {:.0}% hits ({} plans for {} planned jobs), cert cache {:.0}% hits",
        stats.certified,
        stats.cache_hit_rate() * 100.0,
        stats.plan_cache_misses,
        stats.plan_cache_hits + stats.plan_cache_misses,
        stats.cert_cache_hit_rate() * 100.0,
    );
    if kill_rate > 0.0 {
        eprintln!(
            "storm kill/restore: {killed} snapshots captured, {outran} settled before \
             their checkpoint, {restored} restored with identical outcomes, \
             {mismatched} mismatched"
        );
    }
    if drift_rate > 0.0 {
        eprintln!(
            "storm drift: {drifting} drifting tenants — {hot_swapped} hot-swapped, \
             {replanned} replanned, {drift_cancelled} drift-cancelled, \
             {drift_settled} settled untouched"
        );
    }
    let healthy = rejected_other == 0 && other == 0 && mismatched == 0;
    finish_storm(
        svc,
        &stats,
        json_path.as_deref(),
        trace_path.as_deref(),
        metrics,
        healthy,
    )
    })
}

/// The tail both storm modes end with: the stats JSON on stdout and in
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
) -> ExitCode {
    let json = stats.to_json();
    println!("{json}");
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            return fail(&format!("cannot write {path}: {e}"));
        }
    }
    if let Some(path) = trace_path {
        let telemetry = svc.telemetry().expect("--trace switches the recorder on");
        let trace = telemetry.chrome_trace();
        if let Err(e) = std::fs::write(path, trace) {
            return fail(&format!("cannot write {path}: {e}"));
        }
        let dropped = telemetry.dropped();
        if dropped > 0 {
            eprintln!("storm: flight recorder dropped {dropped} events (full rings)");
        }
    }
    if metrics {
        let m = svc.metrics().expect("--metrics switches the recorder on");
        let telemetry = svc.telemetry().expect("--metrics switches the recorder on");
        m.ingest(&telemetry.drain_new());
        eprint!("{}{}{}", m.prometheus(), sched_prometheus(telemetry), certify_prometheus());
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// -------------------------------------------------------- chaos storm ----

/// `fila storm --chaos SEED`: the same mixed workload, but the pool itself
/// is armed with a deterministic seeded [`FaultPlan`] and every job runs
/// under the supervised recovery ladder of
/// [`JobService::run_recoverable`].  Every outcome — uninterrupted or
/// recovered — is cross-checked against an uninterrupted [`Simulator`]
/// reference run of the same shape: exact-mode recoveries must reproduce
/// the reference verdict, per-edge data counts, and sink firings
/// bit-exactly; approximate recoveries may trail each count by at most
/// the divergence the splice accepted.
#[allow(clippy::too_many_arguments)]
fn cmd_storm_chaos(
    jobs: usize,
    seed: u64,
    chaos_seed: u64,
    arm_rate: f64,
    workers: usize,
    json_path: Option<String>,
    trace_path: Option<String>,
    metrics: bool,
) -> ExitCode {
    // Injected fault panics are part of the experiment: silence their
    // default-hook stack traces so the storm output stays readable, but
    // keep the hook for any *real* panic.
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

    let shapes = job_mix_with_drift(seed, jobs, 0.0);
    let faults = Arc::new(FaultPlan::seeded(chaos_seed).kill_rate(arm_rate));
    let svc = JobService::new(ServiceConfig {
        workers,
        max_in_flight: jobs,
        faults: Some(faults),
        telemetry: trace_path.is_some() || metrics,
        ..ServiceConfig::default()
    });
    let cycle_bound = svc.config().cycle_bound;
    let started = Instant::now();

    let mut uninterrupted = 0u64;
    let mut recovered_jobs = 0u64;
    let mut crashes = 0u64;
    let mut partial_restarts = 0u64;
    let mut midbarrier_partial_restarts = 0u64;
    let mut genesis_restarts = 0u64;
    let mut approx_divergent = 0u64;
    let mut exhausted = 0u64;
    let mut rejected_unplannable = 0u64;
    let mut rejected_other = 0u64;
    let mut mismatched = 0u64;

    std::thread::scope(|scope| {
        let svc = &svc;
        let mut handles = Vec::new();
        for (i, shape) in shapes.iter().enumerate() {
            let spec = spec_of(shape);
            // Alternate what recovery is allowed to give up, so one storm
            // exercises both ladder orders: exact (full restore first,
            // partial only at zero divergence) and approximate (partial
            // subgraph restart first, bounded divergence accepted).
            let mode = if i % 2 == 0 {
                RecoveryMode::Exact
            } else {
                RecoveryMode::Approximate { max_divergence: 256 }
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
            handles.push((
                shape,
                mode,
                scope.spawn(move || svc.run_recoverable(&spec, &checkpoints, &policy)),
            ));
        }
        for (shape, mode, handle) in handles {
            match handle.join().expect("recovery supervisors do not panic") {
                Err(RejectReason::Unplannable(_)) => {
                    rejected_unplannable += 1;
                    assert!(
                        shape.kind == JobKind::Unplannable,
                        "only Unplannable shapes may be rejected as unplannable, got {}",
                        shape.label
                    );
                }
                Err(other) => {
                    rejected_other += 1;
                    eprintln!("storm: {} rejected: {other}", shape.label);
                }
                Ok(RecoveryOutcome::Uninterrupted(outcome)) => {
                    uninterrupted += 1;
                    if let Err(why) = chaos_matches_reference(shape, &outcome, 0, cycle_bound) {
                        mismatched += 1;
                        eprintln!(
                            "storm: {} uninterrupted run diverged from its reference: {why}",
                            shape.label
                        );
                    }
                }
                Ok(RecoveryOutcome::Recovered { outcome, report }) => {
                    recovered_jobs += 1;
                    crashes += u64::from(report.crashes);
                    if report.partial_restart {
                        partial_restarts += 1;
                        if report.midbarrier_crash {
                            midbarrier_partial_restarts += 1;
                        }
                    }
                    if report.genesis_restart {
                        genesis_restarts += 1;
                    }
                    // An exact-mode ladder (and any zero-divergence
                    // recovery) must be bit-exact; an approximate splice
                    // may trail the reference by what it reported losing.
                    let bound = match mode {
                        RecoveryMode::Exact => 0,
                        RecoveryMode::Approximate { .. } => report.divergence,
                    };
                    if bound > 0 {
                        approx_divergent += 1;
                    }
                    if let Err(why) = chaos_matches_reference(shape, &outcome, bound, cycle_bound) {
                        mismatched += 1;
                        eprintln!(
                            "storm: {} recovered run ({} crashes, divergence {}) \
                             diverged from its reference: {why}",
                            shape.label, report.crashes, report.divergence
                        );
                    }
                }
                Ok(RecoveryOutcome::Exhausted { report, last_error }) => {
                    exhausted += 1;
                    eprintln!(
                        "storm: {} recovery exhausted after {} attempts: {last_error}",
                        shape.label, report.attempts
                    );
                }
            }
        }
    });

    let wall = started.elapsed();
    let stats = svc.stats();
    eprintln!(
        "storm chaos: seed={chaos_seed} arm-rate={arm_rate} — {jobs} jobs in {wall:.2?}: \
         uninterrupted={uninterrupted} recovered={recovered_jobs} crashes={crashes} \
         partial_restarts={partial_restarts} \
         midbarrier_partial_restarts={midbarrier_partial_restarts} \
         genesis_restarts={genesis_restarts} approx_divergent={approx_divergent} \
         exhausted={exhausted} rejected_unplannable={rejected_unplannable} \
         rejected_other={rejected_other} mismatched={mismatched}"
    );
    let healthy = rejected_other == 0 && exhausted == 0 && mismatched == 0;
    finish_storm(
        &svc,
        &stats,
        json_path.as_deref(),
        trace_path.as_deref(),
        metrics,
        healthy,
    )
}

/// Pins a chaos-storm outcome to an uninterrupted [`Simulator`] reference
/// run of the same shape.  `bound` is the tolerated per-edge data deficit
/// (0 for exact-mode and uninterrupted runs); the sink-firing deficit is
/// allowed `bound` per sink, since one lost frontier message suppresses at
/// most one firing at each downstream sink.  Dummy counts are *not*
/// compared: admission and the reference both walk the same certification
/// chain (`walk_certification_chain`) against the declared profile, but a
/// partial restart re-certifies against the *observed* profile and may
/// land on another plan, whose dummies differ.
fn chaos_matches_reference(
    shape: &JobShape,
    outcome: &fila_service::JobOutcome,
    bound: u64,
    cycle_bound: usize,
) -> Result<(), String> {
    let Some(reference) = chaos_reference(shape, cycle_bound) else {
        // No certifiable reference plan (the service admitted via a path
        // the bare planner cannot reproduce): pin the verdict only.
        return if outcome.verdict == JobVerdict::Completed {
            Ok(())
        } else {
            Err(format!("no reference plan and verdict {:?}", outcome.verdict))
        };
    };
    let expected = if reference.completed {
        JobVerdict::Completed
    } else {
        JobVerdict::Deadlocked
    };
    if outcome.verdict != expected {
        return Err(format!("verdict {:?}, reference {expected:?}", outcome.verdict));
    }
    let got = &outcome.report.per_edge_data;
    if got.len() != reference.per_edge_data.len() {
        return Err("per-edge count shapes disagree".into());
    }
    for (e, (g, r)) in got.iter().zip(&reference.per_edge_data).enumerate() {
        if g > r || r - g > bound {
            return Err(format!("edge {e}: data {g} vs reference {r} (bound {bound})"));
        }
    }
    let sink_bound = bound.saturating_mul(shape.graph.sinks().len() as u64);
    let (s, r) = (outcome.report.sink_firings, reference.sink_firings);
    if s > r || r - s > sink_bound {
        return Err(format!("sink firings {s} vs reference {r} (bound {sink_bound})"));
    }
    Ok(())
}

/// An uninterrupted reference run for a chaos-storm shape: planned shapes
/// simulate under the plan [`Planner::certify`] accepts for the requested
/// protocol — its chain already falls back to the other protocol, exactly
/// like admission, under the service's `cycle_bound` — and bare shapes
/// simulate unprotected: deadlockers deterministically reach their unique
/// blocked quiescent state, so even their counts are pinnable.
fn chaos_reference(shape: &JobShape, cycle_bound: usize) -> Option<ExecutionReport> {
    let program = shape.executed_program();
    let Some(requested) = shape.avoidance else {
        return Some(Simulator::new(&program).run(shape.inputs));
    };
    let certified = Planner::new(&shape.graph)
        .algorithm(requested)
        .cycle_bound(cycle_bound)
        .certify(&shape.periods)
        .ok()?;
    let simulator = Simulator::new(&program).with_plan(&certified.plan);
    Some(simulator.run(shape.inputs))
}

/// splitmix64 finaliser — deterministic per-job kill selection.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("fila: {msg}");
    ExitCode::FAILURE
}
