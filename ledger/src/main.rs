//! `ledger`: the end-to-end + layer-budget benchmark of the `fila`
//! workspace.  README.md beside this package explains the workloads, the
//! metrics and how to read the output; `BENCHMARK.json` at the repository
//! root declares them to the driver.
//!
//! ```text
//! ledger run --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! ledger trace --workload W ...          (run --trace 1)
//! ledger all [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE]
//! ledger compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]
//! ledger digests [--seed S]
//! ```

mod compare;
mod digest;
mod e2e;
mod host;
mod json;
mod layers;
mod report;
mod rng;
mod span;
mod stats;
mod sys;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use fila_service::JobService;

use crate::e2e::Tally;
use crate::json::{number, quote};
use crate::report::Metric;
use crate::workloads::{Workload, DEFAULT_SEED, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Timed rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    let outcome = match command {
        "run" => run(rest, None),
        "trace" => run(rest, Some(true)),
        "all" => all(rest),
        "compare" => compare(rest),
        "digests" => digests(rest),
        _ => {
            eprintln!("{}", USAGE.trim());
            return if command == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "
ledger run --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--trace-out FILE]
ledger trace --workload W ...     the traced, per-layer run (run --trace 1)
ledger all [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE]
ledger compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]
ledger digests [--seed S]         the inputs digest of every workload

workloads: pipe_hop sp_tight storm_warm admit_cold
";

/// `--flag value` pairs and bare `--switches` of a command line.
struct Flags<'a> {
    args: &'a [String],
}

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.args.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

struct Options {
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
}

impl Options {
    fn from(flags: &Flags<'_>, force_trace: Option<bool>) -> Result<Options, String> {
        let smoke = flags.has("--smoke");
        let seconds: f64 = flags.parsed("--seconds", if smoke { 1.0 } else { 25.0 })?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], not {seconds}"));
        }
        let traced = match force_trace {
            Some(traced) => traced,
            None => match flags.parsed::<u8>("--trace", 0)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
        };
        Ok(Options {
            seed: flags.parsed("--seed", DEFAULT_SEED)?,
            seconds,
            smoke,
            traced,
        })
    }
}

/// Generates the workload and starts its service: everything a run does
/// before the first job moves.
fn set_up(name: &str, options: &Options) -> Result<(Workload, JobService), String> {
    let workload = workloads::generate(name, options.seed, options.smoke)?;
    let service = e2e::start_service(&workload, false);
    Ok((workload, service))
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// checkout (the driver's is not).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

/// One line of JSON: the header and every metric with its sample count and
/// quartiles — what `ledger all` collects and `ledger compare` reads.
fn record_json(
    workload: &Workload,
    options: &Options,
    tally: &Tally,
    metrics: &[Metric],
) -> String {
    let metrics: Vec<String> = metrics.iter().map(Metric::record_json).collect();
    let failures: Vec<String> = tally.failures.iter().map(|f| quote(f)).collect();
    format!(
        "{{\"ledger\": 1, \"workload\": {}, \"trace\": {}, \"commit\": {}, \"rustc\": {}, \
         \"profile\": {}, \"nproc\": {}, \"workers\": {}, \"seed\": {}, \"seconds\": {}, \
         \"smoke\": {}, \"inputs_digest\": \"{:#018x}\", \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
        quote(workload.name),
        u8::from(options.traced),
        quote(&commit()),
        quote(env!("LEDGER_RUSTC")),
        quote(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        sys::nproc(),
        workload.workers,
        options.seed,
        number(options.seconds),
        options.smoke,
        workload.digest,
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        failures.join(", "),
        metrics.join(", "),
    )
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn contract_json(tally: &Tally, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics.iter().map(Metric::contract_json).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

fn run(args: &[String], force_trace: Option<bool>) -> Result<bool, String> {
    let flags = Flags { args };
    let options = Options::from(&flags, force_trace)?;
    let name = flags.value("--workload").ok_or("run needs --workload")?;
    if cfg!(debug_assertions) && !options.smoke {
        return Err(
            "a debug build measures nothing useful: build with --release (or pass --smoke)".into(),
        );
    }
    if sys::process_cpu_ns().is_none() {
        return Err("cannot read CPU time from /proc/self/task/*/schedstat".into());
    }

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = set_up(name, &options)?;
        setups_s.push(started.elapsed().as_secs_f64());
        // The previous set-up's pool is shut down outside the clock.
        ready = Some(built);
    }
    let (workload, service) = ready.expect("SETUPS is at least one");

    if options.seed == DEFAULT_SEED && !options.smoke {
        let committed = workloads::committed_digest(workload.name);
        if committed != Some(workload.digest) {
            return Err(format!(
                "{}: inputs digest {:#018x} is not the committed {:#018x?}: the generated traffic \
                 changed, so no earlier run is comparable (see `committed_digest`)",
                workload.name, workload.digest, committed
            ));
        }
    }

    let (metrics, unbounded, tally) = if options.traced {
        drop(service);
        let mut tracer = span::Tracer::default();
        let (metrics, tally) = layers::per_layer(
            &workload,
            options.seed,
            options.seconds,
            options.smoke,
            &mut tracer,
        );
        let path = match flags.value("--trace-out") {
            Some(path) => PathBuf::from(path),
            None => default_trace_path(workload.name)?,
        };
        std::fs::write(&path, tracer.chrome_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "ledger: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        (metrics, Vec::new(), tally)
    } else {
        let measured = e2e::measure(&workload, &service, options.seconds, MIN_ROUNDS);
        let mut unbounded = report::latencies(&measured);
        unbounded.extend(report::host_slowdown(&measured));
        (
            report::end_to_end(&measured, &setups_s),
            unbounded,
            measured.tally,
        )
    };

    for failure in &tally.failures {
        eprintln!("ledger: FAILED {failure}");
    }
    // One write, and a reader that stops early (`| head -1`) is not an error.
    let lines = format!(
        "{}\n{}\n",
        record_json(
            &workload,
            &options,
            &tally,
            &[&metrics[..], &unbounded[..]].concat()
        ),
        contract_json(&tally, &metrics)
    );
    let _ = std::io::stdout().write_all(lines.as_bytes());
    Ok(tally.failed == 0)
}

/// Beside the executable, which is inside the build directory: ignored by
/// git and inside the checkout.
fn default_trace_path(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe.parent().ok_or("the executable has no directory")?;
    Ok(dir.join(format!("ledger-trace-{workload}.json")))
}

/// Runs every workload in a fresh process each (clean peak memory, clean
/// thread-local pools) and merges their records into one document.
fn all(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut records = Vec::new();
    let mut correct = true;
    for name in NAMES {
        let mut child = Command::new(&exe);
        child.args(["run", "--workload", name]);
        for flag in ["--seed", "--seconds", "--trace"] {
            if let Some(value) = flags.value(flag) {
                child.args([flag, value]);
            }
        }
        if flags.has("--smoke") {
            child.arg("--smoke");
        }
        eprintln!("ledger: running {name}");
        let output = child
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        match stdout.lines().next() {
            Some(record) if record.starts_with("{\"ledger\"") => records.push(record.to_string()),
            _ => {
                return Err(format!(
                    "{name}: the run printed no record ({})",
                    output.status
                ))
            }
        }
        correct &= output.status.success();
    }
    let document = format!(
        "{{\"ledger_all\": 1, \"runs\": [\n{}\n]}}\n",
        records.join(",\n")
    );
    match flags.value("--out") {
        Some(path) => {
            std::fs::write(path, document).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => print!("{document}"),
    }
    Ok(correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let bounds_path = flags.value("--bounds").unwrap_or("BENCHMARK.json");
    let files: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| !a.starts_with("--") && a != bounds_path)
        .collect();
    let [parent, change] = files[..] else {
        return Err("compare needs exactly two files: PARENT.json CHANGE.json".into());
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let bounds = compare::bounds_from(&read(bounds_path)?)?;
    let (table, pass) = compare::compare(&read(parent)?, &read(change)?, &bounds)?;
    print!("{table}");
    Ok(pass)
}

fn digests(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let seed = flags.parsed("--seed", DEFAULT_SEED)?;
    for name in NAMES {
        let workload = workloads::generate(name, seed, flags.has("--smoke"))?;
        println!("\"{name}\" => Some({:#018x}),", workload.digest);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_and_numbers() {
        let args = strings(&[
            "--workload",
            "pipe_hop",
            "--seed",
            "61722",
            "--smoke",
            "--seconds",
            "2.5",
        ]);
        let flags = Flags { args: &args };
        assert_eq!(flags.value("--workload"), Some("pipe_hop"));
        assert_eq!(flags.parsed::<u64>("--seed", 0), Ok(0xF11A));
        assert_eq!(flags.parsed::<u64>("--absent", 7), Ok(7));
        assert!(flags.has("--smoke"));
        let options = Options::from(&flags, None).unwrap();
        assert!(options.smoke && !options.traced);
        assert_eq!(options.seconds, 2.5);
        assert!(Options::from(
            &Flags {
                args: &strings(&["--trace", "2"])
            },
            None
        )
        .is_err());
        assert!(Options::from(
            &Flags {
                args: &strings(&["--seconds", "0"])
            },
            None
        )
        .is_err());
        assert!(Options::from(
            &Flags {
                args: &strings(&["--seed", "x"])
            },
            None
        )
        .is_err());
        assert!(Options::from(
            &Flags {
                args: &strings(&["--seed"])
            },
            None
        )
        .is_err());
    }

    /// `BENCHMARK.json` is what the driver believes; the code is what runs.
    #[test]
    fn benchmark_json_declares_exactly_what_the_ledger_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |section: &str, key: &str| -> Vec<String> {
            doc.get(section)
                .and_then(json::Value::as_array)
                .unwrap_or_else(|| panic!("no {section} list"))
                .iter()
                .map(|entry| {
                    entry
                        .get(key)
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let emitted = |metrics: &[Metric], pick: fn(&Metric) -> String| -> Vec<String> {
            metrics.iter().map(pick).collect()
        };
        assert_eq!(declared("workloads", "name"), NAMES);

        let end_to_end = report::end_to_end(&e2e::Measured::default(), &[1.0]);
        assert_eq!(
            declared("end_to_end", "name"),
            emitted(&end_to_end, |m| m.name.clone())
        );
        assert_eq!(
            declared("end_to_end", "unit"),
            emitted(&end_to_end, |m| m.unit.to_string())
        );

        let workload = workloads::generate("admit_cold", 1, true).unwrap();
        let mut tracer = span::Tracer::default();
        let (per_layer, tally) = layers::per_layer(&workload, 1, 0.1, true, &mut tracer);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        assert_eq!(
            declared("per_layer", "name"),
            emitted(&per_layer, |m| m.name.clone())
        );
        assert_eq!(
            declared("per_layer", "unit"),
            emitted(&per_layer, |m| m.unit.to_string())
        );
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
        };
        let metrics = [Metric::single("setup_s", "s", 0.8127)];
        let line = json::parse(&contract_json(&tally, &metrics)).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
