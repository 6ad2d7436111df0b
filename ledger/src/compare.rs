//! `ledger compare A.json B.json`: applies the bounds of `BENCHMARK.json` to
//! two `ledger all` documents, parent first.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .ok_or(format!("end_to_end entry without {key:?}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    other => return Err(format!("better must be lower or higher, not {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
}

/// `worsening` is the change as a share of the parent, positive when worse;
/// `spread` the wider of the two sides' interquartile range over median,
/// where the metric has quartiles.
pub fn verdict(worsening: f64, spread: Option<f64>, bound: f64) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Untraced runs of a `ledger all` document, by workload.
fn runs_of(doc: &Value) -> Result<BTreeMap<String, &Value>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("not a `ledger all` document: no runs list")?;
    let mut by_workload = BTreeMap::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let name = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload name")?;
        by_workload.insert(name.to_string(), run);
    }
    Ok(by_workload)
}

fn metric_of(run: &Value, name: &str) -> Option<(f64, Option<f64>, String)> {
    let metric = run.get("metrics")?.get(name)?;
    let value = metric.get("value")?.as_f64()?;
    let spread = match (
        metric.get("q1").and_then(Value::as_f64),
        metric.get("q3").and_then(Value::as_f64),
    ) {
        (Some(q1), Some(q3)) if value != 0.0 => Some((q3 - q1) / value.abs()),
        _ => None,
    };
    let unit = metric
        .get("unit")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    Some((value, spread, unit))
}

/// The comparison table and whether the change passes.  Refuses (`Err`) to
/// compare runs that differ in inputs, hardware threads or workers.
pub fn compare(parent: &str, change: &str, bounds: &[Bound]) -> Result<(String, bool), String> {
    let (parent, change) = (json::parse(parent)?, json::parse(change)?);
    let (parent_runs, change_runs) = (runs_of(&parent)?, runs_of(&change)?);
    let mut table = format!(
        "{:<11} {:<16} {:>14} {:>14} {:>24} {:>6}  verdict\n",
        "workload", "metric", "parent", "change", "change/parent", "bound"
    );
    let mut pass = true;
    for (workload, a) in &parent_runs {
        let b = change_runs
            .get(workload)
            .ok_or(format!("{workload}: missing from the change's runs"))?;
        for key in ["inputs_digest", "nproc", "workers"] {
            if a.get(key) != b.get(key) {
                return Err(format!(
                    "{workload}: {key} differs ({:?} vs {:?}); the runs are not comparable",
                    a.get(key),
                    b.get(key)
                ));
            }
        }
        let failed = |run: &Value| {
            run.get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        if failed(b) > failed(a) {
            table.push_str(&format!(
                "{workload:<11} failed operations rose from {} to {}\n",
                failed(a),
                failed(b)
            ));
            pass = false;
        }
        for bound in bounds {
            let (Some((pv, ps, unit)), Some((cv, cs, _))) =
                (metric_of(a, &bound.name), metric_of(b, &bound.name))
            else {
                return Err(format!(
                    "{workload}: metric {} missing from a run",
                    bound.name
                ));
            };
            let change_share = (cv - pv) / pv.abs().max(f64::MIN_POSITIVE);
            let worsening = if bound.lower_is_better {
                change_share
            } else {
                -change_share
            };
            let spread = match (ps, cs) {
                (Some(p), Some(c)) => Some(p.max(c)),
                (p, c) => p.or(c),
            };
            let verdict = verdict(worsening, spread, bound.bound);
            pass &= verdict != Verdict::Regressed;
            table.push_str(&format!(
                "{workload:<11} {:<16} {pv:>14.4} {cv:>14.4} {:>24} {:>6.2}  {}\n",
                bound.name,
                format!("{:.4} of {pv:.4} {unit}", cv / pv),
                bound.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    Ok((table, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "msg_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#;

    fn doc(msg_per_s: f64, q1: f64, q3: f64, setup_s: f64, digest: &str, failed: u64) -> String {
        format!(
            r#"{{"runs": [{{"workload": "w", "trace": 0, "inputs_digest": "{digest}", "nproc": 2,
            "workers": 1, "failed": {failed}, "metrics": {{
            "msg_per_s": {{"value": {msg_per_s}, "unit": "1/s", "n": 9, "q1": {q1}, "q3": {q3}}},
            "setup_s": {{"value": {setup_s}, "unit": "s", "n": 3}}}}}}]}}"#
        )
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(verdict(0.05, Some(0.02), 0.1), Verdict::Ok);
        assert_eq!(verdict(0.15, Some(0.02), 0.1), Verdict::Regressed);
        assert_eq!(verdict(0.15, Some(0.2), 0.1), Verdict::Unresolved);
        assert_eq!(verdict(-0.3, None, 0.1), Verdict::Ok);
        let bounds = bounds_from(BOUNDS).unwrap();
        assert!(!bounds[0].lower_is_better);
        assert_eq!(bounds[1].bound, 0.2);

        let parent = doc(100.0, 99.0, 101.0, 1.0, "0xa", 0);
        // 5 % fewer msg/s and 10 % more set-up: inside both bounds.
        let (table, pass) =
            compare(&parent, &doc(95.0, 94.0, 96.0, 1.1, "0xa", 0), &bounds).unwrap();
        assert!(pass, "{table}");
        // 20 % fewer msg/s: regressed, although higher set-up alone is fine.
        let (table, pass) =
            compare(&parent, &doc(80.0, 79.0, 81.0, 1.0, "0xa", 0), &bounds).unwrap();
        assert!(!pass && table.contains("regressed"), "{table}");
        // The same drop under a spread wider than the bound is unresolved.
        let (table, pass) =
            compare(&parent, &doc(80.0, 60.0, 100.0, 1.0, "0xa", 0), &bounds).unwrap();
        assert!(pass && table.contains("unresolved"), "{table}");
        // More failed operations never pass.
        let (_, pass) = compare(&parent, &doc(100.0, 99.0, 101.0, 1.0, "0xa", 1), &bounds).unwrap();
        assert!(!pass);
    }

    #[test]
    fn refuses_runs_on_other_inputs() {
        let bounds = bounds_from(BOUNDS).unwrap();
        let err = compare(
            &doc(100.0, 99.0, 101.0, 1.0, "0xa", 0),
            &doc(100.0, 99.0, 101.0, 1.0, "0xb", 0),
            &bounds,
        )
        .unwrap_err();
        assert!(err.contains("inputs_digest"), "{err}");
        assert!(compare("{}", "{}", &bounds).is_err());
    }
}
