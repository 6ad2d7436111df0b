//! Metrics as the ledger reports them: a name, a unit, the value, and where
//! the value is a median over rounds, the quartiles beside it.

use crate::e2e::{Measured, RoundStats};
use crate::json::{number, quote};
use crate::stats::{quartiles, Quartiles};
use crate::sys::peak_rss_mb;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Quartiles of those samples, for a value that is their median.
    pub quartiles: Option<Quartiles>,
}

impl Metric {
    /// A single measurement or an exact count.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            quartiles: None,
        }
    }

    /// The median of `samples` (0 when there are none).
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let q = quartiles(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: q.map_or(0.0, |q| q.median),
            n: samples.len(),
            quartiles: q,
        }
    }

    /// `"name": {"value": v, "unit": u}` — the form the driver reads.
    pub fn contract_json(&self) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&self.name),
            number(self.value),
            quote(self.unit)
        )
    }

    /// The same with the sample count and quartiles, for `ledger compare`.
    pub fn record_json(&self) -> String {
        let spread = self.quartiles.map_or(String::new(), |q| {
            format!(", \"q1\": {}, \"q3\": {}", number(q.q1), number(q.q3))
        });
        format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}{spread}}}",
            quote(&self.name),
            number(self.value),
            quote(self.unit),
            self.n
        )
    }
}

fn over_rounds(
    measured: &Measured,
    name: &str,
    unit: &'static str,
    of: impl Fn(&RoundStats) -> f64,
) -> Metric {
    let samples: Vec<f64> = measured.rounds.iter().map(of).collect();
    Metric::median(name, unit, &samples)
}

impl Metric {
    /// The same metric with value and quartiles multiplied by `factor`.
    fn scaled(mut self, factor: f64) -> Metric {
        self.value *= factor;
        if let Some(q) = &mut self.quartiles {
            (q.q1, q.median, q.q3) = (q.q1 * factor, q.median * factor, q.q3 * factor);
        }
        self
    }
}

/// The end-to-end metrics of one untraced run: each the median over the
/// timed rounds of that round's rate or cost.  Where the workload is one
/// that follows the host's memory latency (`Measured::host_slowdown`, see
/// `host.rs`), rates are multiplied and costs divided by the run's slowdown:
/// they read "at the nominal host", and a slow phase of the host no longer
/// reads as a slow program.
pub fn end_to_end(measured: &Measured, setups_s: &[f64]) -> Vec<Metric> {
    let slowdown = measured.host_slowdown.unwrap_or(1.0);
    vec![
        Metric::median("setup_s", "s", setups_s),
        over_rounds(measured, "msg_per_s", "1/s", |r| {
            r.messages() as f64 / r.wall_s
        })
        .scaled(slowdown),
        over_rounds(measured, "cpu_ns_per_msg", "ns", |r| {
            r.cpu_ns as f64 / r.messages().max(1) as f64
        })
        .scaled(1.0 / slowdown),
        over_rounds(measured, "jobs_per_s", "1/s", |r| r.jobs as f64 / r.wall_s).scaled(slowdown),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(0.0)),
    ]
}

/// The run's host slowdown where one was divided out, for the record: a
/// reported rate ÷ it is the rate as clocked.
pub fn host_slowdown(measured: &Measured) -> Option<Metric> {
    measured
        .host_slowdown
        .map(|slowdown| Metric::single("host_slowdown", "ratio", slowdown))
}

/// Latencies the record carries beside the end-to-end metrics, without a
/// regression bound, because on this host each is unsteady on one workload:
/// admitting `pipe_hop`'s job faults in 235 MB of rings, which costs 130 ms
/// or 330 ms depending on the host's memory state that minute; on
/// `storm_warm` the window of 32 fills and drains in bursts (the driver
/// waits oldest-first), so settle percentiles move by a quarter between
/// identical runs; and one descheduled driver thread moves the slowest
/// hundredth of admissions by half.
pub fn latencies(measured: &Measured) -> Vec<Metric> {
    vec![
        over_rounds(measured, "admit_p50_us", "us", |r| r.admit_p50_us),
        over_rounds(measured, "settle_p50_us", "us", |r| r.settle_p50_us),
        over_rounds(measured, "settle_p99_us", "us", |r| r.settle_p99_us),
        over_rounds(measured, "admit_p99_us", "us", |r| r.admit_p99_us),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_slowdown_is_divided_out_of_rates_and_costs_only() {
        let round = RoundStats {
            wall_s: 2.0,
            cpu_ns: 3_000,
            data: 60,
            dummies: 40,
            jobs: 8,
            ..RoundStats::default()
        };
        let mut measured = Measured {
            rounds: vec![round.clone(), round],
            ..Measured::default()
        };
        let value = |measured: &Measured, name: &str| {
            let metrics = end_to_end(measured, &[0.5]);
            metrics.iter().find(|m| m.name == name).unwrap().clone()
        };
        assert_eq!(value(&measured, "msg_per_s").value, 50.0);
        assert_eq!(value(&measured, "cpu_ns_per_msg").value, 30.0);
        assert!(host_slowdown(&measured).is_none());
        // A host running a quarter slow: the same program, reported as it
        // would have run on the nominal host.
        measured.host_slowdown = Some(1.25);
        let rate = value(&measured, "msg_per_s");
        assert_eq!(rate.value, 62.5);
        assert_eq!(rate.quartiles.unwrap().q3, 62.5);
        assert_eq!(value(&measured, "cpu_ns_per_msg").value, 24.0);
        assert_eq!(value(&measured, "jobs_per_s").value, 5.0);
        assert_eq!(value(&measured, "setup_s").value, 0.5);
        assert_eq!(host_slowdown(&measured).unwrap().value, 1.25);
    }
}
