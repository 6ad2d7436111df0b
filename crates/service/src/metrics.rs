//! Service-side metrics built on the runtime flight recorder: log-bucketed
//! latency histograms (per job and per tenant), firing/blocked-time
//! distributions ingested from [`TraceEvent`] streams, and the per-edge
//! dummy-vs-data bandwidth profiler that attributes avoidance overhead to
//! plan intervals.
//!
//! Everything here is **mergeable**: two [`LatencyHistogram`]s (or two
//! whole [`ServiceMetrics`]) merge by bucket-wise addition, and the merged
//! quantiles are *identical* to the quantiles of the concatenated sample
//! streams — the property the future cross-shard stats aggregation relies
//! on, and the property the facade proptest suite pins.
//!
//! The histogram is log-bucketed by bit length: bucket `i` holds every
//! value whose bit length is `i` (bucket 0 holds exactly the value 0), so
//! a reported quantile is the *upper bound* of its bucket — at most 2×
//! the true sample, never below it.  64-bit nanoseconds need 65 buckets.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Duration;

use fila_runtime::telemetry::{EventKind, SchedCounter, TelemetryHandle, TraceEvent};
use fila_runtime::ExecutionReport;

/// Number of histogram buckets: one per possible bit length of a `u64`
/// (1..=64), plus bucket 0 for the value 0.
pub const BUCKETS: usize = 65;

/// A log-bucketed (bit-length) latency histogram over `u64` nanoseconds.
///
/// Recording and merging are exact on the bucket array, so
/// `merge(a, b).quantile(q) == concat(samples(a), samples(b)).quantile(q)`
/// for every `q` — merging loses nothing the buckets had not already
/// coarsened.  A quantile is the upper bound of the bucket containing the
/// rank, i.e. within a factor of 2 above the true sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, value_ns: u64) {
        self.buckets[bucket_index(value_ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(value_ns);
        self.min_ns = self.min_ns.min(value_ns);
        self.max_ns = self.max_ns.max(value_ns);
    }

    /// Folds `other` into `self` (bucket-wise addition; see the type docs
    /// for the exactness guarantee).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest sample recorded (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Smallest sample recorded (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Sum of all samples (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing that rank — within 2× above the true sample, never
    /// below it.  0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                // Clamp the top bucket's open upper bound to the real max.
                return bucket_upper_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The p50/p90/p99/p999 summary embedded in stats schema v6.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max_ns(),
        }
    }
}

/// Percentile snapshot of one [`LatencyHistogram`] (stats schema v6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples the percentiles were computed over.
    pub count: u64,
    /// Median (bucket upper bound; ≤ 2× the true sample).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact largest sample.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Renders the summary as a JSON object (hand-rolled, schema v6).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
            self.count, self.p50_ns, self.p90_ns, self.p99_ns, self.p999_ns, self.max_ns
        )
    }
}

/// Per-tenant slice of the service metrics (stats schema v6 `tenants`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantSummary {
    /// Tenant tag from [`crate::JobSpec::tenant`] (jobs submitted without
    /// a tag pool under `"untagged"`).
    pub tenant: String,
    /// Jobs settled for this tenant.
    pub jobs: u64,
    /// Messages (data + dummy) delivered across this tenant's jobs.
    pub messages: u64,
    /// Admission→settle latency percentiles for this tenant.
    pub latency: LatencySummary,
}

impl TenantSummary {
    /// Renders the tenant row as a JSON object (schema v6).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tenant\": \"{}\", \"jobs\": {}, \"messages\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
            escape(&self.tenant),
            self.jobs,
            self.messages,
            self.latency.p50_ns,
            self.latency.p99_ns,
            self.latency.p999_ns,
        )
    }
}

/// Dummy-vs-data traffic attributed to one plan-interval bucket by the
/// avoidance-overhead profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalTraffic {
    /// Edge-observations accumulated (one per edge per settled job).
    pub edge_observations: u64,
    /// Data messages delivered on edges planned at this interval.
    pub data: u64,
    /// Dummy messages delivered on edges planned at this interval — the
    /// avoidance overhead this interval choice cost.
    pub dummies: u64,
}

/// The interval key the profiler files unplanned (or infinite-interval)
/// edges under.
pub const INTERVAL_NONE: u64 = u64::MAX;

#[derive(Default)]
struct TenantStat {
    settle: LatencyHistogram,
    jobs: u64,
    messages: u64,
}

#[derive(Default)]
struct MetricsInner {
    settle: LatencyHistogram,
    firing: LatencyHistogram,
    blocked: LatencyHistogram,
    tenants: BTreeMap<String, TenantStat>,
    intervals: BTreeMap<u64, IntervalTraffic>,
    /// Open blocked-stall instants awaiting the same task's next firing:
    /// `(job serial, node) → stall timestamp`.
    pending_blocked: HashMap<(u64, u32), u64>,
    jobs: u64,
}

/// Aggregated service metrics: job/tenant latency histograms, firing and
/// blocked-time distributions (fed from the flight-recorder stream), and
/// the per-plan-interval dummy-traffic profiler.
///
/// All methods take `&self`; the state lives behind one mutex, touched
/// once per settled job and once per drain — never on the pool's firing
/// hot path.
#[derive(Default)]
pub struct ServiceMetrics {
    inner: Mutex<MetricsInner>,
}

impl std::fmt::Debug for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("ServiceMetrics")
            .field("jobs", &inner.jobs)
            .field("settle_count", &inner.settle.count())
            .finish()
    }
}

impl ServiceMetrics {
    /// An empty metrics aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one settled job: its admission→settle latency keyed by
    /// tenant, and its per-edge traffic attributed to plan intervals
    /// (`edge_intervals[e]` = the planned dummy interval of edge `e`,
    /// [`INTERVAL_NONE`] for infinite; `None` = the job ran unplanned).
    pub fn record_job(
        &self,
        tenant: Option<&str>,
        latency: Duration,
        report: &ExecutionReport,
        edge_intervals: Option<&[u64]>,
    ) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.lock();
        inner.jobs += 1;
        inner.settle.record(ns);
        let messages = report.total_messages();
        let t = inner
            .tenants
            .entry(tenant.unwrap_or("untagged").to_string())
            .or_default();
        t.jobs += 1;
        t.messages += messages;
        t.settle.record(ns);
        for e in 0..report.per_edge_data.len() {
            let key = edge_intervals
                .and_then(|iv| iv.get(e).copied())
                .unwrap_or(INTERVAL_NONE);
            let traffic = inner.intervals.entry(key).or_default();
            traffic.edge_observations += 1;
            traffic.data += report.per_edge_data[e];
            traffic.dummies += report.per_edge_dummies[e];
        }
    }

    /// Streams a drained flight-recorder batch into the firing-duration
    /// and blocked-time histograms.  Blocked time is measured from a
    /// task's blocked-stall instant to that task's next firing-span start;
    /// open stalls are held across batches.
    pub fn ingest(&self, events: &[TraceEvent]) {
        let mut inner = self.lock();
        for e in events {
            match e.kind {
                EventKind::Firing => {
                    inner.firing.record(e.duration_ns());
                    if let Some(stalled_at) = inner.pending_blocked.remove(&(e.job, e.node)) {
                        inner
                            .blocked
                            .record(e.t_start_ns.saturating_sub(stalled_at));
                    }
                }
                EventKind::BlockedInput | EventKind::BlockedSpace => {
                    inner
                        .pending_blocked
                        .entry((e.job, e.node))
                        .or_insert(e.t_start_ns);
                }
                _ => {}
            }
        }
    }

    /// Folds `other` into `self` — the cross-shard merge: histograms add
    /// bucket-wise, tenants and interval buckets add by key.
    pub fn merge(&self, other: &ServiceMetrics) {
        let other = other.lock();
        let mut inner = self.lock();
        inner.jobs += other.jobs;
        inner.settle.merge(&other.settle);
        inner.firing.merge(&other.firing);
        inner.blocked.merge(&other.blocked);
        for (name, stat) in &other.tenants {
            let t = inner.tenants.entry(name.clone()).or_default();
            t.jobs += stat.jobs;
            t.messages += stat.messages;
            t.settle.merge(&stat.settle);
        }
        for (&key, traffic) in &other.intervals {
            let mine = inner.intervals.entry(key).or_default();
            mine.edge_observations += traffic.edge_observations;
            mine.data += traffic.data;
            mine.dummies += traffic.dummies;
        }
    }

    /// Jobs recorded via [`ServiceMetrics::record_job`].
    pub fn jobs(&self) -> u64 {
        self.lock().jobs
    }

    /// Admission→settle latency percentiles over all jobs.
    pub fn settle_summary(&self) -> LatencySummary {
        self.lock().settle.summary()
    }

    /// Firing-span duration percentiles (from the flight recorder).
    pub fn firing_summary(&self) -> LatencySummary {
        self.lock().firing.summary()
    }

    /// Blocked-time percentiles (stall instant → next firing).
    pub fn blocked_summary(&self) -> LatencySummary {
        self.lock().blocked.summary()
    }

    /// Per-tenant summaries, sorted by tenant name.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        self.lock()
            .tenants
            .iter()
            .map(|(name, stat)| TenantSummary {
                tenant: name.clone(),
                jobs: stat.jobs,
                messages: stat.messages,
                latency: stat.settle.summary(),
            })
            .collect()
    }

    /// Per-plan-interval traffic attribution, sorted by interval
    /// ([`INTERVAL_NONE`] last).
    pub fn interval_traffic(&self) -> Vec<(u64, IntervalTraffic)> {
        self.lock()
            .intervals
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Renders a Prometheus-style text snapshot (hand-rolled exposition
    /// format: `# TYPE` headers, `{label="..."}` series, one sample per
    /// line).
    pub fn prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(2048);
        out.push_str("# TYPE fila_jobs_settled_total counter\n");
        out.push_str(&format!("fila_jobs_settled_total {}\n", inner.jobs));
        for (name, hist) in [
            ("fila_settle_latency_ns", &inner.settle),
            ("fila_firing_duration_ns", &inner.firing),
            ("fila_blocked_time_ns", &inner.blocked),
        ] {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    hist.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", hist.sum_ns()));
            out.push_str(&format!("{name}_count {}\n", hist.count()));
        }
        out.push_str("# TYPE fila_tenant_settle_latency_ns summary\n");
        for (tenant, stat) in &inner.tenants {
            let tenant = label_value(tenant);
            for (label, q) in [("0.5", 0.5), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "fila_tenant_settle_latency_ns{{tenant=\"{tenant}\",quantile=\"{label}\"}} {}\n",
                    stat.settle.quantile(q)
                ));
            }
            out.push_str(&format!(
                "fila_tenant_settle_latency_ns_count{{tenant=\"{tenant}\"}} {}\n",
                stat.jobs
            ));
            out.push_str(&format!(
                "fila_tenant_messages_total{{tenant=\"{tenant}\"}} {}\n",
                stat.messages
            ));
        }
        out.push_str("# TYPE fila_edge_messages_total counter\n");
        for (&interval, traffic) in &inner.intervals {
            let interval = if interval == INTERVAL_NONE {
                "inf".to_string()
            } else {
                interval.to_string()
            };
            out.push_str(&format!(
                "fila_edge_messages_total{{interval=\"{interval}\",kind=\"data\"}} {}\n",
                traffic.data
            ));
            out.push_str(&format!(
                "fila_edge_messages_total{{interval=\"{interval}\",kind=\"dummy\"}} {}\n",
                traffic.dummies
            ));
        }
        out
    }
}

/// Renders the pool scheduler's counters (E23) as the `fila_sched_*`
/// Prometheus family: one counter per [`SchedCounter`], one series per
/// worker lane plus `worker="control"` for threads that are not workers
/// (job submission).
pub fn sched_prometheus(telemetry: &TelemetryHandle) -> String {
    let rows = telemetry.sched_counters();
    let mut out = String::new();
    for (at, counter) in SchedCounter::ALL.iter().enumerate() {
        let name = format!("fila_sched_{}_total", counter.name());
        out.push_str(&format!("# TYPE {name} counter\n"));
        for (lane, row) in rows.iter().enumerate() {
            let worker = if lane < telemetry.workers() {
                lane.to_string()
            } else {
                "control".to_string()
            };
            out.push_str(&format!("{name}{{worker=\"{worker}\"}} {}\n", row[at]));
        }
    }
    out
}

/// Renders who ran certification's model-check runs (E32, E34) as
/// `fila_certify_runs_total`: `by="caller"` the threads that asked for a
/// certification, `by="pool"` the idle pool workers that helped.  The
/// counters are the process's, not one service's.
pub fn certify_prometheus() -> String {
    let (caller, pool) = fila_avoidance::verify::certify_runs();
    format!(
        "# TYPE fila_certify_runs_total counter\n\
         fila_certify_runs_total{{by=\"caller\"}} {caller}\n\
         fila_certify_runs_total{{by=\"pool\"}} {pool}\n"
    )
}

/// Escapes a Prometheus label value.  The text format defines three
/// escapes — `\\`, `\"` and `\n` — and its parser rejects any other, so
/// every other character is written as it is.
fn label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Minimal escaping for JSON strings.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_samples_from_above_within_2x() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 5, 9, 17, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        // Every quantile is >= some sample and < 2x the max sample.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(est >= h.min_ns());
            assert!(est <= 2 * h.max_ns());
        }
        // The max quantile is clamped to the exact max.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.max_ns(), 1000);
        assert_eq!(h.min_ns(), 3);
        assert_eq!(h.sum_ns(), 3 + 5 + 9 + 17 + 100 + 1000);
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let (mut a, mut b, mut c) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for v in [1u64, 10, 100] {
            a.record(v);
            c.record(v);
        }
        for v in [5u64, 50, 500, 5000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn zero_only_histogram() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.summary().p999_ns, 0);
    }

    #[test]
    fn record_job_keys_tenants_and_intervals() {
        let m = ServiceMetrics::new();
        let report = ExecutionReport {
            per_edge_data: vec![10, 20],
            per_edge_dummies: vec![1, 2],
            data_messages: 30,
            dummy_messages: 3,
            completed: true,
            ..Default::default()
        };
        m.record_job(
            Some("batch"),
            Duration::from_micros(500),
            &report,
            Some(&[8, INTERVAL_NONE]),
        );
        m.record_job(None, Duration::from_micros(100), &report, None);
        assert_eq!(m.jobs(), 2);
        let tenants = m.tenant_summaries();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].tenant, "batch");
        assert_eq!(tenants[0].jobs, 1);
        assert_eq!(tenants[0].messages, 33);
        assert!(tenants[0].latency.p50_ns >= 500_000);
        assert_eq!(tenants[1].tenant, "untagged");
        let intervals = m.interval_traffic();
        // Interval 8 (edge 0 of job 1) and INTERVAL_NONE (everything else).
        assert_eq!(intervals.len(), 2);
        assert_eq!(intervals[0].0, 8);
        assert_eq!(intervals[0].1.data, 10);
        assert_eq!(intervals[0].1.dummies, 1);
        let (_, none) = intervals[1];
        assert_eq!(none.data, 20 + 30);
        assert_eq!(none.dummies, 2 + 3);
    }

    #[test]
    fn ingest_pairs_blocked_stalls_with_next_firing() {
        use fila_runtime::telemetry::TraceEvent;
        let m = ServiceMetrics::new();
        let blocked = TraceEvent {
            kind: EventKind::BlockedInput,
            worker: 0,
            node: 3,
            job: 1,
            t_start_ns: 1_000,
            t_end_ns: 1_000,
            arg: 0,
        };
        let firing = TraceEvent {
            kind: EventKind::Firing,
            worker: 0,
            node: 3,
            job: 1,
            t_start_ns: 9_000,
            t_end_ns: 9_500,
            arg: 4,
        };
        m.ingest(&[blocked]);
        // The stall stays open across batches.
        m.ingest(&[firing]);
        let blocked_summary = m.blocked_summary();
        assert_eq!(blocked_summary.count, 1);
        assert!(blocked_summary.p50_ns >= 8_000);
        assert_eq!(m.firing_summary().count, 1);
    }

    #[test]
    fn merge_is_cross_shard_addition() {
        let a = ServiceMetrics::new();
        let b = ServiceMetrics::new();
        let report = ExecutionReport {
            data_messages: 5,
            completed: true,
            ..Default::default()
        };
        a.record_job(Some("t1"), Duration::from_micros(10), &report, None);
        b.record_job(Some("t1"), Duration::from_micros(20), &report, None);
        b.record_job(Some("t2"), Duration::from_micros(30), &report, None);
        a.merge(&b);
        assert_eq!(a.jobs(), 3);
        let tenants = a.tenant_summaries();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].jobs, 2);
        assert_eq!(a.settle_summary().count, 3);
    }

    #[test]
    fn sched_counters_render_per_lane() {
        let telemetry = TelemetryHandle::with_capacity(2, 8);
        telemetry.count(1, SchedCounter::SlotHit, 5);
        telemetry.count(fila_runtime::telemetry::CONTROL_LANE, SchedCounter::InjectorPush, 3);
        telemetry.count(0, SchedCounter::Handoff, 2);
        telemetry.count(1, SchedCounter::Migration, 4);
        telemetry.count(0, SchedCounter::Renewal, 6);
        let text = sched_prometheus(&telemetry);
        assert!(text.contains("fila_sched_migrations_total{worker=\"1\"} 4"));
        assert!(text.contains("fila_sched_renewals_total{worker=\"0\"} 6"));
        assert!(text.contains("# TYPE fila_sched_handoffs_total counter"));
        assert!(text.contains("fila_sched_handoffs_total{worker=\"0\"} 2"));
        assert!(text.contains("# TYPE fila_sched_slot_hits_total counter"));
        assert!(text.contains("fila_sched_slot_hits_total{worker=\"1\"} 5"));
        assert!(text.contains("fila_sched_slot_hits_total{worker=\"0\"} 0"));
        assert!(text.contains("fila_sched_injector_pushes_total{worker=\"control\"} 3"));
        assert!(text.contains("fila_sched_unparks_suppressed_total"));
    }

    #[test]
    fn certify_runs_render_by_who_ran_them() {
        let text = certify_prometheus();
        assert!(text.starts_with("# TYPE fila_certify_runs_total counter\n"));
        assert!(text.contains("fila_certify_runs_total{by=\"caller\"} "));
        assert!(text.contains("fila_certify_runs_total{by=\"pool\"} "));
    }

    #[test]
    fn prometheus_text_has_series_and_escapes() {
        let m = ServiceMetrics::new();
        let report = ExecutionReport {
            data_messages: 5,
            completed: true,
            ..Default::default()
        };
        m.record_job(Some("a\"b"), Duration::from_micros(10), &report, None);
        let text = m.prometheus();
        assert!(text.contains("fila_jobs_settled_total 1"));
        assert!(text.contains("fila_settle_latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("tenant=\"a\\\"b\""));
        assert!(text.contains("fila_edge_messages_total"));
    }

    #[test]
    fn a_tenant_is_escaped_for_json_and_for_prometheus_each_by_its_rules() {
        let m = ServiceMetrics::new();
        let report = ExecutionReport {
            completed: true,
            ..Default::default()
        };
        m.record_job(Some("a\tb\"c\\d\ne"), Duration::from_micros(10), &report, None);
        let json = m.tenant_summaries()[0].to_json();
        assert!(json.starts_with(r#"{"tenant": "a\u0009b\"c\\d\ne", "jobs": 1"#), "{json}");
        // Prometheus: the tab stays a tab; only `\`, `"` and newline are escaped.
        let text = m.prometheus();
        let series = "fila_tenant_messages_total{tenant=\"a\tb\\\"c\\\\d\\ne\"} 0\n";
        assert!(text.contains(series), "{text}");
        assert!(!text.contains("\\u0009"), "{text}");
    }
}
