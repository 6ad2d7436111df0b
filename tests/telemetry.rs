//! Flight-recorder and metrics properties, exercised through the facade:
//! histogram merge exactness, quantile error bounds, event-ring overflow
//! semantics, and an end-to-end service telemetry smoke.

use fila::prelude::*;
use fila::runtime::telemetry::{chrome_trace, EventKind, TelemetryHandle, TraceEvent};
use fila_service::LatencyHistogram;
use proptest::prelude::*;

// ------------------------------------------------------- histograms ----

/// The true nearest-rank sample quantile (rank `ceil(q*n)` clamped to
/// `[1, n]`) the log-bucketed histogram approximates from above.
fn sample_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, b) is *exactly* the histogram of the concatenated samples:
    /// identical bucket arrays mean bucket-wise addition loses nothing, so
    /// every quantile of the merged histogram equals the quantile of a
    /// histogram built from a ++ b directly.
    #[test]
    fn merge_quantiles_equal_concatenated_quantiles(
        (a, b) in prop::collection::vec(0u64..1u64 << 41, 0..400).prop_map(|raw| {
            // One generated vec, split by the low bit: the vendored proptest
            // shim takes a single strategy per test, so both operands ride in.
            let mut a = Vec::new();
            let mut b = Vec::new();
            for v in raw {
                if v & 1 == 0 { a.push(v >> 1) } else { b.push(v >> 1) }
            }
            (a, b)
        })
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hc = LatencyHistogram::new();
        for &v in &a {
            ha.record(v);
            hc.record(v);
        }
        for &v in &b {
            hb.record(v);
            hc.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.sum_ns(), hc.sum_ns());
        prop_assert_eq!(ha.max_ns(), hc.max_ns());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
        prop_assert_eq!(ha.summary(), hc.summary());
    }

    /// The log-bucketed quantile never under-reports and over-reports by
    /// less than 2x (one power-of-two bucket), clamped to the observed
    /// maximum.
    #[test]
    fn quantile_error_is_bounded_by_one_bucket(
        (samples, q) in prop::collection::vec(0u64..1u64 << 40, 2..300)
            .prop_map(|mut v| {
                // First element doubles as the quantile seed (single-strategy
                // shim); the rest are the samples.
                let seed = v.remove(0);
                (v, (seed % 1001) as f64 / 1000.0)
            })
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let truth = sample_quantile(&sorted, q);
        let approx = h.quantile(q);
        prop_assert!(approx >= truth, "approx {} < true {}", approx, truth);
        if truth > 0 {
            prop_assert!(approx < 2 * truth, "approx {} >= 2x true {}", approx, truth);
        } else {
            prop_assert_eq!(approx, 0);
        }
        prop_assert!(approx <= h.max_ns().max(truth));
    }

    /// A full event ring drops the *newest* records and counts every drop;
    /// committed records survive verbatim, in order.
    #[test]
    fn ring_overflow_drops_newest_with_count(
        (capacity, extra) in (0u64..62 * 50)
            .prop_map(|x| (2 + (x % 62) as usize, x / 62))
    ) {
        let telemetry = TelemetryHandle::with_capacity(1, capacity);
        let total = capacity as u64 + extra;
        for i in 0..total {
            telemetry.record(0, TraceEvent {
                kind: EventKind::Firing,
                worker: 0,
                node: i as u32,
                job: 7,
                t_start_ns: i,
                t_end_ns: i + 1,
                arg: i,
            });
        }
        let drained = telemetry.drain_new();
        // Monotonic head/tail indices let the ring fill every slot;
        // everything beyond capacity was dropped-and-counted.
        let kept = capacity.min(total as usize);
        prop_assert_eq!(drained.len(), kept);
        prop_assert_eq!(telemetry.dropped(), total - kept as u64);
        // Survivors are the oldest records, uncorrupted and in order.
        for (i, e) in drained.iter().enumerate() {
            prop_assert_eq!(e.arg, i as u64);
            prop_assert_eq!(e.node, i as u32);
            prop_assert_eq!(e.t_start_ns, i as u64);
            prop_assert_eq!(e.job, 7);
        }
    }
}

// ---------------------------------------------- end-to-end telemetry ----

fn fork_cycle() -> Graph {
    let mut b = GraphBuilder::new();
    b.edge_with_capacity("a", "b", 2).unwrap();
    b.edge_with_capacity("b", "c", 2).unwrap();
    b.edge_with_capacity("a", "c", 2).unwrap();
    b.build().unwrap()
}

#[test]
fn service_telemetry_end_to_end() {
    let svc = JobService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 8,
        telemetry: true,
        ..ServiceConfig::default()
    });
    for tenant in ["acme", "acme", "globex"] {
        let spec = JobSpec::new(fork_cycle(), FilterSpec::Fork(2), 200).with_tenant(tenant);
        let outcome = svc.submit(spec).expect("admitted").wait();
        assert_eq!(outcome.verdict, JobVerdict::Completed);
    }

    // Stats schema v7: non-zero settle percentiles, both tenants keyed.
    let stats = svc.stats();
    assert_eq!(stats.latency_settle.count, 3);
    assert!(stats.latency_settle.p99_ns > 0);
    assert!(stats.latency_firing.count > 0);
    let tenants: Vec<&str> = stats.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(tenants, ["acme", "globex"]);
    assert_eq!(stats.tenants[0].jobs, 2);
    assert!(stats.tenants[0].latency.p50_ns > 0);
    let json = stats.to_json();
    assert!(json.contains("\"schema_version\": 7"));
    assert!(json.contains("\"tenant\": \"acme\""));

    // The dummy-traffic profiler attributed messages to plan intervals.
    let metrics = svc.metrics().expect("telemetry on");
    let traffic = metrics.interval_traffic();
    assert!(
        !traffic.is_empty(),
        "planned fork job must yield interval traffic"
    );
    assert!(traffic.iter().any(|(_, t)| t.data > 0));

    // Prometheus text: tenant series and summary quantiles render.
    let prom = metrics.prometheus();
    assert!(prom.contains("fila_jobs_settled_total 3"));
    assert!(prom.contains("fila_tenant_settle_latency_ns{tenant=\"acme\",quantile=\"0.99\"}"));
    assert!(prom.contains("fila_edge_messages_total"));

    // Chrome trace: firing spans and the per-job spans export one per line.
    let telemetry = svc.telemetry().expect("telemetry on");
    let events = telemetry.all_events();
    assert!(events.iter().any(|e| e.kind == EventKind::Firing));
    assert_eq!(
        events.iter().filter(|e| e.kind == EventKind::Job).count(),
        3
    );
    let trace = chrome_trace(&events);
    assert!(trace.starts_with("{\"traceEvents\":[\n"));
    assert!(
        trace
            .lines()
            .filter(|l| l.contains("\"name\":\"firing\""))
            .count()
            > 0
    );
}

#[test]
fn firing_spans_sum_to_delivered_messages() {
    // The `Firing` span arg is the number of messages the slice delivered
    // into its output rings (`messages_in_run`): data plus dummies, EOS
    // markers excluded.  Summed over a job's trace it must equal the
    // report's total channel traffic — at every batch size, whether a
    // slice ships one message or a whole run.
    use std::sync::Arc;

    use fila::runtime::filters::Predicate;
    use fila::runtime::AvoidanceMode;

    let g = fork_cycle();
    let plan = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan()
            .unwrap(),
    );
    let a = g.node_by_name("a").unwrap();
    for batch in [1, 8] {
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(|seq, out| out == 0 || seq % 64 == 0));
        let pool = fila::runtime::SharedPool::with(fila::runtime::PoolOptions {
            workers: 2,
            batch,
            telemetry: true,
            ..Default::default()
        });
        let report = pool
            .submit_with(&topo, AvoidanceMode::Plan(Arc::clone(&plan)), 500)
            .wait();
        assert!(report.completed, "{report:?}");
        assert!(
            report.dummy_messages > 0,
            "plan must generate dummy traffic"
        );

        let telemetry = pool.telemetry_handle().expect("telemetry on");
        let events = telemetry.all_events();
        assert_eq!(telemetry.dropped(), 0, "ring sized for this workload");
        let span_sum: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::Firing)
            .map(|e| e.arg)
            .sum();
        let traffic: u64 =
            report.per_edge_data.iter().sum::<u64>() + report.per_edge_dummies.iter().sum::<u64>();
        assert_eq!(
            span_sum, traffic,
            "firing spans must sum to delivered messages at batch {batch}"
        );
    }
}

#[test]
fn telemetry_off_records_nothing_and_stats_stay_empty() {
    let svc = JobService::default();
    let spec = JobSpec::new(fork_cycle(), FilterSpec::Fork(2), 50).with_tenant("acme");
    let outcome = svc.submit(spec).expect("admitted").wait();
    assert_eq!(outcome.verdict, JobVerdict::Completed);
    assert!(svc.telemetry().is_none());
    assert!(svc.metrics().is_none());
    let stats = svc.stats();
    assert_eq!(stats.latency_settle.count, 0);
    assert!(stats.tenants.is_empty());
    assert!(stats.to_json().contains("\"tenants\": []"));
}
