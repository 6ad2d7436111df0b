//! A multi-tenant job storm: hundreds of mixed dataflows on one shared
//! worker pool, every per-job verdict cross-checked against the reference
//! simulator.
//!
//! ```text
//! cargo run --release --example service_storm [jobs] [seed]
//! ```
//!
//! The workload is `fila_workloads::jobs::job_mix`: mostly well-behaved SP
//! pipelines, SP DAGs and CS4 ladders (drawn from a handful of shape
//! templates, so the structural plan cache gets a realistic hit pattern),
//! plus deliberately **unplannable** dense general graphs (the service must
//! reject them with a reason) and deliberately **deadlocking**
//! under-provisioned shapes submitted with avoidance disabled (the shared
//! pool must hand each an exact per-job deadlock verdict while every other
//! job keeps running).
//!
//! For every admitted job the example replays the identical spec on the
//! single-threaded [`Simulator`] and asserts the verdict **and** the
//! per-edge data/dummy message counts agree — the multi-job pool is not
//! just "roughly right", it is observationally the simulator, job by job.

use fila::prelude::*;
use fila::workloads::jobs::{job_mix, JobKind};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: usize = args
        .next()
        .map(|a| a.parse().expect("jobs must be a number"))
        .unwrap_or(288);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(0xF11A);
    assert!(jobs >= 256, "the storm is meant to be a storm: ≥ 256 jobs");

    let shapes = job_mix(seed, jobs);
    let service = JobService::new(ServiceConfig {
        max_in_flight: jobs,
        ..ServiceConfig::default()
    });

    println!("submitting {jobs} mixed jobs (seed {seed:#x}) …");
    let started = Instant::now();
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for shape in &shapes {
        let spec = JobSpec::from_periods(
            shape.graph.clone(),
            shape.periods.clone(),
            shape.inputs,
            shape.avoidance,
        );
        match service.submit(spec) {
            Ok(ticket) => tickets.push((shape, ticket)),
            Err(RejectReason::Unplannable(why)) => {
                assert_eq!(
                    shape.kind,
                    JobKind::Unplannable,
                    "{} unexpectedly unplannable: {why}",
                    shape.label
                );
                rejected += 1;
            }
            Err(other) => panic!("{} rejected: {other}", shape.label),
        }
    }

    // Drain all in-flight jobs; they executed concurrently on one pool.
    let outcomes: Vec<_> = tickets
        .iter()
        .map(|(shape, ticket)| (*shape, ticket.wait()))
        .collect();
    let storm_wall = started.elapsed();

    // Cross-check every admitted job against the reference simulator.  For
    // planned jobs the reference replays the service's own plan selection:
    // `Planner::certify` walks the identical fallback chain the service's
    // verdict cache walks, so a job the service fell back for must match
    // the fallback plan's run — not the requested protocol's.
    println!("cross-checking {} verdicts against the Simulator …", outcomes.len());
    let mut completed = 0usize;
    let mut deadlocked = 0usize;
    let mut fell_back = 0usize;
    for (shape, outcome) in &outcomes {
        let program = shape.program();
        let reference = if let Some(algorithm) = shape.avoidance {
            let certified = Planner::new(&shape.graph)
                .algorithm(algorithm)
                .certify(&shape.periods)
                .expect("admitted jobs are certifiable");
            assert_eq!(
                outcome.algorithm,
                Some(certified.used),
                "{}: the service executed a different protocol than the \
                 certification chain selects",
                shape.label
            );
            assert_eq!(outcome.fell_back, certified.fell_back, "{}", shape.label);
            if outcome.fell_back {
                fell_back += 1;
            }
            Simulator::new(&program).with_plan(&certified.plan).run(shape.inputs)
        } else {
            Simulator::new(&program).run(shape.inputs)
        };
        assert_eq!(
            outcome.report.completed, reference.completed,
            "{}: completion disagrees with the simulator",
            shape.label
        );
        assert_eq!(
            outcome.report.deadlocked, reference.deadlocked,
            "{}: deadlock verdict disagrees with the simulator",
            shape.label
        );
        assert_eq!(
            outcome.report.per_edge_data, reference.per_edge_data,
            "{}: per-edge data counts disagree",
            shape.label
        );
        assert_eq!(
            outcome.report.per_edge_dummies, reference.per_edge_dummies,
            "{}: per-edge dummy counts disagree",
            shape.label
        );
        match outcome.verdict {
            JobVerdict::Completed => completed += 1,
            JobVerdict::Deadlocked => {
                assert_eq!(shape.kind, JobKind::Deadlocker, "{} deadlocked", shape.label);
                deadlocked += 1;
            }
            other => panic!("{}: unexpected verdict {other:?}", shape.label),
        }
        if shape.kind == JobKind::InteriorFiltered {
            // The fallback chain is exercised end to end: a Propagation
            // request, certified down to a Non-Propagation execution, with
            // a Completed verdict.
            assert!(outcome.fell_back, "{}: expected a fallback", shape.label);
            assert_eq!(outcome.algorithm, Some(Algorithm::NonPropagation), "{}", shape.label);
            assert_eq!(outcome.verdict, JobVerdict::Completed, "{}", shape.label);
        }
    }
    assert!(deadlocked > 0, "the mix must contain deadlocking jobs");
    assert!(rejected > 0, "the mix must contain unplannable jobs");
    assert!(fell_back > 0, "the mix must exercise the certification fallback");

    let stats = service.stats();
    let planned = outcomes.iter().filter(|(shape, _)| shape.avoidance.is_some()).count();
    assert_eq!(stats.certified as usize, planned, "every planned admission must be certified");
    assert_eq!(stats.fell_back as usize, fell_back);
    println!(
        "\n{jobs} jobs in {storm_wall:.2?}: {completed} completed, {deadlocked} deadlocked \
         (exact per-job verdicts), {rejected} rejected as unplannable, \
         {fell_back} certified via fallback"
    );
    println!(
        "plan cache: {} plans served {} planned submissions ({:.0}% hits); \
         certification: {} verdicts served {} lookups ({:.0}% hits)",
        stats.plan_cache_misses,
        stats.plan_cache_hits + stats.plan_cache_misses,
        stats.cache_hit_rate() * 100.0,
        stats.cert_cache_misses,
        stats.cert_cache_hits + stats.cert_cache_misses,
        stats.cert_cache_hit_rate() * 100.0
    );
    println!("aggregate: {}", stats.to_json());
    println!(
        "\nevery verdict, per-edge count and fallback decision matched the reference \
         simulator + certification chain ✓"
    );
}
