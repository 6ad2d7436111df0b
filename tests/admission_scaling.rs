//! Admission scales with the graph: the `pipe_hop` chain — 16 384 nodes,
//! capacity 256 — is fingerprinted, recognised, classified and planned, then
//! admitted **planned** through the service and run to completion.
//!
//! Run in release (CI does).  The wall bound is a tripwire for a return of
//! the quadratic passes, not a measurement: before E28 the fingerprint of
//! this graph took ≈ 90 ms, its recognition 0.4–2.8 s, and the planned
//! submission was *rejected* as truncated after 524 s of model checking.

use std::time::{Duration, Instant};

use fila::avoidance::classify;
use fila::graph::fingerprint::fingerprint;
use fila::prelude::*;
use fila::runtime::JobVerdict;
use fila::workloads::generators::pipeline_graph;

#[test]
fn a_sixteen_thousand_node_pipeline_is_admitted_planned_in_seconds() {
    let started = Instant::now();
    let g = pipeline_graph(16_384, 256, true);
    let lap = |what: &str, since: Instant| eprintln!("{what}: {:?}", since.elapsed());

    let t = Instant::now();
    let print = fingerprint(&g);
    lap("fingerprint", t);
    assert_eq!(print, fingerprint(&pipeline_graph(16_384, 256, false)));

    let t = Instant::now();
    let d = recognize(&g)
        .unwrap()
        .decomposition()
        .expect("a pipeline is SP");
    lap("recognize", t);
    assert_eq!(d.forest.children(d.root).len(), g.edge_count());

    let t = Instant::now();
    assert_eq!(classify(&g).unwrap(), GraphClass::SeriesParallel);
    lap("classify", t);

    let t = Instant::now();
    let plan = Planner::new(&g).plan().unwrap();
    lap("plan", t);
    assert_eq!(plan.channels_needing_dummies(), 0);

    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let t = Instant::now();
    let ticket = service
        .submit(JobSpec::new(g, FilterSpec::Broadcast, 16))
        .expect("a cycle-free job is certifiable at any depth");
    lap("submit (cold, certified)", t);
    assert_eq!(ticket.fingerprint, print);
    assert_eq!(ticket.cache_hit, Some(false));
    let outcome = ticket.wait();
    assert_eq!(outcome.verdict, JobVerdict::Completed);
    assert_eq!(outcome.report.sink_firings, 16);

    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "admission took {elapsed:?}"
    );
}
