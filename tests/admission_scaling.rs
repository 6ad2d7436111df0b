//! Admission scales with the graph: the `pipe_hop` chain — 16 384 nodes,
//! capacity 256 — is fingerprinted, recognised, classified and planned, then
//! admitted **planned** through the service and run to completion.
//!
//! Run in release (CI does).  The wall bound is a tripwire for a return of
//! the quadratic passes, not a measurement: before E28 the fingerprint of
//! this graph took ≈ 90 ms, its recognition 0.4–2.8 s, and the planned
//! submission was *rejected* as truncated after 524 s of model checking.
//!
//! A certain "no" is bounded the same way (E31): a repeated reject is a
//! cache probe, and a certification truncated before its first step is not
//! run.  Their assertions are counters in every profile; the wall bounds
//! apply to optimised builds only and are tripwires as well.
//!
//! And a cold certification scales with the service's workers (E32, E34):
//! its model-check runs are rows of one table, each run once, by the
//! submitting thread or by an idle worker of the service's pool — and a bare
//! certification outside a service, by its caller alone.  Counters again, no
//! stopwatch.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use fila::avoidance::verify::{
    certification_inputs, certify_runs, ADVERSARIES, MAX_CERTIFICATION_INPUTS,
};
use fila::avoidance::certify_plan;
use fila::avoidance::{classify, CertifyError};
use fila::graph::fingerprint::fingerprint;
use fila::prelude::*;
use fila::runtime::JobVerdict;
use fila::workloads::generators::{pipeline_graph, random_sp_dag, GeneratorConfig};
use fila::workloads::jobs::dense_unplannable;

/// Held around a certification that makes model-check runs: `certify_runs`
/// counts the process's, and the tests of this file share one.
static COUNTED: Mutex<()> = Mutex::new(());

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
    let counted = COUNTED.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let t = Instant::now();
    let ticket = service
        .submit(JobSpec::new(g, FilterSpec::Broadcast, 16))
        .expect("a cycle-free job is certifiable at any depth");
    lap("submit (cold, certified)", t);
    drop(counted);
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

#[test]
fn two_thousand_repeats_of_an_unplannable_shape_are_one_enumeration() {
    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let g = dense_unplannable(10);
    let mut periods = vec![1u64; g.node_count()];
    periods[g.single_source().unwrap().index()] = 2;
    let started = Instant::now();
    let mut first = None;
    for _ in 0..2_000 {
        let spec = JobSpec::from_periods(g.clone(), periods.clone(), 64, Some(Algorithm::NonPropagation));
        match service.submit(spec) {
            Err(RejectReason::Unplannable(why)) => {
                assert_eq!(first.get_or_insert_with(|| why.clone()), &why);
            }
            other => panic!("expected Unplannable, got {other:?}"),
        }
    }
    let elapsed = started.elapsed();
    let stats = service.stats();
    assert_eq!(stats.rejected_unplannable, 2_000);
    assert_eq!((stats.cert_cache_misses, stats.cert_cache_hits), (1, 1_999));
    eprintln!("2 000 repeat rejects: {elapsed:?}");
    if !cfg!(debug_assertions) {
        assert!(elapsed < Duration::from_millis(500), "rejects took {elapsed:?}");
    }
}

#[test]
fn a_horizon_beyond_the_ceiling_is_rejected_before_the_first_step() {
    // Two parallel lanes of capacity-256 hops, 512 nodes in all, the fork
    // filtering at period 2.
    let mut b = GraphBuilder::new().default_capacity(256);
    for lane in ["u", "v"] {
        let names: Vec<String> = (0..255).map(|i| format!("{lane}{i}")).collect();
        let mut chain = vec!["fork"];
        chain.extend(names.iter().map(String::as_str));
        chain.push("join");
        b.chain(&chain).unwrap();
    }
    let g = b.build().unwrap();
    assert_eq!(g.node_count(), 512);
    let required = certification_inputs(&g);
    assert!(required > MAX_CERTIFICATION_INPUTS);
    let mut periods = vec![1u64; g.node_count()];
    periods[g.single_source().unwrap().index()] = 2;

    let started = Instant::now();
    let err = Planner::new(&g)
        .algorithm(Algorithm::NonPropagation)
        .certify(&periods)
        .unwrap_err();
    let cold = started.elapsed();
    let CertifyError::Uncertifiable { attempts, last } = &err else {
        panic!("expected Uncertifiable, got {err}");
    };
    assert_eq!(attempts.len(), 1);
    assert!(last.truncated && !last.certified);
    assert_eq!((last.declared.steps, last.worst_case.steps), (0, 0));

    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::from_periods(g, periods, 64, Some(Algorithm::NonPropagation));
    match service.submit(spec) {
        Err(RejectReason::Uncertifiable(why)) => {
            assert!(why.contains(&format!("requires {required} inputs")), "{why}");
            assert!(why.contains(&format!("is {MAX_CERTIFICATION_INPUTS}")), "{why}");
        }
        other => panic!("expected Uncertifiable, got {other:?}"),
    }
    assert_eq!(service.stats().rejected_uncertifiable, 1);
    eprintln!("truncated reject, cold: {cold:?}");
    if !cfg!(debug_assertions) {
        assert!(cold < Duration::from_millis(100), "the reject took {cold:?}");
    }
}

/// A 512-edge SP DAG whose forks filter, all but its source, and the rows
/// certifying it takes: the declared profile, then one per distinct set of
/// decisions an adversary makes on the filtering nodes data reaches.  The
/// broadcasting source feeds forks on both node parities, so all five
/// adversaries differ.  (A filtering source at node 0 starves everything
/// under both `starve-all` and `odd-nodes-relay`: one row between them.)
fn six_row_shape() -> (Graph, Vec<u64>) {
    let (g, _) = random_sp_dag(&GeneratorConfig {
        target_edges: 512,
        max_fanout: 4,
        capacity_range: (2, 8),
        seed: 32,
    });
    assert!(g.edge_count() >= 512);
    let source = g.single_source().unwrap();
    let periods: Vec<u64> = g
        .node_ids()
        .map(|n| {
            if g.out_degree(n) > 1 && n != source {
                3
            } else {
                1
            }
        })
        .collect();
    let mut said: Vec<Vec<Option<bool>>> = ADVERSARIES
        .iter()
        .map(|&(_, pattern)| {
            let emits =
                |n: NodeId, j| periods[n.index()] == 1 || pattern(n.index(), j, g.out_degree(n));
            let mut reached = vec![false; g.node_count()];
            let mut stack = vec![source];
            while let Some(n) = stack.pop() {
                if !std::mem::replace(&mut reached[n.index()], true) {
                    let outs = g.out_edges(n).iter().enumerate();
                    stack.extend(outs.filter(|&(j, _)| emits(n, j)).map(|(_, &e)| g.head(e)));
                }
            }
            let forks = g.node_ids().filter(|n| periods[n.index()] > 1);
            forks
                .flat_map(|n| {
                    let reached = reached[n.index()];
                    (0..g.out_degree(n)).map(move |j| reached.then(|| emits(n, j)))
                })
                .collect()
        })
        .collect();
    said.sort();
    said.dedup();
    assert_eq!(said.len(), 5);
    (g, periods)
}

#[test]
fn a_cold_certification_runs_each_row_once_and_shares_them_with_the_pool() {
    let (g, periods) = six_row_shape();
    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::from_periods(g, periods, 16, Some(Algorithm::NonPropagation));
    let counted = COUNTED.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = certify_runs();
    let ticket = service.submit(spec).expect("fork filtering certifies under Non-Propagation");
    let after = certify_runs();
    assert_eq!((ticket.cache_hit, ticket.fell_back), (Some(false), false));
    assert_eq!(ticket.wait().verdict, JobVerdict::Completed);

    let (caller, pool) = (after.0 - before.0, after.1 - before.1);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("6 rows: {caller} by the caller, {pool} by the pool ({threads} hardware threads)");
    assert_eq!(caller + pool, 6, "every row is run exactly once");
    assert!(caller >= 1, "the caller always takes part");
    if threads >= 2 {
        assert!(pool >= 1, "the idle worker takes rows");
    }
    // Once a row is over, the worker is the pool's again.
    let again = service.submit(JobSpec::new(pipeline_graph(8, 2, false), FilterSpec::Broadcast, 16));
    drop(counted);
    assert_eq!(again.expect("a pipeline certifies").wait().verdict, JobVerdict::Completed);
}

#[test]
fn a_bare_certification_runs_on_its_caller_alone() {
    let (g, periods) = six_row_shape();
    let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
    let counted = COUNTED.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = certify_runs();
    assert!(certify_plan(&g, &plan, &periods).unwrap().certified);
    let after = certify_runs();
    drop(counted);
    assert_eq!((after.0 - before.0, after.1 - before.1), (6, 0), "(caller, pool) rows");
    // No thread was started for it, named or not.
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks {
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
        assert!(!comm.starts_with("fila-certify"), "a certification thread: {comm}");
    }
}
