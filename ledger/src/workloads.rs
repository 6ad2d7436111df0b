//! The four workloads: what each one submits, generated from the seed, and
//! the reference every outcome is checked against.
//!
//! The ledger owns the mix — kinds, sizes and ratios are decided here from
//! its own splitmix64 stream; `fila_workloads` is only asked to *construct*
//! graphs from the `u64` seeds this module hands it.  The program under
//! test receives nothing but the generated [`JobSpec`]s.

use std::sync::Arc;

use fila_avoidance::{Algorithm, AvoidancePlan, Planner};
use fila_graph::Graph;
use fila_runtime::{ExecutionReport, Simulator};
use fila_service::{AvoidanceChoice, FilterSpec, JobSpec, ServiceConfig};
use fila_workloads::generators::{
    pipeline_graph, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};
use fila_workloads::jobs::{dense_unplannable, interior_filtered_fallback, underprovisioned_sp};

use crate::digest::Digest;
use crate::rng::SplitMix64;
use crate::sys::nproc;

/// The seed the committed digests ([`committed_digest`]) belong to.
pub const DEFAULT_SEED: u64 = 0xF11A;

/// Workload names, in the order `ledger all` runs them.
pub const NAMES: [&str; 4] = ["pipe_hop", "sp_tight", "storm_warm", "admit_cold"];

/// The inputs digest of each full-size workload at [`DEFAULT_SEED`].  A run
/// at that seed whose generated jobs hash differently fails before it
/// measures anything: an edit to `fila_workloads::generators` (or to this
/// file) must not silently change the traffic two commits are compared on.
/// Regenerate with `ledger digests` and say why in the commit.
pub fn committed_digest(name: &str) -> Option<u64> {
    match name {
        "pipe_hop" => Some(0x4D2E_804B_C236_0D8E),
        "sp_tight" => Some(0x51FD_F524_0BE4_4716),
        "storm_warm" => Some(0x43EB_0893_3AD7_137D),
        "admit_cold" => Some(0xC45B_B1EC_8590_9AAA),
        _ => None,
    }
}

/// What the reference run of one job produced (schedule-invariant counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub completed: bool,
    pub deadlocked: bool,
    pub per_edge_data: Vec<u64>,
    pub per_edge_dummies: Vec<u64>,
    pub sink_firings: u64,
    /// The protocol the certification chain selects (`None` = runs bare).
    pub algorithm: Option<Algorithm>,
    pub fell_back: bool,
}

impl Reference {
    pub fn of(report: ExecutionReport, algorithm: Option<Algorithm>, fell_back: bool) -> Self {
        Reference {
            completed: report.completed,
            deadlocked: report.deadlocked,
            per_edge_data: report.per_edge_data,
            per_edge_dummies: report.per_edge_dummies,
            sink_firings: report.sink_firings,
            algorithm,
            fell_back,
        }
    }

    pub fn messages(&self) -> u64 {
        self.per_edge_data.iter().sum::<u64>() + self.per_edge_dummies.iter().sum::<u64>()
    }

    /// What in an engine's `report` differs from this reference, if
    /// anything: completion, per-edge data and dummy counts, sink firings.
    pub fn difference(&self, report: &ExecutionReport) -> Option<String> {
        if (report.completed, report.deadlocked) != (self.completed, self.deadlocked) {
            return Some(format!(
                "completed {} / deadlocked {}, reference {} / {}",
                report.completed, report.deadlocked, self.completed, self.deadlocked
            ));
        }
        if report.per_edge_data != self.per_edge_data {
            return Some("per-edge data counts differ".to_string());
        }
        if report.per_edge_dummies != self.per_edge_dummies {
            return Some("per-edge dummy counts differ".to_string());
        }
        if report.sink_firings != self.sink_firings {
            return Some(format!(
                "sink firings {}, reference {}",
                report.sink_firings, self.sink_firings
            ));
        }
        None
    }
}

/// The correct outcome of submitting a job.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Admitted, and settles exactly like this.
    Settles(Reference),
    /// Rejected as unplannable — a correct outcome, not a failure.
    RejectedUnplannable,
    /// Admitted and completes; its counts are checked after the run against
    /// a `Simulator` replay under the plan the service cached for it.
    /// Used where computing the plan in set-up would cost as much as the
    /// admissions being measured (`admit_cold`).
    CheckedAfter,
}

#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub spec: JobSpec,
    pub expect: Expect,
    /// The certified plan the reference ran under (layer probes replay it).
    pub plan: Option<Arc<AvoidancePlan>>,
}

impl Job {
    /// A job whose reference is the `Simulator` under the plan
    /// `Planner::certify` selects — the same fallback chain the service's
    /// verdict cache walks, computed here independently of it.
    pub fn with_simulated_reference(label: String, spec: JobSpec) -> Job {
        let periods = spec.filters.periods(&spec.graph);
        let topology = spec.topology();
        let (expect, plan) = match spec.avoidance {
            AvoidanceChoice::Disabled => {
                let report = Simulator::new(&topology).run(spec.inputs);
                (Expect::Settles(Reference::of(report, None, false)), None)
            }
            AvoidanceChoice::Planned(algorithm) => {
                // Under the budget the service plans with: what exceeds it
                // is rejected as unplannable there, and is expected to be.
                let service = ServiceConfig::default();
                let certified = Planner::new(&spec.graph)
                    .algorithm(algorithm)
                    .rounding(service.rounding)
                    .cycle_bound(service.cycle_bound)
                    .certify(&periods);
                match certified {
                    Ok(certified) => {
                        let report = Simulator::new(&topology)
                            .with_shared_plan(Arc::clone(&certified.plan))
                            .run(spec.inputs);
                        let reference =
                            Reference::of(report, Some(certified.used), certified.fell_back);
                        (Expect::Settles(reference), Some(certified.plan))
                    }
                    Err(_) => (Expect::RejectedUnplannable, None),
                }
            }
        };
        Job {
            label,
            spec,
            expect,
            plan,
        }
    }

    /// The same job with another input count and a fresh reference.
    fn rescaled(&self, inputs: u64) -> Job {
        let mut spec = self.spec.clone();
        spec.inputs = inputs;
        Job::with_simulated_reference(self.label.clone(), spec)
    }
}

/// One generated workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Pool workers of the service the workload runs on.
    pub workers: usize,
    /// Jobs in flight: the driver tops the window up and waits oldest-first
    /// (a closed loop with one driver).
    pub window: usize,
    /// Rounds run and checked but not measured.
    pub warmups: usize,
    /// One round's jobs each.  `repeat` workloads have one batch and run it
    /// every round; the others consume each batch once and stop when they
    /// run out.
    pub batches: Vec<Vec<Job>>,
    pub repeat: bool,
    /// Whether the run's rates and costs are reported with the host's
    /// memory latency divided out (`host.rs`): true where the workload
    /// follows that latency, which was measured, not assumed.
    pub host_normalised: bool,
    /// The plan cache must hold every shape a run admits.
    pub plan_cache_capacity: usize,
    /// Jobs of batch 0 the layer probes replay, and by how much their input
    /// counts are divided, so a traced run fits the run length.
    probe_take: usize,
    probe_inputs_div: u64,
    pub digest: u64,
}

impl Workload {
    /// One round's jobs after another: the one batch for ever for a
    /// workload that repeats, each fresh batch once for one that does not.
    pub fn rounds(&self) -> impl Iterator<Item = &[Job]> {
        let rounds = if self.repeat {
            usize::MAX
        } else {
            self.batches.len()
        };
        self.batches.iter().cycle().take(rounds).map(Vec::as_slice)
    }

    /// The scaled-down job list the layer probes replay, with references.
    pub fn probe_jobs(&self) -> Vec<Job> {
        self.batches[0]
            .iter()
            .take(self.probe_take)
            .map(|job| job.rescaled((job.spec.inputs / self.probe_inputs_div).max(1)))
            .collect()
    }
}

/// Filters with `period` at every fork (node with two or more outputs);
/// everything else broadcasts.
fn fork_periods(g: &Graph, period: u64) -> Vec<u64> {
    g.node_ids()
        .map(|n| if g.out_degree(n) >= 2 { period } else { 1 })
        .collect()
}

/// Filters with `period` at the unique source only.
fn source_periods(g: &Graph, period: u64) -> Vec<u64> {
    let source = g
        .single_source()
        .expect("generated shapes are two-terminal");
    g.node_ids()
        .map(|n| if n == source { period } else { 1 })
        .collect()
}

fn planned(graph: Graph, periods: Vec<u64>, inputs: u64, algorithm: Algorithm) -> JobSpec {
    JobSpec::from_periods(graph, periods, inputs, Some(algorithm))
}

/// Generates workload `name` from `seed`; `smoke` shrinks every size to
/// about a fiftieth while keeping every code path and check.
pub fn generate(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
    let rng = SplitMix64::new(seed);
    let mut workload = match name {
        "pipe_hop" => pipe_hop(rng.fork(1), smoke),
        "sp_tight" => sp_tight(rng.fork(2), smoke),
        "storm_warm" => storm_warm(rng.fork(3), smoke),
        "admit_cold" => admit_cold(rng.fork(4), smoke),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                NAMES.join(", ")
            ))
        }
    };
    let mut digest = Digest::default();
    for job in workload.batches.iter().flatten() {
        digest.job(&job.label, &job.spec);
    }
    workload.digest = digest.value();
    Ok(workload)
}

/// Hop-bound: one unfiltered 16 384-node pipeline with ids declared against
/// the flow, deep (256-message) buffers, one worker.  Rings, containers,
/// wrapper acceptance and the run loops do nearly all the work; planner and
/// scheduler almost none.
fn pipe_hop(mut rng: SplitMix64, smoke: bool) -> Workload {
    let (nodes, base_inputs) = if smoke { (2048, 512) } else { (16384, 4096) };
    // The seed moves only the input count (by under 2 %): every metric of
    // this workload is per message or per job, and the reference is a
    // closed form at any count.
    let inputs = base_inputs + rng.range(0, base_inputs / 64);
    let graph = pipeline_graph(nodes, 256, true);
    let edges = graph.edge_count();
    let job = Job {
        label: "pipeline-0".to_string(),
        spec: JobSpec::new(graph, FilterSpec::Broadcast, inputs).unplanned(),
        // No filtering: every edge carries every input as data, no dummies.
        expect: Expect::Settles(Reference {
            completed: true,
            deadlocked: false,
            per_edge_data: vec![inputs; edges],
            per_edge_dummies: vec![0; edges],
            sink_firings: inputs,
            algorithm: None,
            fell_back: false,
        }),
        plan: None,
    };
    Workload {
        name: "pipe_hop",
        workers: 1,
        window: 1,
        // A fresh service is up to 2x slower on its first repetitions
        // (cold allocator and thread-local segment pools).
        warmups: 2,
        batches: vec![vec![job]],
        repeat: true,
        host_normalised: false,
        plan_cache_capacity: 16,
        probe_take: 1,
        probe_inputs_div: 8,
        digest: 0,
    }
}

/// Wake-bound: random 128-edge SP DAGs with tiny (2..=8) buffers and a
/// period-4 filter at every fork, Non-Propagation-planned, two workers, one
/// job at a time.  The same hop layers as `pipe_hop` used the opposite way:
/// three dummies per data message and a wake every few messages, so
/// scheduler queues, wake/park and stealing dominate.  Thirty-two graphs a
/// round, because one random graph's size and per-message cost differ from
/// the next one's by a quarter and two seeds must give comparable rounds.
fn sp_tight(mut rng: SplitMix64, smoke: bool) -> Workload {
    let (graphs, edges, inputs) = if smoke { (4, 64, 300) } else { (32, 128, 2500) };
    let jobs = (0..graphs)
        .map(|i| {
            let (graph, _) = random_sp_dag(&GeneratorConfig {
                target_edges: edges,
                max_fanout: 4,
                capacity_range: (2, 8),
                seed: rng.next_u64(),
            });
            let periods = fork_periods(&graph, 4);
            Job::with_simulated_reference(
                format!("spdag-{i}"),
                planned(graph, periods, inputs, Algorithm::NonPropagation),
            )
        })
        .collect();
    Workload {
        name: "sp_tight",
        // Two workers whatever the host has: the workload exists to show
        // what the second worker costs or buys.  The driver sleeps in
        // `wait` while a job runs, so it does not compete with them.
        workers: 2,
        window: 1,
        warmups: 1,
        batches: vec![jobs],
        repeat: true,
        host_normalised: false,
        plan_cache_capacity: 64,
        probe_take: 8,
        probe_inputs_div: 1,
        digest: 0,
    }
}

/// Shape templates per kind in the storm: production traffic is a handful
/// of client templates submitted over and over.  Template `t` of a kind
/// takes the `t`-th of twelve evenly spaced sizes ([`spaced`]) and cycles
/// through the filter periods rather than drawing either, so every seed's
/// mix has the same spread of job sizes and filter rates and two seeds give
/// comparable rounds; structure, capacities and input counts are drawn
/// from the seed.
const STORM_TEMPLATES: usize = 12;

/// The `t`-th of [`STORM_TEMPLATES`] evenly spaced values in `lo..=hi`.
fn spaced(lo: u64, hi: u64, t: usize) -> u64 {
    lo + (hi - lo) * t as u64 / (STORM_TEMPLATES as u64 - 1)
}

/// The service as tenants see it: 1 200 small jobs a round through a
/// 32-job window, in the 12-slot ratio of `fila storm` (4 pipelines, 4 SP
/// DAGs, 1 ladder, 1 interior-filtered fallback, 1 unplannable reject, 1
/// bare deadlocker).  After the warm-up round every plan and verdict is
/// cached, so fingerprinting, cache probes, task and ring construction and
/// per-job quiescence dominate; planning and hop cost are minor.
fn storm_warm(mut rng: SplitMix64, smoke: bool) -> Workload {
    let count = if smoke { 48 } else { 1200 };
    type Template = (Graph, Vec<u64>);
    let templates = |salt: u64, make: &dyn Fn(&mut SplitMix64, usize) -> Template| {
        (0..STORM_TEMPLATES)
            .map(|t| make(&mut rng.fork(salt * 64 + t as u64), t))
            .collect::<Vec<Template>>()
    };
    let pipelines = templates(1, &|r, t| {
        let graph = pipeline_graph(spaced(3, 12, t) as usize, r.range(2, 6), false);
        // Interior filtering is safe on a pipeline (no undirected cycle).
        let period = 1 + t as u64 % 4;
        let periods = vec![period; graph.node_count()];
        (graph, periods)
    });
    let spdags = templates(2, &|r, t| {
        let (graph, _) = random_sp_dag(&GeneratorConfig {
            target_edges: spaced(8, 20, t) as usize,
            max_fanout: 3,
            capacity_range: (2, 6),
            seed: r.next_u64(),
        });
        let periods = source_periods(&graph, 2 + t as u64 % 5);
        (graph, periods)
    });
    let ladders = templates(3, &|r, t| {
        let graph = random_ladder(&LadderConfig {
            rungs: spaced(2, 6, t) as usize,
            capacity_range: (2, 6),
            reverse_probability: 0.3,
            seed: r.next_u64(),
        });
        let periods = source_periods(&graph, 2 + t as u64 % 5);
        (graph, periods)
    });
    let interiors = templates(4, &|r, _| interior_filtered_fallback(r.next_u64()));
    let unplannables = templates(5, &|_, t| {
        let graph = dense_unplannable(8 + t % 3);
        let periods = source_periods(&graph, 2);
        (graph, periods)
    });
    let deadlockers = templates(6, &|r, _| underprovisioned_sp(r.next_u64(), r.range(2, 4)));

    let jobs = (0..count)
        .map(|i| {
            // Drawn for every job so the stream is not template-periodic.
            let inputs = rng.range(64, 256);
            let template = (i / 12) % STORM_TEMPLATES;
            let (kind, (graph, periods), inputs, avoidance) = match i % 12 {
                5 => (
                    "unplannable",
                    &unplannables[template],
                    64,
                    Some(Algorithm::NonPropagation),
                ),
                8 => (
                    "interior",
                    &interiors[template],
                    inputs,
                    Some(Algorithm::Propagation),
                ),
                11 => ("deadlocker", &deadlockers[template], 256, None),
                2 => (
                    "ladder",
                    &ladders[template],
                    inputs,
                    Some(Algorithm::NonPropagation),
                ),
                slot if slot % 3 == 0 => ("pipeline", &pipelines[template], inputs, None),
                _ => (
                    "spdag",
                    &spdags[template],
                    inputs,
                    Some(Algorithm::NonPropagation),
                ),
            };
            Job::with_simulated_reference(
                format!("{kind}-{i}"),
                JobSpec::from_periods(graph.clone(), periods.clone(), inputs, avoidance),
            )
        })
        .collect();
    Workload {
        name: "storm_warm",
        // The driver submits continuously here, so it gets a hardware
        // thread of its own.
        workers: nproc().saturating_sub(1).clamp(1, 3),
        window: 32,
        warmups: 1,
        batches: vec![jobs],
        repeat: true,
        host_normalised: true,
        plan_cache_capacity: 1024,
        probe_take: if smoke { 48 } else { 240 },
        probe_inputs_div: 1,
        digest: 0,
    }
}

/// Edges of the eight shapes in one `admit_cold` batch, SP DAG and ladder
/// alternating.  Every batch has the same size ladder, so batches are
/// comparable although no shape repeats.  Certification is superlinear
/// (a 512-edge SP DAG costs ~0.2 s to admit cold, a 256-edge ladder about
/// the same), so the two largest shapes are most of a batch.
const COLD_EDGES: [usize; 8] = [64, 64, 128, 128, 256, 192, 512, 256];

/// Batches generated for one `admit_cold` run; at the seed commit about 40
/// are consumed in 20 s.
const COLD_BATCHES: usize = 128;

/// The cache-miss side of admission: never-repeated SP DAGs and ladders,
/// 16 inputs each, Non-Propagation requested, one worker.  Fingerprinting,
/// SP recognition, interval planning and above all bounded-model-check
/// certification dominate; execution is negligible.
fn admit_cold(mut rng: SplitMix64, smoke: bool) -> Workload {
    let (batches, shrink) = if smoke { (3, 4) } else { (COLD_BATCHES, 1) };
    let batches: Vec<Vec<Job>> = (0..batches)
        .map(|b| {
            COLD_EDGES
                .iter()
                .enumerate()
                .map(|(i, &edges)| {
                    let edges = edges / shrink;
                    let (kind, graph, periods) = if i % 2 == 0 {
                        let (graph, _) = random_sp_dag(&GeneratorConfig {
                            target_edges: edges,
                            max_fanout: 4,
                            capacity_range: (2, 8),
                            seed: rng.next_u64(),
                        });
                        let periods = fork_periods(&graph, 3);
                        ("spdag", graph, periods)
                    } else {
                        let graph = random_ladder(&LadderConfig {
                            rungs: edges / 3,
                            capacity_range: (2, 8),
                            reverse_probability: 0.3,
                            seed: rng.next_u64(),
                        });
                        let periods = source_periods(&graph, 3);
                        ("ladder", graph, periods)
                    };
                    Job {
                        label: format!("{kind}-{b}-{i}"),
                        spec: planned(graph, periods, 16, Algorithm::NonPropagation),
                        expect: Expect::CheckedAfter,
                        plan: None,
                    }
                })
                .collect()
        })
        .collect();
    Workload {
        name: "admit_cold",
        workers: 1,
        window: 1,
        warmups: 0,
        plan_cache_capacity: 2 * batches.len() * COLD_EDGES.len(),
        batches,
        repeat: false,
        host_normalised: true,
        probe_take: COLD_EDGES.len(),
        probe_inputs_div: 1,
        digest: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        for name in NAMES {
            let a = generate(name, 7, true).unwrap();
            let b = generate(name, 7, true).unwrap();
            let c = generate(name, 8, true).unwrap();
            assert_eq!(a.digest, b.digest, "{name}");
            assert_ne!(a.digest, c.digest, "{name}");
            assert!(!a.batches.is_empty() && !a.batches[0].is_empty(), "{name}");
            assert!(a.repeat || a.batches.len() > 1, "{name}");
        }
        assert!(generate("nope", 7, true).is_err());
    }

    #[test]
    fn storm_keeps_the_twelve_slot_ratio_and_its_expected_outcomes() {
        let storm = generate("storm_warm", 3, true).unwrap();
        let jobs = &storm.batches[0];
        let count = |prefix: &str| jobs.iter().filter(|j| j.label.starts_with(prefix)).count();
        let dozen = jobs.len() / 12;
        assert_eq!(count("pipeline"), 4 * dozen);
        assert_eq!(count("spdag"), 4 * dozen);
        for kind in ["ladder", "interior", "unplannable", "deadlocker"] {
            assert_eq!(count(kind), dozen, "{kind}");
        }
        for job in jobs {
            match &job.expect {
                Expect::RejectedUnplannable => assert!(job.label.starts_with("unplannable")),
                Expect::Settles(r) if r.deadlocked => assert!(job.label.starts_with("deadlocker")),
                Expect::Settles(r) => {
                    assert!(r.completed, "{}", job.label);
                    assert_eq!(
                        r.fell_back,
                        job.label.starts_with("interior"),
                        "{}",
                        job.label
                    );
                }
                Expect::CheckedAfter => panic!("storm references are computed in set-up"),
            }
        }
    }

    #[test]
    fn pipe_hop_reference_is_the_closed_form_the_simulator_agrees_with() {
        let w = generate("pipe_hop", 5, true).unwrap();
        let job = &w.batches[0][0];
        let simulated = Job::with_simulated_reference(job.label.clone(), job.spec.clone());
        match (&job.expect, &simulated.expect) {
            (Expect::Settles(closed), Expect::Settles(sim)) => assert_eq!(closed, sim),
            other => panic!("{other:?}"),
        }
        let probe = w.probe_jobs();
        assert_eq!(probe.len(), 1);
        assert_eq!(probe[0].spec.inputs, job.spec.inputs / 8);
    }
}
