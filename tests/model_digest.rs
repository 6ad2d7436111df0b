//! The model witness: FNV-1a values over everything the scalar model
//! (`fila_avoidance::model::Engine`) and its driver, the `Simulator`, decide
//! for a fixed corpus.  Two of them:
//!
//! * [`EXPECTED_OUTCOMES`] folds what a run *is* — every outcome, count,
//!   snapshot and resume — and no record of how the fast-forward got
//!   there.  A rewrite of the model, or a fast-forward that skips more,
//!   must leave it untouched.  It was recorded at commit 8a8cb01, the
//!   parent of E43 (infinite-interval gap counters carried through a skip),
//!   before any engine edit; E42's single constant, recorded at afc86cd,
//!   folded the same outcomes.
//! * [`EXPECTED_SKIPS`] folds each observed run's `Skip` record (or its
//!   absence): it moves whenever the fast-forward finds a different
//!   recurrence, and is re-recorded then.  The runs that skip may not fall
//!   below [`SKIPPING_RUNS_AT_E42`], what E42's fast-forward reached.
//!
//! The corpus is `plan_digest`'s generators (random SP DAGs, CS4 ladders,
//! layered DAGs) plus Figs. 2–5.  Each graph runs under {disabled,
//! Propagation plan, Non-Propagation plan} × {its declared periodic
//! profile, each of the five certification adversaries}, in full and at two
//! step bounds.  What is folded:
//!
//! * the model, unobserved and under `SteadyState` (certification's
//!   fast-forward): halt, `steps`, per-edge data and dummies, sink and
//!   per-node firings (the skip goes to the second digest);
//! * the `Simulator`: the report with its blocked list, the
//!   `run_with_checkpoint` snapshot bytes at two kill points, and the report
//!   resumed from each snapshot.

use fila::avoidance::model::{periodic_emits, AvoidanceMode, Engine, Halt, Payload, SteadyState};
use fila::avoidance::verify::{certification_inputs, AdversaryPattern, ADVERSARIES};
use fila::avoidance::{Algorithm, Planner};
use fila::graph::{Graph, NodeId};
use fila::runtime::filters::Predicate;
use fila::runtime::{BlockedReason, CheckpointOutcome, ExecutionReport, Simulator, Topology};
use fila::workloads::figures::{
    butterfly_rewritten, fig2_triangle, fig3_cycle, fig4_butterfly, fig4_crosslink, fig5_ladder,
};
use fila::workloads::generators::{
    layered_dag, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};

const EXPECTED_OUTCOMES: u64 = 0x6cd2_ccb3_2cbf_31cc;

const EXPECTED_SKIPS: u64 = 0x3e91_d5a6_7575_eccc;

/// Runs of the corpus the fast-forward skipped in at E42.
const SKIPPING_RUNS_AT_E42: u64 = 1_898;

/// Small enough that no plan of the corpus enumerates cycles for long.
const CYCLE_BOUND: usize = 2048;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn all(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        vs.iter().for_each(|&v| self.u64(v));
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        bytes.iter().for_each(|&b| self.u64(u64::from(b)));
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn engine(&mut self, halt: Halt, engine: &Engine<'_>) {
        self.u64(match halt {
            Halt::Completed => 1,
            Halt::Deadlocked => 2,
            Halt::StepBound => 3,
        });
        self.u64(engine.steps);
        self.all(&engine.per_edge_data);
        self.all(&engine.per_edge_dummies);
        self.u64(engine.sink_firings);
        for node in &engine.nodes {
            self.u64(node.firings);
            self.u64(node.next_source_seq);
        }
    }

    fn report(&mut self, r: &ExecutionReport) {
        self.u64(u64::from(r.completed));
        self.u64(u64::from(r.deadlocked));
        self.u64(r.inputs_offered);
        self.u64(r.data_messages);
        self.u64(r.dummy_messages);
        self.all(&r.per_edge_data);
        self.all(&r.per_edge_dummies);
        self.u64(r.sink_firings);
        self.all(&r.per_node_firings);
        self.u64(r.steps);
        self.u64(r.blocked.len() as u64);
        for b in &r.blocked {
            self.u64(b.node.index() as u64);
            self.u64(match b.reason {
                BlockedReason::WaitingForInput(e) => 2 * e.index() as u64,
                BlockedReason::WaitingForSpace(e) => 2 * e.index() as u64 + 1,
            });
        }
        self.u64(r.resumed_from.map_or(u64::MAX, |s| s));
    }
}

/// The corpus, each graph with its declared per-node filter periods (every
/// node filters, or the source only, or none — by index).
fn corpus() -> Vec<(Graph, Vec<u64>)> {
    let mut graphs = Vec::new();
    for seed in 0..60u64 {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 1 + (seed as usize * 7) % 40,
            max_fanout: 2 + (seed as usize) % 3,
            capacity_range: (1, 2 + seed % 7),
            seed,
        });
        graphs.push(g);
    }
    for seed in 0..40u64 {
        graphs.push(random_ladder(&LadderConfig {
            rungs: 1 + (seed as usize) % 8,
            capacity_range: (1 + seed % 2, 3 + seed % 6),
            reverse_probability: 0.3,
            seed,
        }));
    }
    for seed in 0..24u64 {
        graphs.push(layered_dag(
            2 + (seed as usize) % 3,
            2 + (seed as usize / 3) % 2,
            1 + seed % 4,
            seed,
        ));
    }
    graphs.extend([
        fig2_triangle(2),
        fig3_cycle(),
        fig4_crosslink(2),
        fig4_butterfly(2),
        butterfly_rewritten(2),
        fig5_ladder(3),
    ]);
    graphs
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            let period = 2 + (i as u64 / 3) % 4;
            let source = g.single_source().ok();
            let periods = g
                .node_ids()
                .map(|n| match i % 3 {
                    0 => period,
                    1 if Some(n) == source => period,
                    _ => 1,
                })
                .collect();
            (g, periods)
        })
        .collect()
}

/// Whether `node` emits on output `j` of `outs` at `seq`: the declared
/// profile, or `adversary` wherever the profile lets a node filter — the
/// rule certification's rows run.
fn emits(
    periods: &[u64],
    adversary: Option<AdversaryPattern>,
    n: NodeId,
    seq: u64,
    j: usize,
    outs: usize,
) -> bool {
    match adversary {
        Some(pattern) if periods[n.index()] > 1 => pattern(n.index(), j, outs),
        _ => periodic_emits(periods[n.index()], seq, j),
    }
}

/// Folds one model run bounded by `bound` steps, unobserved and under the
/// fast-forward, into `digest` and the fast-forward's skip into `skips`;
/// returns the unobserved run's `steps` and whether the fast-forward
/// skipped.
fn fold_model(
    (digest, skips): (&mut Fnv, &mut Fnv),
    (g, periods, mode, inputs): (&Graph, &[u64], &AvoidanceMode, u64),
    adversary: Option<AdversaryPattern>,
    bound: u64,
) -> (u64, bool) {
    let mut fire = |n: NodeId, seq: u64, _: &[Option<Payload>], emit: &mut [Option<Payload>]| {
        let outs = emit.len();
        for (j, slot) in emit.iter_mut().enumerate() {
            *slot = emits(periods, adversary, n, seq, j, outs).then_some(0);
        }
    };
    let mut plain = Engine::new(g, mode, inputs);
    let halt = plain.run_worklist(&mut fire, bound, false);
    digest.engine(halt, &plain);

    let rule: &[u64] = if adversary.is_some() { &[] } else { periods };
    let mut steady = SteadyState::new(g, rule, inputs);
    let mut observed = Engine::new(g, mode, inputs);
    let halt = observed.run_worklist_observed(&mut fire, bound, false, |engine, node| {
        steady.observe(engine, node, bound)
    });
    digest.engine(halt, &observed);
    match steady.skip() {
        Some(skip) => skips.all(&[skip.at, skip.shift, skip.skipped]),
        None => skips.u64(u64::MAX),
    }
    (plain.steps, steady.skip().is_some())
}

/// Folds the `Simulator`'s run of the same rule, its snapshots at
/// `kill_at` and the runs resumed from them; returns whether a snapshot
/// had a node with two staged messages.
fn fold_simulator(
    digest: &mut Fnv,
    (g, periods, mode, inputs): (&Graph, &[u64], &AvoidanceMode, u64),
    adversary: Option<AdversaryPattern>,
    kill_at: [u64; 2],
) -> bool {
    let mut topology = Topology::from_graph(g);
    for n in g.node_ids().filter(|n| periods[n.index()] > 1) {
        let (periods, outs) = (periods.to_vec(), g.out_degree(n));
        topology = topology.with(n, move || {
            let periods = periods.clone();
            Predicate::new(move |seq, j| {
                emits(&periods, adversary, n, seq, j, outs)
            })
        });
    }
    let sim = Simulator::new(&topology).avoidance(mode.clone());
    digest.report(&sim.run(inputs));
    let mut staged_two = false;
    for kill in kill_at {
        match sim.run_with_checkpoint(inputs, kill) {
            CheckpointOutcome::Finished(report) => digest.report(&report),
            CheckpointOutcome::Killed(snapshot) => {
                staged_two |= snapshot.nodes.iter().any(|n| n.staged.len() >= 2);
                digest.bytes(&snapshot.to_bytes());
                digest.report(&sim.resume(&snapshot).expect("own snapshot resumes"));
            }
        }
    }
    staged_two
}

#[test]
fn model_and_simulator_digest_is_unchanged() {
    let (mut digest, mut skip_records) = (Fnv::new(), Fnv::new());
    // Runs, runs the fast-forward skipped, snapshots staging two messages
    // at one node: the corpus reaches what the model's state holds.
    let (mut runs, mut skips, mut staged_two) = (0u64, 0u64, 0u64);
    for (g, periods) in corpus() {
        let inputs = certification_inputs(&g).clamp(16, 96);
        let mut modes = vec![AvoidanceMode::Disabled];
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            match Planner::new(&g)
                .algorithm(algorithm)
                .cycle_bound(CYCLE_BOUND)
                .plan()
            {
                Ok(plan) => modes.push(AvoidanceMode::plan(plan)),
                Err(e) => digest.str(&e.to_string()),
            }
        }
        let profiles = std::iter::once(None).chain(ADVERSARIES.iter().map(|&(_, p)| Some(p)));
        for mode in &modes {
            for adversary in profiles.clone() {
                let run = (&g, &periods[..], mode, inputs);
                let folds = (&mut digest, &mut skip_records);
                let (steps, skipped) = fold_model(folds, run, adversary, u64::MAX);
                let bounds = [steps / 3 + 1, 2 * steps / 3 + 1];
                for bound in bounds {
                    fold_model((&mut digest, &mut skip_records), run, adversary, bound);
                }
                runs += 1;
                skips += u64::from(skipped);
                staged_two += u64::from(fold_simulator(&mut digest, run, adversary, bounds));
            }
        }
    }
    assert!(runs >= 2000 && staged_two >= 100, "{runs} {staged_two}");
    assert!(
        skips >= SKIPPING_RUNS_AT_E42,
        "{skips} of {runs} runs skipped"
    );
    assert_eq!(
        digest.0, EXPECTED_OUTCOMES,
        "outcome digest is {:#018x}",
        digest.0
    );
    assert_eq!(
        skip_records.0, EXPECTED_SKIPS,
        "skip digest is {:#018x}",
        skip_records.0
    );
}
