//! Property-based coverage for the filtering-aware certification subsystem
//! (E17): the certification verdict is trustworthy because (a) the scalar
//! model it runs reaches the verdict the independent pooled engine reaches,
//! (b) plans it accepts really survive worst-case interior filtering under
//! real node behaviours **in the Simulator**, and (c) its fallback plans are
//! exactly what fresh planning with the fallback protocol would produce — no
//! private planner behaviour hides behind `certify()`.

use fila::avoidance::model::{
    periodic_emits, AvoidanceMode, Engine, Halt, Payload, Skip, SteadyState,
};
use fila::avoidance::verify::{
    certification_inputs, certification_rows, AdversaryPattern, ADVERSARIES,
};
use fila::avoidance::{
    certify_plan, certify_plan_bounded, Algorithm, AvoidancePlan, Certification, CertifiedCached,
    CertifyError, IntervalMap, ModelOutcome, Rounding,
};
use fila::prelude::*;
use fila::runtime::filters::Predicate;
use fila::workloads::generators::{random_ladder, random_sp_dag, GeneratorConfig, LadderConfig};
use proptest::prelude::*;

const INPUTS: u64 = 384;
const STEP_BUDGET: u64 = 50_000_000;

/// The adversarial emission patterns of `fila_avoidance::verify`, expressed
/// as real runtime behaviours: every node the profile lets filter
/// (period > 1) follows the pattern, everything else keeps the declared
/// periodic filter.  Used to re-run certification's claims on the real
/// engine.
fn adversarial_topology(
    g: &Graph,
    periods: &[u64],
    pattern: AdversaryPattern,
) -> Topology {
    let mut topo = Topology::from_graph(g);
    for n in g.node_ids() {
        let outs = g.out_degree(n);
        if outs == 0 {
            continue;
        }
        let period = periods[n.index()].max(1);
        let idx = n.index();
        if period > 1 {
            topo = topo.with(n, move || {
                Predicate::new(move |_seq, out| pattern(idx, out, outs))
            });
        } else {
            topo = topo.with(n, move || {
                Predicate::new(move |seq, out| periodic_emits(period, seq, out))
            });
        }
    }
    topo
}

/// The certifier's own adversary table: iterating the exported constant —
/// not a copy — means a pattern added to `fila_avoidance::verify` is
/// automatically re-run against the real engine here.
use ADVERSARIES as PATTERNS;

fn graph_for(case: u8, seed: u64) -> Graph {
    if case % 2 == 0 {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 16 + (seed % 12) as usize,
            max_fanout: 3,
            capacity_range: (1, 6),
            seed,
        });
        g
    } else {
        random_ladder(&LadderConfig {
            rungs: 3 + (seed % 10) as usize,
            capacity_range: (1, 6),
            reverse_probability: 0.3,
            seed,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (b) Acceptance is meaningful: a `certify()`-accepted plan completes
    /// in the **real** Simulator under the declared profile and under every
    /// adversarial worst-case pattern the certificate covers.
    ///
    /// (The vendored proptest shim takes a single strategy argument, so
    /// each case draws one seed and derives graph class / shape seed /
    /// filter period from it.)
    #[test]
    fn certified_plans_survive_worst_case_interior_filtering_in_the_simulator(
        draw in 0u64..1_000_000
    ) {
        let case = (draw % 2) as u8;
        let seed = draw / 2 % 1_000;
        let period = 2 + draw / 7 % 22;
        let g = graph_for(case, seed);
        let periods: Vec<u64> = g.node_ids().map(|_| period).collect();
        let certified = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .certify(&periods)
            .expect("robust Non-Propagation plans certify SP/ladder shapes");
        let declared = Simulator::new(&Periodic::from_fn(&g, |_| period))
            .with_plan(&certified.plan)
            .run(INPUTS);
        prop_assert!(declared.completed, "declared run: {declared:?}");
        for (name, pattern) in PATTERNS {
            let topo = adversarial_topology(&g, &periods, pattern);
            let report = Simulator::new(&topo).with_plan(&certified.plan).run(INPUTS);
            prop_assert!(
                report.completed,
                "adversary `{name}` defeated a certified plan (case {case} seed {seed} \
                 period {period}): {report:?}"
            );
        }
    }

    /// (a) The certifier's model check and the pooled engine — the one
    /// other implementation of the firing rule (certification and the
    /// Simulator share the scalar model, so comparing those two would
    /// compare a function with itself) — agree on declared periodic
    /// profiles, on both sides of the verdict.  Protected runs complete in
    /// both; unprotected runs reach the same completion/deadlock verdict in
    /// both.
    #[test]
    fn model_checker_agrees_with_the_pooled_engine(draw in 0u64..1_000_000) {
        let case = (draw % 2) as u8;
        let seed = draw / 2 % 1_000;
        let period = 1 + draw / 7 % 23;
        let g = graph_for(case, seed);
        let periods: Vec<u64> = g
            .node_ids()
            .map(|n| 1 + (seed ^ n.index() as u64) % period.max(1))
            .collect();
        let topo = Periodic::from_fn(&g, |n| periods[n.index()]);
        for plan in [
            Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap(),
            Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap(),
            // All-infinite intervals model "avoidance disabled".
            AvoidancePlan::new(&g, Algorithm::NonPropagation, IntervalMap::for_graph(&g)),
        ] {
            let cert = certify_plan_bounded(&g, &plan, &periods, INPUTS, STEP_BUDGET).unwrap();
            let report = SharedPool::new(2)
                .submit_with(&topo, AvoidanceMode::plan(plan), INPUTS)
                .wait();
            prop_assert!(
                cert.declared.completed == report.completed
                    && cert.declared.deadlocked == report.deadlocked,
                "model vs engine diverged (case {case} seed {seed} periods {periods:?}): \
                 model {:?} vs {report:?}",
                cert.declared
            );
        }
    }

    /// (c) Fallback plans are ordinary plans: whatever candidate the chain
    /// accepted is byte-identical to freshly planning that candidate's
    /// algorithm (structural or forced-exhaustive) directly.  In
    /// particular, a Propagation-requested job that fell back agrees with a
    /// freshly planned (Non-)Propagation plan — nothing bespoke ships from
    /// the certifier.
    #[test]
    fn fallback_plans_agree_with_fresh_plans(draw in 0u64..1_000_000) {
        let case = (draw % 2) as u8;
        let seed = draw / 2 % 1_000;
        let period = 2 + draw / 7 % 6;
        let g = graph_for(case, seed);
        // Interior filtering with a broadcasting source: the pattern that
        // makes literal-trigger Propagation plans fail certification.
        let source = g.single_source().unwrap();
        let periods: Vec<u64> = g
            .node_ids()
            .map(|n| if n == source { 1 } else { period })
            .collect();
        let certified = Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .certify(&periods)
            .expect("the chain must certify some candidate for SP/ladder shapes");
        let fresh = Planner::new(&g)
            .algorithm(certified.used)
            .force_exhaustive(certified.exhaustive)
            .plan()
            .unwrap();
        prop_assert_eq!(certified.plan.intervals(), fresh.intervals());
        prop_assert_eq!(certified.plan.algorithm(), fresh.algorithm());
        if certified.fell_back {
            prop_assert!(!certified.attempts[0].certified);
        } else {
            prop_assert_eq!(certified.used, Algorithm::Propagation);
        }
    }
}

/// The certification input budget scales with the deepest buffered path
/// (the fill horizon that governs when a deadlock can manifest) and is
/// what makes the bounded check meaningful on the sizes this suite
/// generates: pin its envelope so a future refactor cannot quietly zero
/// it out, and pin that budgets beyond the ceiling refuse to certify
/// rather than silently under-check.
#[test]
fn certification_budget_envelope() {
    use fila::avoidance::verify::MAX_CERTIFICATION_INPUTS;
    let small = {
        let mut b = GraphBuilder::new();
        b.chain(&["a", "b", "c"]).unwrap();
        b.build().unwrap()
    };
    assert!(certification_inputs(&small) >= 256);
    let big = random_ladder(&LadderConfig {
        rungs: 64,
        capacity_range: (2, 8),
        reverse_probability: 0.3,
        seed: 0,
    });
    let inputs = certification_inputs(&big);
    assert!(inputs >= 1024, "{inputs}");
    assert!(inputs <= MAX_CERTIFICATION_INPUTS, "{inputs}");
    // Beyond the ceiling: explicit truncation, never a certificate.
    let mut b = GraphBuilder::new().default_capacity(50_000);
    b.edge("s", "a").unwrap();
    b.edge("s", "b").unwrap();
    b.edge("a", "t").unwrap();
    b.edge("b", "t").unwrap();
    let huge = b.build().unwrap();
    assert!(certification_inputs(&huge) > MAX_CERTIFICATION_INPUTS);
    let plan = Planner::new(&huge)
        .algorithm(fila::avoidance::Algorithm::NonPropagation)
        .plan()
        .unwrap();
    let cert = certify_plan(&huge, &plan, &[4, 4, 4, 1]).unwrap();
    assert!(cert.truncated && !cert.certified, "{}", cert.summary());
}

// ---------------------------------------------------------------------------
// E25: the steady-state fast-forward is invisible.  The oracle is the full
// replay — `Engine::new` + the unobserved `run_worklist` — under the same
// emission rule; the subject is the same run observed by `SteadyState`, which
// is exactly what `verify::model_check` drives.
// ---------------------------------------------------------------------------

/// Everything one model run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    halt: Halt,
    steps: u64,
    per_edge_data: Vec<u64>,
    per_edge_dummies: Vec<u64>,
    sink_firings: u64,
    per_node_firings: Vec<u64>,
}

impl Run {
    fn outcome(&self) -> ModelOutcome {
        ModelOutcome {
            completed: self.halt == Halt::Completed,
            deadlocked: self.halt == Halt::Deadlocked,
            steps: self.steps,
        }
    }
}

/// One certification run — declared (`adversary: None`) or adversarial —
/// replayed in full (`observed: false`) or under the fast-forward.
fn drive(
    g: &Graph,
    plan: &AvoidancePlan,
    periods: &[u64],
    adversary: Option<AdversaryPattern>,
    budget: (u64, u64),
    observed: bool,
) -> (Run, Option<Skip>) {
    let (run, _, skip) = drive_to_gaps(g, plan, periods, adversary, budget, observed);
    (run, skip)
}

/// [`drive`], with the final gap counters, node by node.
fn drive_to_gaps(
    g: &Graph,
    plan: &AvoidancePlan,
    periods: &[u64],
    adversary: Option<AdversaryPattern>,
    (inputs, max_steps): (u64, u64),
    observed: bool,
) -> (Run, Vec<u64>, Option<Skip>) {
    let mode = AvoidanceMode::plan(plan.clone());
    let mut engine = Engine::new(g, &mode, inputs);
    let mut fire = |n: NodeId, seq: u64, _: &[Option<Payload>], emit: &mut [Option<Payload>]| {
        let outs = emit.len();
        for (j, slot) in emit.iter_mut().enumerate() {
            let emits = match adversary {
                Some(pattern) if periods[n.index()] > 1 => pattern(n.index(), j, outs),
                _ => periodic_emits(periods[n.index()], seq, j),
            };
            *slot = emits.then_some(0);
        }
    };
    // The rule's periods: the declared ones, or none (an adversary
    // ignores `seq`; the nodes it leaves alone have period 1).
    let rule: &[u64] = if adversary.is_some() { &[] } else { periods };
    let mut steady = SteadyState::new(g, rule, inputs);
    let halt = if observed {
        engine.run_worklist_observed(&mut fire, max_steps, false, |engine, node| {
            steady.observe(engine, node, max_steps)
        })
    } else {
        engine.run_worklist(&mut fire, max_steps, false)
    };
    let gaps = g.node_ids().flat_map(|n| engine.gaps(n).to_vec()).collect();
    let run = Run {
        halt,
        steps: engine.steps,
        sink_firings: engine.sink_firings,
        per_node_firings: engine.nodes.iter().map(|n| n.firings).collect(),
        per_edge_data: engine.per_edge_data,
        per_edge_dummies: engine.per_edge_dummies,
    };
    (run, gaps, steady.skip())
}

/// The `Certification` the full replay supports, assembled the way
/// `verify::certify_with_requirement` assembles it.
fn replayed_certification(
    g: &Graph,
    plan: &AvoidancePlan,
    periods: &[u64],
    budget: (u64, u64),
) -> Certification {
    let replay = |adversary| drive(g, plan, periods, adversary, budget, false).0.outcome();
    let declared = replay(None);
    let (mut worst_case, mut failing_adversary) = (declared, None);
    if periods.iter().any(|&p| p > 1) {
        for (name, pattern) in ADVERSARIES {
            worst_case = replay(Some(pattern));
            if !worst_case.completed {
                failing_adversary = Some(name);
                break;
            }
        }
    }
    let truncated = budget.0 < certification_inputs(g);
    Certification {
        certified: declared.completed && failing_adversary.is_none() && !truncated,
        declared,
        worst_case,
        failing_adversary,
        inputs: budget.0,
        truncated,
    }
}

/// All six runs agree between replay and fast-forward; returns the
/// skips, declared run first.
fn six_runs_agree(
    g: &Graph,
    plan: &AvoidancePlan,
    periods: &[u64],
    budget: (u64, u64),
    context: &str,
) -> Vec<Option<Skip>> {
    std::iter::once(None)
        .chain(ADVERSARIES.iter().map(|&(_, pattern)| Some(pattern)))
        .enumerate()
        .map(|(run, adversary)| {
            let (replayed, _) = drive(g, plan, periods, adversary, budget, false);
            let (skipped, skip) = drive(g, plan, periods, adversary, budget, true);
            assert_eq!(replayed, skipped, "{context}, run {run}, budget {budget:?}, {skip:?}");
            skip
        })
        .collect()
}

/// A layered DAG with one source per first-layer node and a shared sink
/// (`layered_dag` has a shared source; sources with unequal cursors are
/// the point here).
fn multi_source_layers(seed: u64) -> Graph {
    let (layers, width) = (2 + seed % 2, 2 + seed / 2 % 2);
    let pick = |salt: u64, modulus: u64| {
        (seed.wrapping_mul(0x9E37_79B9) >> 7).wrapping_add(salt * 2_654_435_761) % modulus
    };
    let mut b = GraphBuilder::new();
    for l in 0..layers {
        for w in 0..width {
            let from = format!("n{l}_{w}");
            if l + 1 == layers {
                b.edge_with_capacity(&from, "T", 1 + pick(l * 7 + w, 5)).unwrap();
                continue;
            }
            for k in 0..1 + pick(l * 11 + w, 2) {
                let to = format!("n{}_{}", l + 1, (w + k + pick(l + w, width)) % width);
                b.edge_with_capacity(&from, &to, 1 + pick(l * 13 + w * 3 + k, 5)).unwrap();
            }
        }
    }
    b.build().expect("every node reaches the shared sink")
}

fn graph_of(family: u64, seed: u64) -> Graph {
    match family {
        0 | 1 => graph_for(family as u8, seed),
        _ => multi_source_layers(seed),
    }
}

/// All-infinite intervals: the wrapper never sends a dummy.
fn no_avoidance(g: &Graph) -> AvoidancePlan {
    AvoidancePlan::new(g, Algorithm::NonPropagation, IntervalMap::for_graph(g))
}

/// NonProp plan, Prop plan (where the planner has one for the shape), and
/// the all-infinite "no avoidance" plan.
fn plans_of(g: &Graph) -> Vec<AvoidancePlan> {
    [Algorithm::NonPropagation, Algorithm::Propagation]
        .into_iter()
        .filter_map(|algorithm| Planner::new(g).algorithm(algorithm).cycle_bound(4096).plan().ok())
        .chain([no_avoidance(g)])
        .collect()
}

/// Fork-only, source-only and random-interior profiles, periods 2..=6.
fn profile_of(g: &Graph, kind: u64, draw: u64) -> Vec<u64> {
    let period = 2 + draw % 5;
    g.node_ids()
        .map(|n| match kind {
            0 if g.out_degree(n) > 1 => period,
            1 if g.in_degree(n) == 0 => period,
            2 => 1 + (draw / 5 + 7 * n.index() as u64) % 6,
            _ => 1,
        })
        .collect()
}

proptest! {
    // Tier-1 runs this unoptimised; CI's release step runs the full 256.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 256 }))]

    #[test]
    fn fast_forward_is_invisible(draw in 0u64..1_000_000_000) {
        let (family, kind, seed) = (draw % 3, draw / 3 % 3, draw / 9 % 1_000);
        let g = graph_of(family, seed);
        let periods = profile_of(&g, kind, draw / 9_000);
        let inputs = certification_inputs(&g);
        for plan in plans_of(&g) {
            let context = format!(
                "family {family} seed {seed} {} periods {periods:?}", plan.algorithm()
            );
            // Ample budget, then one that runs out mid-run.
            let tight = 500 + draw / 17 % (40 * inputs);
            for budget in [(inputs, STEP_BUDGET), (inputs, tight)] {
                six_runs_agree(&g, &plan, &periods, budget, &context);
                let cert = certify_plan_bounded(&g, &plan, &periods, budget.0, budget.1);
                let replayed = replayed_certification(&g, &plan, &periods, budget);
                prop_assert!(
                    cert.as_ref().ok() == Some(&replayed),
                    "{context} budget {budget:?}: {cert:?} vs replayed {replayed:?}"
                );
            }
            // The default budgets: wherever they did not bind, the
            // replay under an ample one must say the same.
            let cert = certify_plan(&g, &plan, &periods).unwrap();
            if !cert.declared.inconclusive() && !cert.worst_case.inconclusive() {
                let replayed =
                    replayed_certification(&g, &plan, &periods, (inputs, STEP_BUDGET));
                prop_assert!(cert == replayed, "{context}: {cert:?} vs {replayed:?}");
            }
        }
    }
}

proptest! {
    // Tier-1 runs this unoptimised; CI's release steps run 32 cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 3 } else { 32 }))]

    /// E43: on `admit_cold`'s SP shapes — fan-out 4, capacities 2..8,
    /// period-3 forks, a Non-Propagation plan at the default budget — every
    /// row certification runs ends where its full replay ends, final gap
    /// counters included (a skip carries counters on infinite intervals),
    /// and so does the run of every adversary the row stands for.
    #[test]
    fn every_row_of_a_cold_sp_admission_is_its_full_replay(draw in 0u64..1_000_000_000) {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 64 + (draw % 193) as usize,
            max_fanout: 4,
            capacity_range: (2, 8),
            seed: draw,
        });
        let periods: Vec<u64> =
            g.node_ids().map(|n| if g.out_degree(n) > 1 { 3 } else { 1 }).collect();
        let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
        let budget = (certification_inputs(&g), STEP_BUDGET);
        let (rows, adversaries) = certification_rows(&g, &periods);
        let runs: Vec<_> = rows
            .iter()
            .map(|&row| drive_to_gaps(&g, &plan, &periods, row, budget, true))
            .collect();
        // The declared run, then each adversary with the row it shares.
        let named = adversaries.iter().zip(ADVERSARIES);
        let replays = std::iter::once(("declared", None, 0))
            .chain(named.map(|(&(name, row), (_, pattern))| (name, Some(pattern), row)));
        for (name, pattern, row) in replays {
            let (replayed, gaps, _) = drive_to_gaps(&g, &plan, &periods, pattern, budget, false);
            let (run, run_gaps, skip) = &runs[row];
            prop_assert!(
                (&replayed, &gaps) == (run, run_gaps),
                "draw {draw}, {name} on row {row} ({skip:?}): {replayed:?} vs {run:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// E34: the pool is invisible.  A service's certification runs are rows of one
// table, claimed by the submitting thread and by the idle workers of the
// service's pool; with four submitters at once the workers are busy with
// rows and with jobs, rows of different tables interleave, and racing
// submitters of one shape share one walk — and every answer must be the one
// a lone caller gets.
// ---------------------------------------------------------------------------

/// Everything the two ways into certification say about one corpus entry.
#[derive(Debug)]
struct Answers {
    /// `certify_plan` on each of `plans_of`: on the caller alone.
    bare: Vec<Certification>,
    /// The verdict certification stores, per requested protocol (no `hit`,
    /// no times: those do depend on who got there first).
    verdicts: Vec<String>,
}

fn answers(
    g: &Graph,
    periods: &[u64],
    verdict: impl Fn(Algorithm) -> Result<CertifiedCached, CertifyError>,
) -> Answers {
    Answers {
        bare: plans_of(g).iter().map(|plan| certify_plan(g, plan, periods).unwrap()).collect(),
        verdicts: [Algorithm::NonPropagation, Algorithm::Propagation]
            .into_iter()
            .map(|algorithm| match verdict(algorithm) {
                Ok(c) => format!("{} {} {} {:?}", c.used, c.exhaustive, c.fell_back, c.plan),
                Err(rejected) => rejected.to_string(),
            })
            .collect(),
    }
}

/// Field by field, so a difference names itself.
fn assert_same_certification(got: &Certification, want: &Certification, context: &str) {
    assert_eq!(got.certified, want.certified, "{context}: certified");
    assert_eq!(got.declared, want.declared, "{context}: declared");
    assert_eq!(got.worst_case, want.worst_case, "{context}: worst_case");
    assert_eq!(got.failing_adversary, want.failing_adversary, "{context}: failing_adversary");
    assert_eq!(got.inputs, want.inputs, "{context}: inputs");
    assert_eq!(got.truncated, want.truncated, "{context}: truncated");
}

#[test]
fn the_pool_is_invisible_under_contention() {
    // The `fast_forward_is_invisible` corpus, at fixed draws.
    let cases = if cfg!(debug_assertions) { 24 } else { 96 };
    let corpus: Vec<(Graph, Vec<u64>)> = (0..cases)
        .map(|i| {
            let draw = 7_919 * i + 13 * (i / 9);
            let g = graph_of(draw % 3, draw / 9 % 1_000);
            let periods = profile_of(&g, draw / 3 % 3, draw / 9_000 + i);
            (g, periods)
        })
        .collect();
    let alone = PlanCache::new(4 * corpus.len());
    let reference: Vec<Answers> = corpus
        .iter()
        .map(|(g, p)| answers(g, p, |a| alone.certify(g, a, Rounding::Ceil, 4096, p)))
        .collect();

    let service = JobService::new(ServiceConfig {
        workers: 2,
        cycle_bound: 4096,
        plan_cache_capacity: 4 * corpus.len(),
        ..ServiceConfig::default()
    });
    // Admit the job (an admitted one must complete), then read the verdict
    // its admission stored.
    let served = |g: &Graph, periods: &[u64], algorithm| {
        let spec = JobSpec::from_periods(g.clone(), periods.to_vec(), 8, Some(algorithm));
        match service.submit(spec) {
            Ok(ticket) => assert_eq!(ticket.wait().verdict, JobVerdict::Completed),
            Err(RejectReason::Unplannable(_) | RejectReason::Uncertifiable(_)) => {}
            Err(other) => panic!("{other}"),
        }
        service.plan_cache().certify(g, algorithm, Rounding::Ceil, 4096, periods)
    };
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for caller in 0..4 {
            let (corpus, reference, served, start) = (&corpus, &reference, &served, &start);
            scope.spawn(move || {
                start.wait();
                // Two callers walk the corpus in step (racing for every
                // shape), two from elsewhere in it.
                for at in 0..corpus.len() {
                    let at = (at + caller / 2 * corpus.len() / 3) % corpus.len();
                    let ((g, periods), want) = (&corpus[at], &reference[at]);
                    let got = answers(g, periods, |algorithm| served(g, periods, algorithm));
                    let context = format!("caller {caller}, entry {at}, periods {periods:?}");
                    assert_eq!(got.bare.len(), want.bare.len(), "{context}");
                    for (got, want) in got.bare.iter().zip(&want.bare) {
                        assert_same_certification(got, want, &context);
                    }
                    assert_eq!(got.verdicts, want.verdicts, "{context}");
                }
            });
        }
    });
    // One walk per (shape, protocol), however many callers raced for it; the
    // reads after each admission all hit.
    let cache = service.plan_cache();
    assert_eq!(cache.cert_misses(), alone.cert_misses());
    assert_eq!(cache.cert_hits() + cache.cert_misses(), 2 * 4 * 2 * corpus.len() as u64);
}

#[test]
fn a_run_that_deadlocks_before_any_recurrence_is_stepped_in_full() {
    // Fig. 2 unprotected: first-output-only fills A→B→C while A→C
    // starves, and the run is dead within a dozen steps.
    let g = fila::workloads::figures::fig2_triangle(2);
    let skips = six_runs_agree(&g, &no_avoidance(&g), &[8, 1, 1], (256, STEP_BUDGET), "fig2");
    let first_output_only = Some(ADVERSARIES[1].1);
    let (run, skip) =
        drive(&g, &no_avoidance(&g), &[8, 1, 1], first_output_only, (256, STEP_BUDGET), true);
    assert_eq!(run.halt, Halt::Deadlocked);
    assert_eq!((skip, skips[2]), (None, None));
}

#[test]
fn a_three_node_pipeline_recurs_where_expected() {
    // a → b → c, two slots per channel, nothing filters: from the
    // fourth input on every source turn sees the same picture, one
    // sequence number later.  Brent's saved checkpoint is then the 4th
    // (cursor 3), so the 5th (cursor 4) matches it with shift 1 and
    // all 64 − 4 remaining inputs are skipped.
    let mut b = GraphBuilder::new().default_capacity(2);
    b.chain(&["a", "b", "c"]).unwrap();
    let g = b.build().unwrap();
    let budget = (64, STEP_BUDGET);
    let (run, skip) = drive(&g, &no_avoidance(&g), &[1, 1, 1], None, budget, true);
    assert_eq!(skip, Some(Skip { at: 4, shift: 1, skipped: 60 }));
    assert_eq!(run.halt, Halt::Completed);
    assert_eq!(run.per_edge_data, vec![64, 64]);
    assert_eq!(run, drive(&g, &no_avoidance(&g), &[1, 1, 1], None, budget, false).0);
}

#[test]
fn a_counter_reset_in_the_stretch_is_not_carried() {
    // a → b → c on infinite intervals, `a` filtering at period 2 and `b`
    // at 4: `a` sends 0, 2, 4, … and `b` passes on 0, 4, 8, ….  At `a`'s
    // first two checkpoints (cursors 0 and 4) the channels and the ready
    // queue are a shift of each other, but the gap counters are not: each
    // was reset by a send in between and still rose, 0 → 1.  A counter
    // that rose is carried through a skip only where its channel carried
    // no message (E43); carried here, both would end ≈ 30 instead of 1.
    let mut b = GraphBuilder::new().default_capacity(2);
    b.chain(&["a", "b", "c"]).unwrap();
    let g = b.build().unwrap();
    let (plan, periods, budget) = (no_avoidance(&g), [2, 4, 1], (120, STEP_BUDGET));
    let (run, gaps, skip) = drive_to_gaps(&g, &plan, &periods, None, budget, true);
    let skip = skip.expect("the chain recurs");
    let (replayed, replayed_gaps, _) = drive_to_gaps(&g, &plan, &periods, None, budget, false);
    assert_eq!(replayed_gaps, [1, 1]);
    assert_eq!((run, gaps), (replayed, replayed_gaps), "{skip:?}");
}

#[test]
fn a_step_budget_inside_the_skipped_region_is_met_by_stepping() {
    let g = random_ladder(&LadderConfig {
        rungs: 6,
        capacity_range: (2, 4),
        reverse_probability: 0.3,
        seed: 5,
    });
    let periods: Vec<u64> =
        g.node_ids().map(|n| if g.in_degree(n) == 0 { 3 } else { 1 }).collect();
    let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
    let inputs = certification_inputs(&g);
    let (full, skip) = drive(&g, &plan, &periods, None, (inputs, STEP_BUDGET), true);
    let skip = skip.expect("the declared ladder run recurs");
    assert!(skip.skipped * skip.shift > inputs / 2, "{skip:?} of {inputs}");
    // Half the run's steps: far past the recurrence, far from the end.
    let budget = (inputs, full.steps / 2);
    six_runs_agree(&g, &plan, &periods, budget, "ladder, budget mid-skip");
    let cert = certify_plan_bounded(&g, &plan, &periods, budget.0, budget.1).unwrap();
    assert!(cert.declared.inconclusive());
    assert_eq!(cert.declared.steps, budget.1);
    assert_eq!(cert, replayed_certification(&g, &plan, &periods, budget));
}

#[test]
fn a_declared_period_beyond_the_inputs_disables_only_the_declared_run() {
    // lcm(7, 11, 13) = 1001 > 256 inputs: no two checkpoints of the
    // declared run can be a period apart; the adversaries ignore `seq`.
    let g = fila::workloads::figures::fig2_triangle(4);
    let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
    let periods = [7, 11, 13];
    let skips = six_runs_agree(&g, &plan, &periods, (256, STEP_BUDGET), "lcm > inputs");
    assert_eq!(skips[0], None);
    assert!(skips[1..].iter().all(Option::is_some), "{skips:?}");
    assert_eq!(
        certify_plan_bounded(&g, &plan, &periods, 256, STEP_BUDGET).unwrap(),
        replayed_certification(&g, &plan, &periods, (256, STEP_BUDGET)),
    );
}

#[test]
fn two_sources_recur_with_unequal_cursors() {
    // `ahead` feeds the join through a two-hop detour of deep buffers,
    // `behind` directly: in the steady state `ahead` leads by what the
    // detour buffers, and both cursors advance by the same shift.
    let mut b = GraphBuilder::new();
    b.edge_with_capacity("ahead", "relay", 5).unwrap();
    b.edge_with_capacity("relay", "join", 4).unwrap();
    b.edge_with_capacity("behind", "join", 1).unwrap();
    b.edge_with_capacity("join", "sink", 2).unwrap();
    let g = b.build().unwrap();
    let (ahead, behind) = (g.node_by_name("ahead").unwrap(), g.node_by_name("behind").unwrap());
    let mode = AvoidanceMode::plan(no_avoidance(&g));
    let mut engine = Engine::new(&g, &mode, 100);
    let mut fire = |_: NodeId, _: u64, _: &[Option<Payload>], emit: &mut [Option<Payload>]| {
        emit.fill(Some(0))
    };
    let mut steady = SteadyState::new(&g, &[], 100);
    let mut cursors_at_skip = None;
    let halt = engine.run_worklist_observed(&mut fire, STEP_BUDGET, false, |engine, node| {
        let cursors = (
            engine.nodes[ahead.index()].next_source_seq,
            engine.nodes[behind.index()].next_source_seq,
        );
        let before = steady.skip();
        steady.observe(engine, node, STEP_BUDGET);
        if before.is_none() && steady.skip().is_some() {
            cursors_at_skip = Some(cursors);
        }
    });
    assert_eq!(halt, Halt::Completed);
    let (skip, (a, b)) = (steady.skip().unwrap(), cursors_at_skip.unwrap());
    assert!(a > b, "ahead {a}, behind {b}");
    // `ahead` is the anchor and the further along: it bounds the skip.
    assert_eq!((skip.at, skip.skipped), (a, (100 - a) / skip.shift));
    assert_eq!(engine.per_edge_data, vec![100; 4]);
    six_runs_agree(&g, &no_avoidance(&g), &[1; 5], (100, STEP_BUDGET), "two sources");
}
