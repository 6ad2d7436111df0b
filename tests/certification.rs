//! Property-based coverage for the filtering-aware certification subsystem
//! (E17): the certification verdict is trustworthy because (a) the scalar
//! model it runs reaches the verdict the independent pooled engine reaches,
//! (b) plans it accepts really survive worst-case interior filtering under
//! real node behaviours **in the Simulator**, and (c) its fallback plans are
//! exactly what fresh planning with the fallback protocol would produce — no
//! private planner behaviour hides behind `certify()`.

use fila::avoidance::{certify_plan_bounded, Algorithm, AvoidancePlan, IntervalMap, Rounding};
use fila::prelude::*;
use fila::runtime::filters::Predicate;
use fila::workloads::generators::{
    periodic_filtered_topology, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};
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
    pattern: fila::avoidance::verify::AdversaryPattern,
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
                Predicate::new(outs, move |_seq, out| pattern(idx, out, outs))
            });
        } else {
            topo = topo.with(n, move || {
                Predicate::new(outs, move |seq, out| (seq + out as u64) % period == 0)
            });
        }
    }
    topo
}

/// The certifier's own adversary table: iterating the exported constant —
/// not a copy — means a pattern added to `fila_avoidance::verify` is
/// automatically re-run against the real engine here.
use fila::avoidance::verify::ADVERSARIES as PATTERNS;

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
        let declared = Simulator::new(&periodic_filtered_topology(&g, |_| period))
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
        let topo = periodic_filtered_topology(&g, |n| periods[n.index()]);
        for plan in [
            Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap(),
            Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap(),
            // All-infinite intervals model "avoidance disabled".
            AvoidancePlan::new(&g, Algorithm::NonPropagation, Rounding::Ceil, IntervalMap::for_graph(&g)),
        ] {
            let cert = certify_plan_bounded(&g, &plan, &periods, INPUTS, STEP_BUDGET).unwrap();
            let report = PooledExecutor::new(&topo).with_plan(&plan).workers(2).run(INPUTS);
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
    use fila::avoidance::certify_plan;
    use fila::avoidance::verify::{certification_inputs, MAX_CERTIFICATION_INPUTS};
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
