//! Mixed job workloads for the multi-tenant service layer.
//!
//! A realistic job service does not see one topology: it sees a stream of
//! heterogeneous submissions — mostly well-behaved pipeline and SP/CS4
//! templates, sprinkled with graphs it must *reject* (no efficient plan
//! exists and the exhaustive fallback would blow its cycle budget) and
//! graphs that *deadlock* because the client disabled avoidance on an
//! under-provisioned topology.  [`job_mix`] generates exactly that traffic,
//! deterministically per seed, as engine-agnostic [`JobShape`]s: a graph,
//! per-node periodic-filter periods (the canonical filter convention of
//! [`fila_runtime::Periodic`]), an input count and
//! an avoidance flag.  The service crate converts shapes into its `JobSpec`
//! submissions; tests replay the same shapes through the reference
//! [`fila_runtime::Simulator`] to pin per-job verdicts.

use fila_avoidance::{Algorithm, Planner};
use fila_graph::{Graph, GraphBuilder};
use fila_runtime::Periodic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generators::{
    pipeline_graph, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};

/// What a generated job is expected to exercise in the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A linear pipeline with interior filtering: cannot deadlock, runs
    /// without a plan.
    Pipeline,
    /// A random series-parallel DAG with fork filtering, protected by a
    /// plan.
    SpDag,
    /// A random CS4 ladder with fork filtering, protected by a plan.
    Ladder,
    /// A split/join shape whose declared spec lets *interior* nodes
    /// filter, submitted with a **Propagation** request: admission
    /// certification must reject the Propagation plan (the literal trigger
    /// cannot protect interior filtering) and fall back to
    /// Non-Propagation — the service's fallback chain, exercised end to
    /// end by realistic traffic.
    InteriorFiltered,
    /// A dense general graph whose exhaustive planning exceeds any sane
    /// cycle budget: the service must reject it as unplannable.
    Unplannable,
    /// An under-provisioned filtering topology submitted with avoidance
    /// disabled: admitted, then deadlocks at runtime.
    Deadlocker,
    /// A job whose *executed* filter profile is stricter than its declared
    /// one ([`JobShape::actual_periods`]): admitted and certified for the
    /// declaration, it drifts at runtime and exercises the service's drift
    /// detector and response ladder.  Planned drifters (SP DAG / ladder
    /// conversions) re-certify their observed profile and hot-swap; the
    /// bare dense drifters ([`dense_drifter`]) are unplannable at any
    /// budget and land in the ladder's cancel rung.
    Drifting,
}

/// One generated job: a topology shape plus its runtime configuration.
#[derive(Debug, Clone)]
pub struct JobShape {
    /// Human-readable label (kind + index), used in reports and the CLI.
    pub label: String,
    /// What the shape exercises.
    pub kind: JobKind,
    /// The application graph.
    pub graph: Graph,
    /// Per-node filter periods aligned with node ids (1 = broadcast).
    pub periods: Vec<u64>,
    /// Input sequence numbers offered at every source.
    pub inputs: u64,
    /// The protocol the submission requests a plan for, or `None` to run
    /// bare (deadlocks become runtime verdicts).  The service may still
    /// *execute* a different protocol when certification falls back.
    pub avoidance: Option<Algorithm>,
    /// Filter-drift injection: when set, the job *executes* these per-node
    /// periods while declaring (and being certified for) `periods`.  Only
    /// [`JobKind::Drifting`] shapes set this, and always strictly heavier
    /// filtering than declared (drift in the dangerous direction).
    pub actual_periods: Option<Vec<u64>>,
    /// Tenant tag for the service's per-tenant metrics: one fixed tenant
    /// per kind (a template is "one client's pipeline"), derived without
    /// consuming the generator RNG so existing mixes stay bit-for-bit
    /// identical per seed.
    pub tenant: &'static str,
}

impl JobKind {
    /// The fixed tenant tag of every shape of this kind (see
    /// [`JobShape::tenant`]).
    pub fn tenant(self) -> &'static str {
        match self {
            JobKind::Pipeline => "pipelines-inc",
            JobKind::SpDag => "spdag-co",
            JobKind::Ladder => "ladder-corp",
            JobKind::InteriorFiltered => "interior-labs",
            JobKind::Unplannable => "dense-org",
            JobKind::Deadlocker => "wedge-co",
            JobKind::Drifting => "drift-lab",
        }
    }
}

impl JobShape {
    /// The *declared* program: the canonical periodic filter with this
    /// shape's per-node periods.
    pub fn program(&self) -> Periodic<'_> {
        Periodic::new(&self.graph, self.periods.clone())
    }

    /// The program the job actually executes: the declared one unless this
    /// is a drifting shape, in which case [`JobShape::actual_periods`]
    /// substitutes.
    pub fn executed_program(&self) -> Periodic<'_> {
        let periods = self.actual_periods.as_ref().unwrap_or(&self.periods);
        Periodic::new(&self.graph, periods.clone())
    }
}

/// A dense two-terminal general graph (complete bipartite core `K(3, m)`):
/// neither SP nor CS4, with an undirected-cycle count that grows
/// combinatorially in `m` — the canonical "reject me" submission for any
/// bounded exhaustive planner.
pub fn dense_unplannable(m: usize) -> Graph {
    dense_bipartite(m, 2)
}

/// The plannability-hostile shape of [`dense_unplannable`] with buffers
/// deep enough that a *bare* filtered run never builds back-pressure: with
/// `capacity ≥ inputs` nothing ever blocks on a full edge, so the run
/// completes even though the fork's staggered filtering starves every join
/// until end-of-stream.  This is the deterministic cancel-rung drifter of
/// [`job_mix_with_drift`]: it runs (and drifts) long enough to be
/// detected, but no cycle budget — escalated or not — can plan it.
pub fn dense_drifter(m: usize, capacity: u64) -> Graph {
    dense_bipartite(m, capacity.max(2))
}

fn dense_bipartite(m: usize, capacity: u64) -> Graph {
    let m = m.max(2);
    let mut b = GraphBuilder::new().default_capacity(capacity);
    for l in 0..3 {
        b.edge("x", &format!("l{l}")).unwrap();
    }
    for r in 0..m {
        let right = format!("r{r}");
        for l in 0..3 {
            b.edge(&format!("l{l}"), &right).unwrap();
        }
        b.edge(&right, "y").unwrap();
    }
    b.build().expect("dense bipartite graph is a valid two-terminal DAG")
}

/// An under-provisioned shape that *provably* deadlocks without a plan: a
/// random SP DAG with tight buffers whose every node filters with the
/// given `period` (interior filtering starves join nodes on cycles faster
/// than the narrow buffers can absorb; a Non-Propagation plan rescues it).
///
/// Not every random SP spec contains a cycle (an all-series draw is just a
/// pipeline), so candidate seeds are screened with the reference
/// [`fila_runtime::Simulator`] until one *wedges bare* — generation stays
/// deterministic per seed and the returned shape carries a guaranteed
/// deadlock verdict for `inputs` ≥ 256.
///
/// There is deliberately **no** "a plan rescues it" screen any more.  The
/// pre-E17 generator had one, because on a few capacity-1-heavy draws with
/// odd periods the paper's `L/h` Non-Propagation intervals did not survive
/// aggressive interior filtering (the SP sibling of the ladder bug).  That
/// screen was bug compensation: with the filtering-robust bound, *every*
/// deadlocking draw is rescued by its plan, and
/// `deadlocker_actually_deadlocks_and_plan_rescues_it` pins exactly that as
/// a regression test instead of quietly generating around it.
pub fn underprovisioned_sp(seed: u64, period: u64) -> (Graph, Vec<u64>) {
    let period = period.max(2);
    for attempt in 0..64u64 {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 12,
            max_fanout: 3,
            capacity_range: (1, 2),
            seed: seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9)),
        });
        // A tree-shaped draw cannot deadlock; skip it without simulating.
        if g.edge_count() < g.node_count() {
            continue;
        }
        if fila_runtime::Simulator::new(&Periodic::from_fn(&g, |_| period)).run(256).deadlocked {
            let periods = vec![period; g.node_count()];
            return (g, periods);
        }
    }
    unreachable!("no deadlocking SP draw in 64 attempts (seed {seed}, period {period})")
}

/// A split/join shape plus a filter profile that exercises the service's
/// certification **fallback chain**: interior recognisers filter while the
/// fork broadcasts, so the literal-trigger Propagation plan cannot protect
/// it (no dummy is ever originated for the propagation rule to forward) —
/// certification rejects Propagation and falls back to Non-Propagation.
///
/// Candidate draws are screened with `Planner::certify` until one actually
/// takes the fallback (deterministic per seed): the Propagation candidate
/// fails certification and a later candidate passes.
pub fn interior_filtered_fallback(seed: u64) -> (Graph, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1F17);
    for _ in 0..64 {
        // A k-way split/join with randomised capacities: every branch is an
        // interior recogniser between fork and join.
        let branches = rng.gen_range(2..=4usize);
        let mut b = GraphBuilder::new();
        for i in 0..branches {
            let mid = format!("rec{i}");
            b.edge_with_capacity("split", &mid, rng.gen_range(2..=6)).unwrap();
            b.edge_with_capacity(&mid, "join", rng.gen_range(2..=6)).unwrap();
        }
        let g = b.build().expect("split/join is a valid two-terminal DAG");
        let mut periods = vec![1u64; g.node_count()];
        for i in 0..branches {
            let rec = g.node_by_name(&format!("rec{i}")).unwrap();
            periods[rec.index()] = rng.gen_range(2..=6);
        }
        match Planner::new(&g).algorithm(Algorithm::Propagation).certify(&periods) {
            Ok(certified) if certified.fell_back => return (g, periods),
            _ => continue,
        }
    }
    unreachable!("no fallback-exercising split/join draw in 64 attempts (seed {seed})")
}

/// Periods vector filtering only at the (unique) source with `period`;
/// every other node broadcasts.
fn fork_periods(g: &Graph, period: u64) -> Vec<u64> {
    let source = g.single_source().expect("generated shapes are two-terminal");
    g.node_ids()
        .map(|n| if n == source { period } else { 1 })
        .collect()
}

/// Shape templates per kind: a storm of hundreds of jobs draws from this
/// many distinct graphs of each kind, mirroring production traffic where a
/// handful of client pipeline *templates* account for nearly all
/// submissions (and letting the service's structural plan cache actually
/// amortise — every repeat of a template is a cache hit).
pub const TEMPLATES_PER_KIND: usize = 3;

/// Generates `count` mixed jobs, deterministically for a given `seed`.
///
/// Roughly 1 in 12 jobs is [`JobKind::Unplannable`], 1 in 12 a
/// [`JobKind::Deadlocker`] and 1 in 12 an [`JobKind::InteriorFiltered`]
/// fallback-exerciser; the rest rotate over pipelines, SP DAGs and
/// ladders.  Each kind cycles through [`TEMPLATES_PER_KIND`] fixed shape
/// templates (graph + capacities + filter periods derived from a
/// template-local RNG) while the per-job input count still varies, so
/// repeated submissions of one template are the plan cache's hit case and
/// distinct templates its misses.
pub fn job_mix(seed: u64, count: usize) -> Vec<JobShape> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Build each template once up front and clone per job — the
    // deadlocker templates in particular run a simulator screening loop
    // that must not repeat for every one of hundreds of submissions.
    let template = |salt: u64, tmpl: usize| {
        StdRng::seed_from_u64(seed ^ (salt << 32) ^ tmpl as u64)
    };
    let unplannables: Vec<Graph> = (0..TEMPLATES_PER_KIND)
        .map(|t| dense_unplannable(8 + t))
        .collect();
    let deadlockers: Vec<(Graph, Vec<u64>)> = (0..TEMPLATES_PER_KIND)
        .map(|t| {
            let mut trng = template(0xDE, t);
            underprovisioned_sp(trng.gen_range(0..=u64::MAX), trng.gen_range(2..=4))
        })
        .collect();
    let pipelines: Vec<(Graph, Vec<u64>)> = (0..TEMPLATES_PER_KIND)
        .map(|t| {
            let mut trng = template(0x71, t);
            let n = trng.gen_range(3..=12);
            let cap = trng.gen_range(2..=6);
            let g = pipeline_graph(n, cap, false);
            let period = trng.gen_range(1..=4);
            // Interior filtering is safe on a pipeline (no undirected
            // cycles), so no plan is needed.
            let periods = g.node_ids().map(|_| period).collect();
            (g, periods)
        })
        .collect();
    let spdags: Vec<(Graph, Vec<u64>)> = (0..TEMPLATES_PER_KIND)
        .map(|t| {
            let mut trng = template(0x5D, t);
            let (g, _) = random_sp_dag(&GeneratorConfig {
                target_edges: trng.gen_range(8..=20),
                max_fanout: 3,
                capacity_range: (2, 6),
                seed: trng.gen_range(0..=u64::MAX),
            });
            let periods = fork_periods(&g, trng.gen_range(2..=6));
            (g, periods)
        })
        .collect();
    let ladders: Vec<(Graph, Vec<u64>)> = (0..TEMPLATES_PER_KIND)
        .map(|t| {
            let mut trng = template(0x1A, t);
            let g = random_ladder(&LadderConfig {
                rungs: trng.gen_range(2..=6),
                capacity_range: (2, 6),
                reverse_probability: 0.3,
                seed: trng.gen_range(0..=u64::MAX),
            });
            let periods = fork_periods(&g, trng.gen_range(2..=6));
            (g, periods)
        })
        .collect();
    let interiors: Vec<(Graph, Vec<u64>)> = (0..TEMPLATES_PER_KIND)
        .map(|t| {
            let mut trng = template(0xFA, t);
            interior_filtered_fallback(trng.gen_range(0..=u64::MAX))
        })
        .collect();
    (0..count)
        .map(|i| {
            // Per-job variation (advances for every job so the stream is
            // not template-periodic in its inputs).
            let inputs = rng.gen_range(64..=256);
            let tmpl = (i / 12) % TEMPLATES_PER_KIND;
            let roll = i % 12;
            match roll {
                5 => {
                    let g = unplannables[tmpl].clone();
                    let periods = fork_periods(&g, 2);
                    JobShape {
                        label: format!("unplannable-{i}"),
                        kind: JobKind::Unplannable,
                        tenant: JobKind::Unplannable.tenant(),
                        periods,
                        inputs: 64,
                        avoidance: Some(Algorithm::NonPropagation),
                        actual_periods: None,
                        graph: g,
                    }
                }
                8 => {
                    let (g, periods) = interiors[tmpl].clone();
                    JobShape {
                        label: format!("interior-{i}"),
                        kind: JobKind::InteriorFiltered,
                        tenant: JobKind::InteriorFiltered.tenant(),
                        periods,
                        inputs,
                        avoidance: Some(Algorithm::Propagation),
                        actual_periods: None,
                        graph: g,
                    }
                }
                11 => {
                    let (g, periods) = deadlockers[tmpl].clone();
                    JobShape {
                        label: format!("deadlocker-{i}"),
                        kind: JobKind::Deadlocker,
                        tenant: JobKind::Deadlocker.tenant(),
                        periods,
                        inputs: 256,
                        avoidance: None,
                        actual_periods: None,
                        graph: g,
                    }
                }
                r if r % 3 == 0 => {
                    let (g, periods) = pipelines[tmpl].clone();
                    JobShape {
                        label: format!("pipeline-{i}"),
                        kind: JobKind::Pipeline,
                        tenant: JobKind::Pipeline.tenant(),
                        periods,
                        inputs,
                        avoidance: None,
                        actual_periods: None,
                        graph: g,
                    }
                }
                r if r % 3 == 1 => {
                    let (g, periods) = spdags[tmpl].clone();
                    JobShape {
                        label: format!("spdag-{i}"),
                        kind: JobKind::SpDag,
                        tenant: JobKind::SpDag.tenant(),
                        periods,
                        inputs,
                        avoidance: Some(Algorithm::NonPropagation),
                        actual_periods: None,
                        graph: g,
                    }
                }
                _ => {
                    let (g, periods) = ladders[tmpl].clone();
                    JobShape {
                        label: format!("ladder-{i}"),
                        kind: JobKind::Ladder,
                        tenant: JobKind::Ladder.tenant(),
                        periods,
                        inputs,
                        avoidance: Some(Algorithm::NonPropagation),
                        actual_periods: None,
                        graph: g,
                    }
                }
            }
        })
        .collect()
}

/// [`job_mix`] with **filter-drift fault injection**: roughly `drift_rate`
/// of the jobs (deterministically per seed, independent of the base mix's
/// RNG stream) are converted to [`JobKind::Drifting`] shapes whose
/// executed profile filters more heavily than the declared one:
///
/// - Planned SP-DAG / ladder jobs keep their declaration but *execute*
///   with every filtering period twice as long — the hot-swap path: their
///   observed profile still certifies under Non-Propagation, so the
///   service's response ladder migrates them live onto a new plan.  Their
///   input counts are raised so detection reliably beats completion (a
///   Non-Propagation plan keeps a drifting job running, never wedged).
/// - Pipeline jobs are *replaced* by bare [`dense_drifter`] submissions
///   (declared broadcast, executed fork-filtering, buffers ≥ inputs so the
///   bare run never deadlocks): detected drifters whose graph no cycle
///   budget can plan — the deterministic cancel rung.
///
/// `drift_rate ≤ 0` returns the base mix unchanged (bit-for-bit), so every
/// pinned [`job_mix`] expectation holds for the zero-rate call.
pub fn job_mix_with_drift(seed: u64, count: usize, drift_rate: f64) -> Vec<JobShape> {
    let mut shapes = job_mix(seed, count);
    if drift_rate <= 0.0 {
        return shapes;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD21F_7ED0);
    // One dense cancel-path template per mix, built lazily: inputs stay at
    // or below the edge capacity so the bare filtered run cannot wedge.
    const DENSE_INPUTS: u64 = 4096;
    let mut dense: Option<Graph> = None;
    for (i, shape) in shapes.iter_mut().enumerate() {
        if !rng.gen_bool(drift_rate.clamp(0.0, 1.0)) {
            continue;
        }
        match shape.kind {
            JobKind::SpDag | JobKind::Ladder => {
                let actual = shape
                    .periods
                    .iter()
                    .map(|&p| if p > 1 { p * 2 } else { 1 })
                    .collect();
                shape.label = format!("drifting-{i}");
                shape.kind = JobKind::Drifting;
                shape.tenant = JobKind::Drifting.tenant();
                shape.actual_periods = Some(actual);
                shape.inputs = shape.inputs.max(4096);
            }
            JobKind::Pipeline => {
                let g = dense
                    .get_or_insert_with(|| dense_drifter(16, DENSE_INPUTS))
                    .clone();
                let declared = vec![1; g.node_count()];
                let actual = fork_periods(&g, 2);
                *shape = JobShape {
                    label: format!("drifting-dense-{i}"),
                    kind: JobKind::Drifting,
                    tenant: JobKind::Drifting.tenant(),
                    periods: declared,
                    inputs: DENSE_INPUTS,
                    avoidance: None,
                    actual_periods: Some(actual),
                    graph: g,
                };
            }
            _ => {}
        }
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_avoidance::{classify, GraphClass};
    use fila_runtime::Simulator;

    #[test]
    fn mix_is_deterministic_and_covers_all_kinds() {
        let a = job_mix(42, 48);
        let b = job_mix(42, 48);
        assert_eq!(a.len(), 48);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph, "{}", x.label);
            assert_eq!(x.periods, y.periods);
            assert_eq!(x.inputs, y.inputs);
            assert_eq!(x.avoidance, y.avoidance);
        }
        for kind in [
            JobKind::Pipeline,
            JobKind::SpDag,
            JobKind::Ladder,
            JobKind::InteriorFiltered,
            JobKind::Unplannable,
            JobKind::Deadlocker,
        ] {
            assert!(a.iter().any(|s| s.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn interior_filtered_shapes_exercise_the_fallback_chain() {
        let mut seen = 0;
        for shape in job_mix(11, 36) {
            if shape.kind != JobKind::InteriorFiltered {
                continue;
            }
            seen += 1;
            assert_eq!(shape.avoidance, Some(Algorithm::Propagation), "{}", shape.label);
            let certified = Planner::new(&shape.graph)
                .algorithm(Algorithm::Propagation)
                .certify(&shape.periods)
                .unwrap_or_else(|e| panic!("{}: {e}", shape.label));
            assert!(certified.fell_back, "{}", shape.label);
            assert_eq!(certified.used, Algorithm::NonPropagation, "{}", shape.label);
            // And the fallback plan really completes the declared job.
            let report = Simulator::new(&shape.program())
                .with_plan(&certified.plan)
                .run(shape.inputs);
            assert!(report.completed, "{}: {report:?}", shape.label);
        }
        assert!(seen >= 3, "mix of 36 should contain ≥ 3 interior-filtered jobs, got {seen}");
    }

    #[test]
    fn dense_unplannable_exceeds_a_modest_cycle_budget() {
        let g = dense_unplannable(8);
        assert_eq!(classify(&g).unwrap(), GraphClass::General);
        assert!(Planner::new(&g).cycle_bound(512).plan().is_err());
    }

    #[test]
    fn deadlocker_actually_deadlocks_and_plan_rescues_it() {
        // Every Deadlocker shape in a mix must truly deadlock unprotected,
        // and a Non-Propagation plan must rescue the same topology.  The
        // generator no longer screens for rescuability (that screen was
        // compensation for the pre-E17 interior-filtering unsoundness), so
        // this assertion is the regression test for the fixed bound: any
        // deadlocking under-provisioned draw a plan cannot rescue fails
        // here.
        let mut seen = 0;
        for shape in job_mix(3, 48) {
            if shape.kind != JobKind::Deadlocker {
                continue;
            }
            seen += 1;
            let report = Simulator::new(&shape.program()).run(shape.inputs);
            assert!(report.deadlocked, "{}: {report:?}", shape.label);
            let plan = Planner::new(&shape.graph)
                .algorithm(Algorithm::NonPropagation)
                .plan()
                .unwrap();
            let rescued = Simulator::new(&shape.program())
                .with_plan(&plan)
                .run(shape.inputs);
            assert!(rescued.completed, "{}: {rescued:?}", shape.label);
        }
        assert!(seen >= 4, "mix of 48 should contain ≥ 4 deadlockers, got {seen}");
    }

    #[test]
    fn planned_shapes_complete_under_nonpropagation() {
        // Every SP-DAG / ladder shape in a small mix must complete when
        // given its Non-Propagation plan (fork-only filtering is protected
        // on every graph class).
        for shape in job_mix(7, 24) {
            if !matches!(shape.kind, JobKind::SpDag | JobKind::Ladder) {
                continue;
            }
            let plan = Planner::new(&shape.graph)
                .algorithm(Algorithm::NonPropagation)
                .plan()
                .unwrap_or_else(|e| panic!("{}: {e}", shape.label));
            let report = Simulator::new(&shape.program())
                .with_plan(&plan)
                .run(shape.inputs);
            assert!(report.completed, "{}: {report:?}", shape.label);
        }
    }

    #[test]
    fn zero_drift_rate_is_the_base_mix_bit_for_bit() {
        let base = job_mix(42, 36);
        let zero = job_mix_with_drift(42, 36, 0.0);
        assert_eq!(base.len(), zero.len());
        for (x, y) in base.iter().zip(&zero) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.periods, y.periods);
            assert_eq!(x.actual_periods, y.actual_periods);
        }
    }

    #[test]
    fn drift_mix_injects_both_ladder_paths() {
        let shapes = job_mix_with_drift(42, 72, 0.9);
        let drifters: Vec<_> = shapes.iter().filter(|s| s.kind == JobKind::Drifting).collect();
        // Hot-swap path: planned drifters whose executed profile strictly
        // tightens the declared one.
        let planned: Vec<_> = drifters.iter().filter(|s| s.avoidance.is_some()).collect();
        assert!(!planned.is_empty(), "no planned drifters at rate 0.9");
        for s in &planned {
            let actual = s.actual_periods.as_ref().expect("drifters carry an executed profile");
            assert!(s.periods.iter().zip(actual).all(|(d, a)| a >= d));
            assert!(s.periods.iter().zip(actual).any(|(d, a)| a > d), "{}", s.label);
            assert!(s.inputs >= 4096, "{}: detection must beat completion", s.label);
        }
        // Cancel path: bare dense drifters no cycle budget can plan, with
        // buffers deep enough that the bare run cannot wedge.
        let dense: Vec<_> = drifters.iter().filter(|s| s.avoidance.is_none()).collect();
        assert!(!dense.is_empty(), "no bare dense drifters at rate 0.9");
        for s in &dense {
            assert!(Planner::new(&s.graph).cycle_bound(4096).plan().is_err(), "{}", s.label);
            assert!(s.graph.edge_ids().all(|e| s.graph.capacity(e) >= s.inputs), "{}", s.label);
        }
        // Non-convertible kinds survive untouched.
        for kind in [JobKind::Unplannable, JobKind::Deadlocker, JobKind::InteriorFiltered] {
            assert!(shapes.iter().any(|s| s.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn drifting_shapes_run_safely_and_detectably() {
        // The two load-bearing runtime claims behind the response ladder:
        // a planned drifter never wedges under its (declared-profile) plan,
        // and a bare dense drifter completes without any plan at all — so
        // in both cases detection only has to beat *completion*, never a
        // deadlock.  Checked on the reference simulator with the executed
        // (drifted) topology but modest inputs to keep the test quick.
        let shapes = job_mix_with_drift(5, 48, 0.9);
        let mut planned = 0;
        let mut dense = 0;
        for shape in shapes.iter().filter(|s| s.kind == JobKind::Drifting) {
            match shape.avoidance {
                Some(algorithm) => {
                    planned += 1;
                    let plan = Planner::new(&shape.graph).algorithm(algorithm).plan().unwrap();
                    let report = Simulator::new(&shape.executed_program())
                        .with_plan(&plan)
                        .run(512);
                    assert!(report.completed, "{}: {report:?}", shape.label);
                }
                None => {
                    if dense > 0 {
                        continue; // every dense drifter clones one template
                    }
                    dense += 1;
                    let report = Simulator::new(&shape.executed_program()).run(shape.inputs);
                    assert!(report.completed, "{}: {report:?}", shape.label);
                }
            }
        }
        assert!(planned >= 1 && dense >= 1, "planned {planned}, dense {dense}");
    }

    #[test]
    fn pipelines_complete_without_plans() {
        for shape in job_mix(9, 12) {
            if shape.kind != JobKind::Pipeline {
                continue;
            }
            let report = Simulator::new(&shape.program()).run(shape.inputs);
            assert!(report.completed, "{}: {report:?}", shape.label);
        }
    }
}
