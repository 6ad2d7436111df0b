//! The front door of the compile-time analysis: classify a topology and
//! compute its deadlock-avoidance plan with the cheapest applicable
//! algorithm.
//!
//! ```
//! use fila_graph::GraphBuilder;
//! use fila_avoidance::{Planner, Algorithm, DummyInterval};
//!
//! let mut b = GraphBuilder::new();
//! b.edge_with_capacity("a", "b", 2).unwrap();
//! b.edge_with_capacity("b", "e", 5).unwrap();
//! b.edge_with_capacity("e", "f", 1).unwrap();
//! b.edge_with_capacity("a", "c", 3).unwrap();
//! b.edge_with_capacity("c", "d", 1).unwrap();
//! b.edge_with_capacity("d", "f", 2).unwrap();
//! let g = b.build().unwrap();
//!
//! let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
//! let ab = g.edge_by_names("a", "b").unwrap();
//! assert_eq!(plan.interval(ab), DummyInterval::Finite(6));
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fila_graph::{Graph, GraphError, Result};

use crate::cs4::{Cs4Segment, GraphClass, Structure};
use crate::exhaustive::{self, exhaustive_intervals_bounded, DEFAULT_CYCLE_BOUND};
use crate::interval::{DummyInterval, IntervalMap, Rounding};
use crate::ladder_nonprop::apply_ladder_nonpropagation;
use crate::ladder_prop::apply_ladder_propagation;
use crate::nonprop_sp::nonprop_into;
use crate::plan::{Algorithm, AvoidancePlan};
use crate::prop_sp::setivals_into;
use crate::verify::{certify_shared, Certification, Helpers};

/// Builder-style planner for deadlock-avoidance plans.
#[derive(Debug, Clone)]
pub struct Planner<'g> {
    graph: &'g Graph,
    algorithm: Algorithm,
    force_exhaustive: bool,
    cycle_bound: usize,
}

impl<'g> Planner<'g> {
    /// Creates a planner for `graph` with the default configuration
    /// (Propagation protocol, structural dispatch).
    pub fn new(graph: &'g Graph) -> Self {
        Planner {
            graph,
            algorithm: Algorithm::Propagation,
            force_exhaustive: false,
            cycle_bound: DEFAULT_CYCLE_BOUND,
        }
    }

    /// Selects the runtime protocol to compute intervals for.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// A no-op: `ledger/` calls it, which is the only reason it exists.
    pub fn rounding(self, _: Rounding) -> Self {
        self
    }

    /// Forces the exponential general-DAG algorithm even when the topology
    /// admits an efficient one (used for cross-validation and benchmarks).
    pub fn force_exhaustive(mut self, force: bool) -> Self {
        self.force_exhaustive = force;
        self
    }

    /// Bounds the number of cycles the exhaustive fallback may enumerate.
    pub fn cycle_bound(mut self, bound: usize) -> Self {
        self.cycle_bound = bound;
        self
    }

    /// Computes the plan.
    pub fn plan(&self) -> Result<AvoidancePlan> {
        self.plan_as(&self.structure()?)
    }

    /// Computes the plan and reports which topology class (and therefore
    /// which algorithm family) was used.
    pub fn plan_with_class(&self) -> Result<(GraphClass, AvoidancePlan)> {
        let structure = self.structure()?;
        Ok((structure.class(), self.plan_as(&structure)?))
    }

    /// The structure the plan is computed from.
    fn structure(&self) -> Result<Structure> {
        if self.force_exhaustive {
            Ok(Structure::General)
        } else {
            Structure::of(self.graph)
        }
    }

    /// Computes the plan from `structure`: the graph's own (a certification
    /// walk decomposes once for all its candidates), or `General` to force
    /// the exhaustive planner.  An SP-DAG is the decomposed case with one
    /// skeleton edge and no ladder segment (Theorem V.7), so there is no
    /// arm of its own for it.
    pub(crate) fn plan_as(&self, structure: &Structure) -> Result<AvoidancePlan> {
        let g = self.graph;
        let intervals = match structure {
            Structure::Decomposed(d) => {
                let mut intervals = IntervalMap::for_graph(g);
                // Cycles internal to each contracted constituent.
                for ve in &d.skeleton {
                    match self.algorithm {
                        Algorithm::Propagation => setivals_into(
                            &d.forest,
                            &d.metrics,
                            ve.comp,
                            DummyInterval::Infinite,
                            &mut intervals,
                        ),
                        Algorithm::NonPropagation => {
                            nonprop_into(&d.forest, &d.metrics, ve.comp, &mut intervals)
                        }
                    }
                }
                // External cycles of each ladder block.
                for seg in &d.segments {
                    if let Cs4Segment::Ladder(ladder) = seg {
                        match self.algorithm {
                            Algorithm::Propagation => apply_ladder_propagation(
                                g,
                                &d.forest,
                                &d.metrics,
                                ladder,
                                &mut intervals,
                            ),
                            Algorithm::NonPropagation => apply_ladder_nonpropagation(
                                g,
                                &d.forest,
                                &d.metrics,
                                ladder,
                                &mut intervals,
                            ),
                        }
                    }
                }
                intervals
            }
            Structure::General => {
                exhaustive_intervals_bounded(g, self.algorithm, self.cycle_bound)?
            }
        };
        Ok(AvoidancePlan::new(g, self.algorithm, intervals))
    }

    /// Plans **and certifies** against the declared per-node filter
    /// `periods` (node-id-aligned; period 1 = broadcast), walking the
    /// automatic fallback chain when certification fails:
    ///
    /// 1. the requested algorithm, structural dispatch;
    /// 2. the other protocol, structural dispatch (Non-Prop → Propagation
    ///    and vice versa);
    /// 3. the requested algorithm, forced exhaustive (the per-cycle bounds
    ///    are tighter than the conservative ladder recurrences);
    /// 4. the other protocol, forced exhaustive.
    ///
    /// The first candidate whose [`certify_plan`](crate::verify::certify_plan)
    /// passes is returned; see that module for what certification checks.
    /// On a `General`-class topology the structural steps *are* the
    /// exhaustive ones, so the chain collapses to two candidates.
    pub fn certify(&self, periods: &[u64]) -> std::result::Result<CertifiedPlan, CertifyError> {
        let structure = self.structure().map_err(CertifyError::Unplannable)?;
        let accepted = walk_certification_chain(self, &structure, periods, None, |algorithm| {
            let planning = Instant::now();
            let plan = self.clone().algorithm(algorithm).plan_as(&structure)?;
            Ok((Arc::new(plan), planning.elapsed()))
        })?;
        Ok(CertifiedPlan {
            plan: accepted.plan,
            requested: self.algorithm,
            used: accepted.used,
            exhaustive: accepted.exhaustive,
            fell_back: accepted.fell_back,
            certification: accepted.certification,
            attempts: accepted.attempts,
        })
    }
}

/// The accepted candidate of one certification-chain walk, with the time
/// spent planning and model-checking on this call.
pub(crate) struct ChainAccepted {
    pub plan: Arc<AvoidancePlan>,
    pub used: Algorithm,
    pub exhaustive: bool,
    pub fell_back: bool,
    pub certification: Certification,
    pub attempts: Vec<CertifyAttempt>,
    pub plan_time: Duration,
    pub certify_time: Duration,
}

/// Walks the certification fallback chain — THE single implementation of
/// the candidate order, attempt bookkeeping and error classification,
/// shared by [`Planner::certify`] and the verdict-caching
/// [`PlanCache::certify`](crate::cache::PlanCache::certify) so the two can
/// never select differently.  `planner` carries the graph, the requested
/// protocol and the cycle budget; `structural` produces an algorithm's
/// candidate plan from `structure`, the graph's one decomposition, plus the
/// planning time spent (zero when served from a cache).  Exhaustive
/// candidates are the walk's own: the cycles are enumerated **once per
/// walk** for all of them, and a budget overrun is as final.
pub(crate) fn walk_certification_chain<F>(
    planner: &Planner<'_>,
    structure: &Structure,
    periods: &[u64],
    helpers: Option<&dyn Helpers>,
    mut structural: F,
) -> std::result::Result<ChainAccepted, CertifyError>
where
    F: FnMut(Algorithm) -> Result<(Arc<AvoidancePlan>, Duration)>,
{
    let g = planner.graph;
    let mut attempts = Vec::new();
    let mut last_certification = None;
    let mut first_plan_error = None;
    let mut plan_time = Duration::ZERO;
    let mut certify_time = Duration::ZERO;
    let mut cycles = None;
    let general = matches!(structure, Structure::General);
    for (index, (algorithm, exhaustive)) in certification_candidates(planner.algorithm, general)
        .into_iter()
        .enumerate()
    {
        let provided = if exhaustive {
            let planning = Instant::now();
            cycles
                .get_or_insert_with(|| exhaustive::enumerate(g, planner.cycle_bound))
                .as_ref()
                .map_err(GraphError::clone)
                .and_then(|cycles| exhaustive::intervals_from_cycles(g, algorithm, cycles))
                .map(|intervals| {
                    let plan = AvoidancePlan::new(g, algorithm, intervals);
                    (Arc::new(plan), planning.elapsed())
                })
        } else {
            structural(algorithm)
        };
        let plan = match provided {
            Ok((plan, spent)) => {
                plan_time += spent;
                plan
            }
            Err(e) => {
                first_plan_error.get_or_insert(e);
                continue;
            }
        };
        let checking = Instant::now();
        let certification = match certify_shared(g, &plan, periods, helpers) {
            Ok(c) => c,
            Err(e) => return Err(CertifyError::Unplannable(e)),
        };
        certify_time += checking.elapsed();
        attempts.push(CertifyAttempt {
            algorithm,
            exhaustive,
            certified: certification.certified,
        });
        last_certification = Some(certification);
        if certification.certified {
            return Ok(ChainAccepted {
                plan,
                used: algorithm,
                exhaustive,
                fell_back: index > 0,
                certification,
                attempts,
                plan_time,
                certify_time,
            });
        }
        // A horizon beyond the ceiling is a fact about the graph: no other
        // candidate could be checked either.
        if certification.truncated {
            break;
        }
    }
    match last_certification {
        None => Err(CertifyError::Unplannable(first_plan_error.unwrap_or_else(|| {
            GraphError::Structure("no candidate plan could be computed".into())
        }))),
        Some(last) => Err(CertifyError::Uncertifiable { attempts, last }),
    }
}

/// The certification fallback chain for a requested protocol: `(algorithm,
/// force_exhaustive)` candidates in the order they are tried.  Shared by
/// [`Planner::certify`] and the verdict-caching
/// [`PlanCache::certify`](crate::cache::PlanCache::certify) so the two can
/// never select differently.
pub(crate) fn certification_candidates(
    requested: Algorithm,
    general: bool,
) -> Vec<(Algorithm, bool)> {
    let other = match requested {
        Algorithm::Propagation => Algorithm::NonPropagation,
        Algorithm::NonPropagation => Algorithm::Propagation,
    };
    if general {
        // Structural dispatch on a general graph is already exhaustive.
        vec![(requested, true), (other, true)]
    } else {
        vec![(requested, false), (other, false), (requested, true), (other, true)]
    }
}

/// One attempted candidate of the certification fallback chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertifyAttempt {
    /// The protocol the candidate plan targeted.
    pub algorithm: Algorithm,
    /// Whether the exhaustive per-cycle planner was forced.
    pub exhaustive: bool,
    /// Whether the candidate passed certification.
    pub certified: bool,
}

/// The result of [`Planner::certify`]: a plan that passed the bounded
/// model check for the declared filter profile.
#[derive(Debug, Clone)]
pub struct CertifiedPlan {
    /// The certified plan (shared, so certification never copies interval
    /// tables).
    pub plan: Arc<AvoidancePlan>,
    /// The protocol the caller asked for.
    pub requested: Algorithm,
    /// The protocol of the certified plan (differs from `requested` after
    /// a protocol fallback).
    pub used: Algorithm,
    /// Whether the certified plan came from the forced-exhaustive planner.
    pub exhaustive: bool,
    /// True if the certified plan was not the first candidate of the chain.
    pub fell_back: bool,
    /// The certification evidence for the accepted plan.
    pub certification: Certification,
    /// Every candidate tried, in order, with its verdict.
    pub attempts: Vec<CertifyAttempt>,
}

/// Why [`Planner::certify`] could not produce a certified plan.
#[derive(Debug, Clone)]
pub enum CertifyError {
    /// No candidate plan could even be computed (invalid graph, cycle
    /// budget exceeded, …) — the submission is unplannable regardless of
    /// filtering.
    Unplannable(GraphError),
    /// Candidate plans were computed, but none passed certification for
    /// the declared filter profile.
    Uncertifiable {
        /// Every candidate tried, in order.
        attempts: Vec<CertifyAttempt>,
        /// The certification record of the last candidate.
        last: Certification,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Unplannable(e) => write!(f, "unplannable: {e}"),
            CertifyError::Uncertifiable { attempts, last } => write!(
                f,
                "no plan certified for the declared filter profile \
                 ({} candidates tried; last: {})",
                attempts.len(),
                last.summary()
            ),
        }
    }
}

impl std::error::Error for CertifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CertifyError::Unplannable(e) => Some(e),
            CertifyError::Uncertifiable { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;
    use fila_spdag::{build_sp, SpSpec};

    fn fig3() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "e", 5).unwrap();
        b.edge_with_capacity("e", "f", 1).unwrap();
        b.edge_with_capacity("a", "c", 3).unwrap();
        b.edge_with_capacity("c", "d", 1).unwrap();
        b.edge_with_capacity("d", "f", 2).unwrap();
        b.build().unwrap()
    }

    fn butterfly() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
        ] {
            b.edge_with_capacity(s, t, 2).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn plans_fig3_with_both_protocols() {
        let g = fig3();
        let (class, prop) = Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan_with_class()
            .unwrap();
        assert_eq!(class, GraphClass::SeriesParallel);
        assert_eq!(
            prop.interval(g.edge_by_names("a", "b").unwrap()),
            DummyInterval::Finite(6)
        );
        let np = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        // Robust bound ⌊8^(1/3)⌋ = 2 (the paper's re-emission division
        // gave ⌈8/3⌉ = 3, which interior filtering defeats — E17).
        assert_eq!(
            np.interval(g.edge_by_names("a", "c").unwrap()),
            DummyInterval::Finite(2)
        );
    }

    #[test]
    fn plans_cs4_graphs_via_ladder_algorithms() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "a", 2).unwrap();
        b.edge_with_capacity("x", "b", 3).unwrap();
        b.edge_with_capacity("a", "y", 4).unwrap();
        b.edge_with_capacity("b", "y", 5).unwrap();
        b.edge_with_capacity("a", "b", 1).unwrap();
        let g = b.build().unwrap();
        let (class, plan) = Planner::new(&g).plan_with_class().unwrap();
        assert_eq!(class, GraphClass::Cs4);
        assert_eq!(
            plan.interval(g.edge_by_names("a", "y").unwrap()),
            DummyInterval::Finite(6)
        );
    }

    #[test]
    fn plans_general_graphs_via_exhaustive() {
        let g = butterfly();
        let (class, plan) = Planner::new(&g).plan_with_class().unwrap();
        assert_eq!(class, GraphClass::General);
        assert!(plan.channels_needing_dummies() >= 6);
    }

    #[test]
    fn force_exhaustive_matches_structural_plan_on_sp_dags() {
        let (g, _) = build_sp(&SpSpec::Series(vec![
            SpSpec::Parallel(vec![SpSpec::Edge(3), SpSpec::pipeline(&[1, 4])]),
            SpSpec::MultiEdge(vec![2, 5]),
        ]));
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let fast = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let slow = Planner::new(&g)
                .algorithm(algorithm)
                .force_exhaustive(true)
                .plan()
                .unwrap();
            assert_eq!(fast.intervals(), slow.intervals(), "{algorithm}");
        }
    }

    #[test]
    fn cycle_bound_propagates_to_exhaustive() {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            let mid = format!("m{i}");
            b.edge("s", &mid).unwrap();
            b.edge(&mid, "t").unwrap();
        }
        let g = b.build().unwrap();
        let planner = Planner::new(&g).force_exhaustive(true).cycle_bound(3);
        assert!(planner.plan().is_err());
    }

    #[test]
    fn certify_accepts_the_requested_algorithm_when_it_passes() {
        let g = fig3();
        let periods = vec![4u64; g.node_count()];
        let certified = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .certify(&periods)
            .unwrap();
        assert_eq!(certified.requested, Algorithm::NonPropagation);
        assert_eq!(certified.used, Algorithm::NonPropagation);
        assert!(!certified.fell_back);
        assert!(!certified.exhaustive);
        assert!(certified.certification.certified);
        assert_eq!(certified.attempts.len(), 1);
    }

    #[test]
    fn certify_falls_back_from_propagation_to_nonpropagation() {
        // Interior filtering defeats the literal Propagation trigger; the
        // chain must land on the Non-Propagation plan.
        let g = fig3();
        // Interior nodes b and c filter; the source broadcasts.
        let mut periods = vec![1u64; g.node_count()];
        periods[g.node_by_name("b").unwrap().index()] = 3;
        periods[g.node_by_name("c").unwrap().index()] = 3;
        let certified = Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .certify(&periods)
            .unwrap();
        assert_eq!(certified.requested, Algorithm::Propagation);
        assert_eq!(certified.used, Algorithm::NonPropagation);
        assert!(certified.fell_back);
        assert!(!certified.attempts[0].certified);
        assert!(certified.attempts.last().unwrap().certified);
    }

    #[test]
    fn certify_rejects_unplannable_graphs_with_the_planning_error() {
        // A dense general (neither SP nor CS4) core whose cycle count
        // exceeds the budget: every chain candidate is exhaustive and every
        // one fails to plan.
        let mut b = GraphBuilder::new().default_capacity(2);
        for l in 0..3 {
            b.edge("x", &format!("l{l}")).unwrap();
            for r in 0..6 {
                b.edge(&format!("l{l}"), &format!("r{r}")).unwrap();
            }
        }
        for r in 0..6 {
            b.edge(&format!("r{r}"), "y").unwrap();
        }
        let g = b.build().unwrap();
        let periods = vec![2u64; g.node_count()];
        let err = Planner::new(&g)
            .cycle_bound(16)
            .certify(&periods)
            .unwrap_err();
        assert!(matches!(err, CertifyError::Unplannable(_)), "{err}");
        assert!(err.to_string().contains("unplannable"));
    }

    /// Calls of `exhaustive::enumerate` (this thread's) that `walk` makes.
    fn enumerations(walk: impl FnOnce()) -> usize {
        let before = crate::exhaustive::ENUMERATIONS.with(std::cell::Cell::get);
        walk();
        crate::exhaustive::ENUMERATIONS.with(std::cell::Cell::get) - before
    }

    #[test]
    fn a_walk_enumerates_the_cycles_once_for_all_its_exhaustive_candidates() {
        // The butterfly is general: both candidates are exhaustive.  Over
        // budget, the overrun is found once and is final…
        let g = butterfly();
        let periods = vec![1u64; g.node_count()];
        let rejected = enumerations(|| {
            let err = Planner::new(&g).cycle_bound(3).certify(&periods).unwrap_err();
            assert!(matches!(err, CertifyError::Unplannable(_)), "{err}");
        });
        assert_eq!(rejected, 1);
        // …and within budget, a protocol fallback plans from the same cycles.
        let mut filtering = vec![1u64; g.node_count()];
        filtering[g.node_by_name("c").unwrap().index()] = 2;
        let fell_back = enumerations(|| {
            let certified = Planner::new(&g)
                .algorithm(Algorithm::Propagation)
                .certify(&filtering)
                .unwrap();
            assert!(certified.fell_back && certified.exhaustive);
            assert_eq!(certified.attempts.len(), 2);
        });
        assert_eq!(fell_back, 1);
    }

    #[test]
    fn a_truncated_horizon_ends_the_walk_before_the_first_step() {
        // Fig. 2 with buffers too deep for the input ceiling, which the
        // topological pass knows (`tests/admission_scaling.rs` has the
        // 512-node shape of ROADMAP's measurement).
        let mut b = GraphBuilder::new().default_capacity(100_000);
        for (s, t) in [("A", "B"), ("B", "C"), ("A", "C")] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        let periods = [8, 1, 1];
        let err = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .certify(&periods)
            .unwrap_err();
        let CertifyError::Uncertifiable { attempts, last } = &err else {
            panic!("expected Uncertifiable, got {err}");
        };
        assert_eq!(attempts.len(), 1);
        assert!(last.truncated && !last.certified);
        assert_eq!((last.declared.steps, last.worst_case.steps), (0, 0));
        assert_eq!(last.inputs, crate::verify::certification_inputs(&g));
        let text = err.to_string();
        assert!(text.contains(&format!("requires {} inputs", last.inputs)), "{text}");
        assert!(text.contains("MAX_CERTIFICATION_INPUTS is 65536"), "{text}");
    }

    #[test]
    fn certify_validates_the_profile_length() {
        let g = fig3();
        let err = Planner::new(&g).certify(&[1, 2]).unwrap_err();
        assert!(matches!(err, CertifyError::Unplannable(_)), "{err}");
    }

    #[test]
    fn general_class_chain_collapses_to_exhaustive_candidates() {
        assert_eq!(
            certification_candidates(Algorithm::NonPropagation, true),
            vec![(Algorithm::NonPropagation, true), (Algorithm::Propagation, true)]
        );
        assert_eq!(
            certification_candidates(Algorithm::Propagation, false),
            vec![
                (Algorithm::Propagation, false),
                (Algorithm::NonPropagation, false),
                (Algorithm::Propagation, true),
                (Algorithm::NonPropagation, true),
            ]
        );
    }

    #[test]
    fn uncertifiable_error_is_descriptive() {
        let err = CertifyError::Uncertifiable {
            attempts: vec![CertifyAttempt {
                algorithm: Algorithm::NonPropagation,
                exhaustive: false,
                certified: false,
            }],
            last: Certification {
                certified: false,
                declared: crate::verify::ModelOutcome {
                    completed: false,
                    deadlocked: true,
                    steps: 7,
                },
                worst_case: crate::verify::ModelOutcome {
                    completed: false,
                    deadlocked: true,
                    steps: 7,
                },
                failing_adversary: Some("starve-all"),
                inputs: 256,
                truncated: false,
            },
        };
        let text = err.to_string();
        assert!(text.contains("1 candidates tried"), "{text}");
        assert!(text.contains("deadlocked"), "{text}");
    }
}
