//! Cross-validation of computed plans against the cycle-level definition,
//! and **filtering-aware plan certification**.
//!
//! A plan is **safe** if every edge's interval is no larger than the value
//! demanded by the exhaustive cycle-level definition (§II.B) — smaller
//! intervals only mean more dummy messages, never deadlock.  A plan is
//! **exact** if the intervals coincide.  The paper proves exactness of its
//! SP algorithms (Claim IV.1 / Corollary IV.2); the ladder algorithms are
//! exact in the common cases and conservative in the corner cases discussed
//! in `DESIGN.md`, which is precisely what experiment E11 measures.
//!
//! ## Certification ([`certify_plan`])
//!
//! The cycle-level check above validates a plan against an *analytic*
//! bound.  The E17 postmortem (DESIGN.md) showed that an analytic bound can
//! itself encode a wrong protocol assumption and ship a deadlock silently —
//! the paper's `L/h` Non-Propagation division survived four PRs of
//! cross-validation because the exhaustive baseline shared its re-emission
//! assumption.  Certification closes that class of bug with a *semantic*
//! check: a bounded, deterministic model check of the plan against a
//! declared per-node filter profile, executed on the scalar model itself
//! ([`crate::model::Engine`] — the same step and worklist scheduler
//! `fila_runtime::Simulator` drives, with the declarative periodic-filter
//! convention shared by the service layer and the workloads in place of
//! node behaviours; a property test in `tests/certification.rs` checks the
//! declared verdict against the independent pooled engine).  The checked
//! runs are:
//!
//! 1. **declared** — the filter profile exactly as submitted (periodic
//!    filters are deterministic, so this is the job the service will run);
//! 2. **a worst-case adversarial family** — every node the profile allows
//!    to filter (period > 1) is replaced by an adversarial behaviour, one
//!    deterministic pattern per run: total starvation, first-/last-output-
//!    only emission (the classic fork asymmetry of Fig. 2), and the two
//!    node-parity relay/starve patterns (one interior node starves a path
//!    that its peers keep filling — the pattern behind the E14 ladder
//!    deadlocks and the E12b Propagation-trigger escape).  Deadlock needs
//!    asymmetry — some channel starved while another fills — so a single
//!    "filter everything" run would be *weaker* than the declared one, not
//!    stronger; the family covers both per-fork and per-node asymmetries
//!    while staying a constant number of bounded runs.
//!
//! A plan is **certified** only if every run completes within the step
//! budget.  The runs share nothing but read-only inputs: they are the rows of
//! one table, claimed in order by the certifying thread and by its idle
//! [`Helpers`] (a service's pool workers), and folded in order (E32, E34).
//! The check is bounded (default [`certification_inputs`]); a run that
//! exhausts the budget without completing is conservatively *not*
//! certified.  `Planner::certify` drives this pass with an automatic
//! fallback chain, and the service layer caches verdicts per
//! `(fingerprint, filter signature)` — see `fila_avoidance::cache`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use fila_graph::undirected::first_unreachable;
use fila_graph::{EdgeId, Graph, NodeId, Result};

use crate::exhaustive::exhaustive_intervals_bounded;
use crate::interval::DummyInterval;
use crate::model::{periodic_emits, AvoidanceMode, Engine, Halt, Payload, SteadyState};
use crate::plan::AvoidancePlan;

/// The outcome of verifying a plan against the exhaustive baseline.
#[derive(Debug, Clone)]
pub struct Verification {
    /// True if no edge's interval exceeds the cycle-level requirement.
    pub safe: bool,
    /// True if every edge's interval equals the cycle-level requirement.
    pub exact: bool,
    /// Edges where the plan is *larger* than allowed (unsafe), as
    /// `(edge, plan interval, required interval)`.
    pub violations: Vec<(EdgeId, DummyInterval, DummyInterval)>,
    /// Edges where the plan is strictly smaller than required
    /// (safe but conservative).
    pub conservative: Vec<(EdgeId, DummyInterval, DummyInterval)>,
}

impl Verification {
    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "safe: {}, exact: {}, violations: {}, conservative edges: {}",
            self.safe,
            self.exact,
            self.violations.len(),
            self.conservative.len()
        )
    }
}

/// Verifies `plan` against the exhaustive cycle-level definition, using the
/// plan's own protocol.
///
/// This is exponential in the worst case (it enumerates every undirected
/// simple cycle); use it on test- and example-sized graphs.
pub fn verify_plan(g: &Graph, plan: &AvoidancePlan) -> Result<Verification> {
    verify_plan_bounded(g, plan, crate::exhaustive::DEFAULT_CYCLE_BOUND)
}

/// [`verify_plan`] with an explicit bound on enumerated cycles.
pub fn verify_plan_bounded(
    g: &Graph,
    plan: &AvoidancePlan,
    max_cycles: usize,
) -> Result<Verification> {
    let required = exhaustive_intervals_bounded(g, plan.algorithm(), max_cycles)?;
    let mut violations = Vec::new();
    let mut conservative = Vec::new();
    for (e, req) in required.iter() {
        let got = plan.interval(e);
        if got > req {
            violations.push((e, got, req));
        } else if got < req {
            conservative.push((e, got, req));
        }
    }
    Ok(Verification {
        safe: violations.is_empty(),
        exact: violations.is_empty() && conservative.is_empty(),
        violations,
        conservative,
    })
}

// --------------------------------------------------------------------------
// Filtering-aware certification
// --------------------------------------------------------------------------

/// Canonical signature of a per-node filter profile: an FNV-1a hash over
/// the node-id-aligned periods (clamped to ≥ 1, so `0`, `1` and "broadcast"
/// spell the same profile).  Together with the structural graph fingerprint
/// this keys cached certification verdicts.
pub fn filter_signature(periods: &[u64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u64| {
        for b in word.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    fold(periods.len() as u64);
    for &p in periods {
        fold(p.max(1));
    }
    hash
}

/// Estimates the **observed** per-node filter profile of a (possibly still
/// running) job from its cumulative traffic counters, merged conservatively
/// with the declared profile — the re-certification input of the adaptive
/// runtime's hot-swap path.
///
/// Under the periodic convention (output `j` of a period-`p` node emits for
/// sequence numbers with `(s + j) % p == 0`) each out-edge of the node
/// carries `≈ firings / p` data messages, so the busiest out-edge inverts
/// to `p ≈ ⌈firings / max_e data[e]⌉`.  A node observed to filter *more*
/// than it declared gets its estimate (`max(declared, estimate)`); one
/// filtering less, or not yet sampled (`firings == 0`), keeps its declared
/// period — loosening a profile below declaration is never useful for
/// re-certification, and small samples must not shrink it.  A node that
/// fired without emitting anything yet estimates `firings + 1`: the
/// tightest period its own history has not already contradicted.
///
/// Sinks have no out-edges and keep their declared period.  `declared`,
/// `per_node_firings` and `per_edge_data` must be node-/edge-id aligned
/// with `g` (the counters of `ExecutionReport` / the shared pool's
/// `FilterObservation` are).
pub fn observed_periods(
    g: &Graph,
    declared: &[u64],
    per_node_firings: &[u64],
    per_edge_data: &[u64],
) -> Vec<u64> {
    g.node_ids()
        .map(|n| {
            let declared = declared.get(n.index()).copied().unwrap_or(1).max(1);
            let firings = per_node_firings.get(n.index()).copied().unwrap_or(0);
            let outs = g.out_edges(n);
            if firings == 0 || outs.is_empty() {
                return declared;
            }
            let busiest = outs
                .iter()
                .map(|&e| per_edge_data.get(e.index()).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let estimate = if busiest == 0 {
                firings.saturating_add(1)
            } else {
                firings.div_ceil(busiest)
            };
            declared.max(estimate)
        })
        .collect()
}

/// The outcome of one bounded model-check run (the default: of one not made).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelOutcome {
    /// Every node reached end-of-stream.
    pub completed: bool,
    /// The run stalled with unfinished nodes (exact verdict).
    pub deadlocked: bool,
    /// Scheduler steps executed.
    pub steps: u64,
}

impl ModelOutcome {
    /// True if the step budget ran out before either verdict.
    pub fn inconclusive(&self) -> bool {
        !self.completed && !self.deadlocked
    }
}

/// The outcome of certifying one plan against one filter profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certification {
    /// Every run completed within the budget *and* the budget was not
    /// truncated: the plan is certified deadlock-free for the declared
    /// profile and the worst-case adversarial family.
    pub certified: bool,
    /// The declared profile, exactly as submitted.
    pub declared: ModelOutcome,
    /// The worst outcome over the adversarial family (the first run that
    /// failed, or the last run when all completed).
    pub worst_case: ModelOutcome,
    /// Name of the adversarial pattern that failed, if any.
    pub failing_adversary: Option<&'static str>,
    /// Input sequence numbers offered per source in each run — or needed,
    /// when no run was made (`truncated` at zero steps).
    pub inputs: u64,
    /// True if the budget is below what [`certification_inputs`] requires
    /// for this graph (pathological buffer capacities).  A truncated check
    /// cannot support the deadlock-free claim — the fill horizon of some
    /// branch exceeds the simulated stream — so a truncated certification
    /// is never `certified`, by construction ([`certify_plan`] skips it).
    pub truncated: bool,
}

impl Certification {
    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        if self.truncated && self.inputs > MAX_CERTIFICATION_INPUTS {
            return format!(
                "certified: false (TRUNCATED before the first step: the fill horizon requires \
                 {} inputs per source, MAX_CERTIFICATION_INPUTS is {MAX_CERTIFICATION_INPUTS})",
                self.inputs
            );
        }
        let leg = |o: &ModelOutcome| {
            if o.completed {
                "completed"
            } else if o.deadlocked {
                "deadlocked"
            } else {
                "inconclusive"
            }
        };
        format!(
            "certified: {} (declared: {}, worst-case: {}{}, {} inputs{})",
            self.certified,
            leg(&self.declared),
            leg(&self.worst_case),
            match self.failing_adversary {
                Some(name) => format!(" under `{name}`"),
                None => String::new(),
            },
            self.inputs,
            if self.truncated { ", TRUNCATED budget" } else { "" }
        )
    }
}

/// One adversarial emission rule: `(node index, output slot, out-degree) →
/// emit data on this slot for every accepted sequence number`.
pub type AdversaryPattern = fn(usize, usize, usize) -> bool;

/// The adversarial emission patterns applied to every node the profile
/// allows to filter (see the module docs).  Exported so the end-to-end
/// property suite (`tests/certification.rs`) re-runs exactly this family
/// against the real engine — a pattern added here is automatically covered
/// there.
pub const ADVERSARIES: [(&str, AdversaryPattern); 5] = [
    ("starve-all", |_, _, _| false),
    ("first-output-only", |_, j, _| j == 0),
    ("last-output-only", |_, j, outs| j + 1 == outs),
    ("even-nodes-relay", |n, _, _| n % 2 == 0),
    ("odd-nodes-relay", |n, _, _| n % 2 == 1),
];

/// The ceiling on model-checked inputs: budgets above it are *truncated*,
/// and a truncated certification is never `certified` (explicit rejection
/// instead of a silently unsupported claim).
pub const MAX_CERTIFICATION_INPUTS: u64 = 65_536;

/// The certification input budget `g` *requires*: enough sequence numbers
/// to fill the deepest buffered source→sink path several times over.  A
/// deadlock under a periodic profile manifests once some cycle branch
/// fills while its opposite starves, and no branch can buffer more than
/// the maximum path capacity — so the fill horizon is `O(max-path
/// buffering)`, not of the (much larger, width-summing) total capacity.
/// The floor keeps tiny graphs' checks meaningful — and is all a graph with
/// **no undirected cycle** needs, however deep its buffers: with no opposite
/// branch nothing can fill against anything.  Values above
/// [`MAX_CERTIFICATION_INPUTS`] are truncated by [`certify_plan`] and
/// reported as such.
pub fn certification_inputs(g: &Graph) -> u64 {
    // Longest source→sink path by buffer capacity: one pass in topological
    // order (the graph is a DAG; a cyclic or invalid graph would already
    // have failed planning, so fall back to total capacity there).
    let Ok(order) = fila_graph::topo::topological_order(g) else {
        return 64 + 4 * g.total_capacity().max(48);
    };
    // A connected graph with one edge fewer than nodes is a tree.
    if g.edge_count() + 1 == g.node_count() && first_unreachable(g).is_none() {
        return 64 + 4 * 48;
    }
    let mut best = vec![0u64; g.node_count()];
    let mut deepest = 0u64;
    for n in order {
        let here = best[n.index()];
        deepest = deepest.max(here);
        for &e in g.out_edges(n) {
            let t = g.head(e);
            let cand = here.saturating_add(g.capacity(e));
            if cand > best[t.index()] {
                best[t.index()] = cand;
            }
        }
    }
    deepest.max(48).saturating_mul(4).saturating_add(64)
}

/// Certifies `plan` against the per-node filter `periods` (node-id-aligned;
/// period 1 = broadcast) with the default budgets.  See the module docs.
///
/// Above [`MAX_CERTIFICATION_INPUTS`] the check could only be truncated,
/// which never certifies whatever the runs do — so they are not made: every
/// outcome is inconclusive at zero steps and `inputs` names the horizon.
pub fn certify_plan(g: &Graph, plan: &AvoidancePlan, periods: &[u64]) -> Result<Certification> {
    certify_shared(g, &Arc::new(plan.clone()), periods, None)
}

/// [`certify_plan`] on a shared interval table, its rows offered to `helpers`.
pub(crate) fn certify_shared(
    g: &Graph,
    plan: &Arc<AvoidancePlan>,
    periods: &[u64],
    helpers: Option<&dyn Helpers>,
) -> Result<Certification> {
    let required = certification_inputs(g);
    if required > MAX_CERTIFICATION_INPUTS {
        check_shapes(g, plan, periods)?;
        return Ok(Certification {
            certified: false,
            declared: ModelOutcome::default(),
            worst_case: ModelOutcome::default(),
            failing_adversary: None,
            inputs: required,
            truncated: true,
        });
    }
    let max_steps = default_step_budget(g, required);
    certify_with_requirement(g, plan, periods, required, max_steps, required, helpers)
}

/// The profile and the plan must be node- and edge-aligned with `g`.
fn check_shapes(g: &Graph, plan: &AvoidancePlan, periods: &[u64]) -> Result<()> {
    if periods.len() != g.node_count() {
        return Err(fila_graph::GraphError::Structure(format!(
            "filter profile has {} periods for {} nodes",
            periods.len(),
            g.node_count()
        )));
    }
    if plan.edge_count() != g.edge_count() {
        return Err(fila_graph::GraphError::Structure(format!(
            "plan covers {} edges but the graph has {}",
            plan.edge_count(),
            g.edge_count()
        )));
    }
    Ok(())
}

/// [`certify_plan`] with explicit input and step budgets.
pub fn certify_plan_bounded(
    g: &Graph,
    plan: &AvoidancePlan,
    periods: &[u64],
    inputs: u64,
    max_steps: u64,
) -> Result<Certification> {
    let plan = Arc::new(plan.clone());
    certify_with_requirement(g, &plan, periods, inputs, max_steps, certification_inputs(g), None)
}

/// Shared body of [`certify_plan`] / [`certify_plan_bounded`]: `required`
/// is the unclamped [`certification_inputs`] value, threaded through so
/// the topological pass runs once per certification, not twice.
fn certify_with_requirement(
    g: &Graph,
    plan: &Arc<AvoidancePlan>,
    periods: &[u64],
    inputs: u64,
    max_steps: u64,
    required: u64,
    helpers: Option<&dyn Helpers>,
) -> Result<Certification> {
    check_shapes(g, plan, periods)?;
    let truncated = inputs < required;
    let (declared, worst_case, failing_adversary) =
        Arc::new(RunTable::new(g, plan, periods, (inputs, max_steps))).verdict(helpers);
    Ok(Certification {
        certified: declared.completed && failing_adversary.is_none() && !truncated,
        declared,
        worst_case,
        failing_adversary,
        inputs,
        truncated,
    })
}

static RUNS_BY_CALLER: AtomicU64 = AtomicU64::new(0);
static RUNS_BY_POOL: AtomicU64 = AtomicU64::new(0);

/// The model-check runs made so far in this process: `(by the threads that
/// asked for a certification, by pool workers)` — `fila_certify_runs_total`.
pub fn certify_runs() -> (u64, u64) {
    (RUNS_BY_CALLER.load(Ordering::Relaxed), RUNS_BY_POOL.load(Ordering::Relaxed))
}

/// Threads that may work a certification's rows beside the one that asked
/// for it: the idle workers of a service's pool (`fila_runtime::SharedPool`).
pub trait Helpers: Sync {
    /// Lets idle threads [`RunTable::help`] with `table`.
    fn offer(&self, table: &Arc<RunTable>);
    /// Takes the offer back: its caller found no row left to claim.
    fn withdraw(&self, table: &Arc<RunTable>);
}

/// Every update under the lock below is one slot store.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One certification as a table of independent runs under one `budget` of
/// inputs and steps, claimed in order from `next` and folded in order: the
/// result does not depend on who ran what.  It owns what a helper reads.
pub struct RunTable {
    graph: Graph,
    mode: AvoidanceMode,
    periods: Vec<u64>,
    budget: (u64, u64),
    /// Row 0 is the declared profile (`None`), then one row per distinct
    /// adversarial emission table, in [`ADVERSARIES`] order.
    rows: Vec<Option<AdversaryPattern>>,
    /// The adversaries the profile escalates to, each with its row.
    adversaries: Vec<(&'static str, usize)>,
    next: AtomicUsize,
    /// Rows from here on are not started: one past the first adversarial
    /// row that did not complete (the sequential early exit).
    stop: AtomicUsize,
    outcomes: Mutex<Vec<Option<std::thread::Result<ModelOutcome>>>>,
    finished: Condvar,
}

#[cfg(test)]
thread_local! {
    /// Ends this thread's tables in a row that panics.
    pub(crate) static PANICKING_ROW: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl RunTable {
    fn new(g: &Graph, plan: &Arc<AvoidancePlan>, periods: &[u64], budget: (u64, u64)) -> Self {
        let mut rows = vec![None];
        let mut adversaries = Vec::new();
        // A profile with no filtering node has an empty escalation: every
        // adversarial run would degenerate to the declared one.
        if periods.iter().any(|&p| p > 1) {
            // A run is determined by what its pattern says on the filtering
            // nodes' slots; patterns that say the same there (one filtering
            // node: `starve-all` is one of the parities) are one row.
            let mut tables: Vec<Vec<bool>> = Vec::new();
            for (name, pattern) in ADVERSARIES {
                let slots = |n: NodeId| {
                    let outs = g.out_edges(n).len();
                    (0..outs).map(move |j| pattern(n.index(), j, outs))
                };
                let filtering = g.node_ids().filter(|n| periods[n.index()] > 1);
                let table: Vec<bool> = filtering.flat_map(slots).collect();
                let seen = tables.iter().position(|t| *t == table).unwrap_or_else(|| {
                    tables.push(table);
                    rows.push(Some(pattern));
                    tables.len() - 1
                });
                adversaries.push((name, seen + 1));
            }
        }
        #[cfg(test)]
        if PANICKING_ROW.with(std::cell::Cell::get) {
            adversaries.push(("panics", rows.len()));
            rows.push(Some(|_, _, _| panic!("a row panics")));
        }
        RunTable {
            graph: g.clone(),
            mode: AvoidanceMode::Plan(plan.clone()),
            periods: periods.to_vec(),
            budget,
            next: AtomicUsize::new(0),
            stop: AtomicUsize::new(rows.len()),
            outcomes: Mutex::new(rows.iter().map(|_| None).collect()),
            finished: Condvar::new(),
            rows,
            adversaries,
        }
    }

    /// One row's run.  Each skips its steady state exactly ([`SteadyState`]):
    /// the declared run's rule has the profile's periods, an adversarial
    /// run's rule does not read `seq` at all.
    fn run(&self, row: usize) -> ModelOutcome {
        let (periods, pattern) = (&self.periods[..], self.rows[row]);
        let fire = |n: NodeId, seq: u64, _: &[Option<Payload>], emit: &mut [Option<Payload>]| {
            let (period, outs) = (periods[n.index()], emit.len());
            for (j, slot) in emit.iter_mut().enumerate() {
                let emits = match pattern {
                    Some(pattern) if period > 1 => pattern(n.index(), j, outs),
                    _ => periodic_emits(period, seq, j),
                };
                // The model only tracks *whether* data flows; payloads are inert.
                *slot = emits.then_some(0);
            }
        };
        let rule = if pattern.is_some() { &[] } else { periods };
        model_check(&self.graph, &self.mode, fire, rule, self.budget.0, self.budget.1)
    }

    /// True while a row is left to start.
    pub fn open(&self) -> bool {
        self.next.load(Ordering::SeqCst) < self.stop.load(Ordering::SeqCst)
    }

    /// Works the table on a helper's thread: never unwinds.
    pub fn help(&self) {
        self.work(&RUNS_BY_POOL);
    }

    /// Claims rows in order and runs each to its end until none is left to
    /// start.  A panic is caught and stored as the row's outcome: it is the
    /// certifying thread's to re-raise, and a helper survives it.
    fn work(&self, runs: &AtomicU64) {
        loop {
            let row = self.next.fetch_add(1, Ordering::SeqCst);
            if row >= self.stop.load(Ordering::SeqCst) {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| self.run(row)));
            runs.fetch_add(1, Ordering::Relaxed);
            if row > 0 && !matches!(outcome, Ok(run) if run.completed) {
                self.stop.fetch_min(row + 1, Ordering::SeqCst);
            }
            lock(&self.outcomes)[row] = Some(outcome);
            self.finished.notify_all();
        }
    }

    /// Runs the table — this thread and whichever of `helpers` is idle; a
    /// lone row is offered to nobody — and folds it in [`ADVERSARIES`] order
    /// as a sequential loop would: `(declared, worst_case, failing_adversary)`.
    fn verdict(
        self: Arc<Self>,
        helpers: Option<&dyn Helpers>,
    ) -> (ModelOutcome, ModelOutcome, Option<&'static str>) {
        let helpers = helpers.filter(|_| self.rows.len() > 1);
        if let Some(helpers) = helpers {
            helpers.offer(&self);
        }
        self.work(&RUNS_BY_CALLER);
        if let Some(helpers) = helpers {
            helpers.withdraw(&self);
        }
        // `stop` only falls and a row claimed below it is run: now that this
        // thread found none to claim, every row below `stop` has its runner.
        let mut done = lock(&self.outcomes);
        while done[..self.stop.load(Ordering::SeqCst)].iter().any(Option::is_none) {
            done = self.finished.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
        let completed = |row: usize| matches!(done[row], Some(Ok(run)) if run.completed);
        let failing = self.adversaries.iter().find(|&&(_, row)| !completed(row));
        let worst = failing.or(self.adversaries.last()).map_or(0, |&(_, row)| row);
        let mut read = |row: usize| done[row].take().expect("the fold reads rows that ran");
        let (declared, worst_case) = (read(0), (worst > 0).then(|| read(worst)));
        drop(done);
        let raise = |run: std::thread::Result<_>| run.unwrap_or_else(|panic| resume_unwind(panic));
        let declared = raise(declared);
        (declared, worst_case.map_or(declared, raise), failing.map(|&(name, _)| name))
    }
}

fn default_step_budget(g: &Graph, inputs: u64) -> u64 {
    // Every scheduler step fires a node for one sequence number (or flushes
    // a blocked send); completed runs use at most ~nodes × inputs firings
    // plus flush retries.  A generous multiple keeps the bound inert for
    // live runs while still terminating adversarial ones; the absolute cap
    // bounds admission CPU on pathological size×input combinations (an
    // exhausted budget is an inconclusive run, i.e. not certified).
    ((g.node_count() + g.edge_count()) as u64)
        .saturating_mul(inputs.saturating_add(16))
        .saturating_mul(8)
        .saturating_add(10_000)
        .min(500_000_000)
}

/// One bounded run of the scalar model ([`crate::model::Engine`], worklist
/// scheduler — exactly what `fila_runtime::Simulator` drives) with a declarative firing rule in
/// place of node behaviours: `fire` fills a data-bearing acceptance's
/// emission slots, and every one of `emit_periods` is a period of it in
/// `seq`.  The run is observed by a [`SteadyState`], so a recurring stretch
/// is stepped once and repeated by arithmetic; `steps` and the verdict are
/// those of the full replay (`tests/certification.rs::fast_forward_is_invisible`).
fn model_check(
    g: &Graph,
    mode: &AvoidanceMode,
    mut fire: impl FnMut(NodeId, u64, &[Option<Payload>], &mut [Option<Payload>]),
    emit_periods: &[u64],
    inputs: u64,
    max_steps: u64,
) -> ModelOutcome {
    let mut engine = Engine::new(g, mode, inputs);
    let mut steady = SteadyState::new(g, emit_periods, inputs);
    let halt = engine.run_worklist_observed(&mut fire, max_steps, false, |engine, node| {
        steady.observe(engine, node, max_steps)
    });
    ModelOutcome {
        completed: halt == Halt::Completed,
        deadlocked: halt == Halt::Deadlocked,
        steps: engine.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalMap;
    use crate::plan::Algorithm;
    use crate::planner::Planner;
    use fila_graph::GraphBuilder;
    use fila_spdag::{build_sp, SpSpec};
    use std::sync::mpsc::{channel, Receiver, Sender};

    #[test]
    fn sp_plans_verify_exactly() {
        let (g, _) = build_sp(&SpSpec::Series(vec![
            SpSpec::Parallel(vec![SpSpec::Edge(3), SpSpec::pipeline(&[1, 4]), SpSpec::Edge(9)]),
            SpSpec::MultiEdge(vec![2, 5]),
        ]));
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let v = verify_plan(&g, &plan).unwrap();
            assert!(v.safe, "{algorithm}: {}", v.summary());
            assert!(v.exact, "{algorithm}: {}", v.summary());
        }
    }

    #[test]
    fn cs4_plans_verify_safely() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "u1", 2).unwrap();
        b.edge_with_capacity("u1", "u2", 3).unwrap();
        b.edge_with_capacity("u2", "y", 4).unwrap();
        b.edge_with_capacity("x", "v1", 5).unwrap();
        b.edge_with_capacity("v1", "v2", 1).unwrap();
        b.edge_with_capacity("v2", "y", 2).unwrap();
        b.edge_with_capacity("u1", "v1", 6).unwrap();
        b.edge_with_capacity("u2", "v2", 1).unwrap();
        let g = b.build().unwrap();
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let v = verify_plan(&g, &plan).unwrap();
            assert!(v.safe, "{algorithm}: {}", v.summary());
        }
        // The Propagation ladder algorithm is exact on this example.
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        assert!(verify_plan(&g, &plan).unwrap().exact);
    }

    #[test]
    fn a_deliberately_broken_plan_is_flagged() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("a", "b", 3).unwrap();
        let g = b.build().unwrap();
        // Claim both edges never need dummies, which is wrong.
        let plan = AvoidancePlan::new(&g, Algorithm::Propagation, IntervalMap::for_graph(&g));
        let v = verify_plan(&g, &plan).unwrap();
        assert!(!v.safe);
        assert_eq!(v.violations.len(), 2);
        assert!(v.summary().contains("violations: 2"));
    }

    fn fig2() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", 2).unwrap();
        b.edge_with_capacity("B", "C", 2).unwrap();
        b.edge_with_capacity("A", "C", 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn filter_signatures_are_canonical() {
        assert_eq!(filter_signature(&[1, 2, 3]), filter_signature(&[1, 2, 3]));
        // 0 and 1 both spell "broadcast".
        assert_eq!(filter_signature(&[0, 2]), filter_signature(&[1, 2]));
        assert_ne!(filter_signature(&[1, 2]), filter_signature(&[2, 1]));
        assert_ne!(filter_signature(&[1]), filter_signature(&[1, 1]));
        assert_ne!(filter_signature(&[]), filter_signature(&[1]));
    }

    #[test]
    fn observed_periods_invert_the_periodic_convention() {
        // fig2 ids: nodes A=0, B=1, C=2; edges A→B=0, B→C=1, A→C=2.
        let g = fig2();
        // A fired 100 times, busiest out-edge carried 25 → period ≈ 4,
        // which exceeds its declared 2; B passed half its 50 firings on;
        // C is a sink and keeps its declared period.
        assert_eq!(
            observed_periods(&g, &[2, 1, 1], &[100, 50, 50], &[25, 25, 20]),
            vec![4, 2, 1]
        );
        // Filtering *less* than declared never loosens the profile…
        assert_eq!(
            observed_periods(&g, &[4, 1, 1], &[100, 0, 0], &[100, 0, 100]),
            vec![4, 1, 1]
        );
        // …and an unsampled node (zero firings) keeps its declaration.
        assert_eq!(
            observed_periods(&g, &[2, 1, 1], &[0, 0, 0], &[0, 0, 0]),
            vec![2, 1, 1]
        );
        // A node that fired without emitting estimates firings + 1: the
        // tightest period its history has not contradicted.
        assert_eq!(
            observed_periods(&g, &[2, 1, 1], &[7, 0, 0], &[0, 0, 0]),
            vec![8, 1, 1]
        );
    }

    #[test]
    fn nonprop_plan_certifies_the_fig2_triangle() {
        let g = fig2();
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        // A filters 7/8 of its traffic; B and C broadcast.
        let cert = certify_plan(&g, &plan, &[8, 1, 1]).unwrap();
        assert!(cert.certified, "{}", cert.summary());
        assert!(cert.declared.completed);
        assert!(cert.worst_case.completed);
        assert!(cert.summary().contains("certified: true"));
    }

    #[test]
    fn an_unprotected_filtering_triangle_fails_certification() {
        let g = fig2();
        // All-infinite intervals = no avoidance at all.
        let plan = AvoidancePlan::new(&g, Algorithm::NonPropagation, IntervalMap::for_graph(&g));
        let cert = certify_plan(&g, &plan, &[8, 1, 1]).unwrap();
        assert!(!cert.certified, "{}", cert.summary());
        // The declared profile happens to survive bare (period 8 with slot
        // offsets feeds both branches), which is exactly why the
        // adversarial family exists: the Fig. 2 asymmetry — fill A→B while
        // starving A→C — deadlocks the unprotected run.
        assert!(cert.declared.completed);
        assert!(cert.worst_case.deadlocked);
        assert_eq!(cert.failing_adversary, Some("first-output-only"));
        assert!(cert.summary().contains("first-output-only"));
    }

    #[test]
    fn worst_case_escalation_catches_plans_the_declared_profile_forgives() {
        // Propagation with the literal trigger protects a *fork-filtering*
        // profile, but if the profile lets an interior node filter, the
        // adversarial escalation (one recogniser starves its path while
        // the other keeps relaying) deadlocks — no dummy is ever created
        // for the propagation rule to forward (the E12b escape).
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("split", "left", 4).unwrap();
        b.edge_with_capacity("split", "right", 4).unwrap();
        b.edge_with_capacity("left", "join", 4).unwrap();
        b.edge_with_capacity("right", "join", 4).unwrap();
        let g = b.build().unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        // Broadcast fork, mildly filtering recognisers: the declared
        // periodic run completes (period 2 on two outputs still feeds every
        // branch), the escalation does not.
        let cert = certify_plan(&g, &plan, &[1, 2, 2, 1]).unwrap();
        assert!(cert.declared.completed, "{}", cert.summary());
        assert!(cert.worst_case.deadlocked, "{}", cert.summary());
        assert!(!cert.certified);
        // The Non-Propagation plan certifies the same profile.
        let np = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let cert = certify_plan(&g, &np, &[1, 2, 2, 1]).unwrap();
        assert!(cert.certified, "{}", cert.summary());
    }

    #[test]
    fn certification_checks_profile_and_plan_shape() {
        let g = fig2();
        let plan = Planner::new(&g).plan().unwrap();
        assert!(certify_plan(&g, &plan, &[1, 1]).is_err());
        let other = {
            let mut b = GraphBuilder::new();
            b.chain(&["a", "b"]).unwrap();
            b.build().unwrap()
        };
        let foreign = Planner::new(&other).plan().unwrap();
        assert!(certify_plan(&g, &foreign, &[1, 1, 1]).is_err());
    }

    #[test]
    fn pathological_capacities_truncate_and_never_certify() {
        // A graph whose fill horizon exceeds the input ceiling: the 4096-
        // style flat clamp used to let an unsafe plan pass (the model run
        // reached EOS before A->B ever filled).  Truncation must now be
        // explicit and fail certification even for a *good* plan — the
        // bounded check cannot support the claim, so it must not make it.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", 100_000).unwrap();
        b.edge_with_capacity("B", "C", 100_000).unwrap();
        b.edge_with_capacity("A", "C", 100_000).unwrap();
        let g = b.build().unwrap();
        assert!(certification_inputs(&g) > MAX_CERTIFICATION_INPUTS);
        for plan in [
            Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap(),
            // The unsafe all-infinite plan of the original escape scenario.
            AvoidancePlan::new(&g, Algorithm::NonPropagation, IntervalMap::for_graph(&g)),
        ] {
            let cert = certify_plan(&g, &plan, &[8, 1, 1]).unwrap();
            assert!(cert.truncated, "{}", cert.summary());
            assert!(!cert.certified, "{}", cert.summary());
            assert!(cert.summary().contains("TRUNCATED"), "{}", cert.summary());
        }
    }

    #[test]
    fn budget_scales_with_path_depth_not_graph_width() {
        // A wide fan of shallow branches has a huge *total* capacity but a
        // tiny fill horizon; the budget must follow the deepest path so
        // wide graphs stay cheap to certify and tall ones stay sound.
        let mut wide = GraphBuilder::new().default_capacity(64);
        for i in 0..64 {
            let mid = format!("m{i}");
            wide.edge("s", &mid).unwrap();
            wide.edge(&mid, "t").unwrap();
        }
        let wide = wide.build().unwrap();
        assert_eq!(certification_inputs(&wide), 64 + 4 * 128);
        let mut tall = GraphBuilder::new().default_capacity(64);
        tall.chain(&["a", "b", "c", "d", "e"]).unwrap();
        tall.chain(&["a", "x", "y", "z", "e"]).unwrap();
        let tall = tall.build().unwrap();
        assert_eq!(certification_inputs(&tall), 64 + 4 * 256);
        // No undirected cycle, nothing to fill against: the floor, at any
        // depth (a planned capacity-256 pipeline of 128 nodes used to need
        // more than the ceiling and was rejected as truncated).
        let mut chain = GraphBuilder::new().default_capacity(64);
        chain.chain(&["a", "b", "c", "d", "e"]).unwrap();
        assert_eq!(certification_inputs(&chain.build().unwrap()), 64 + 4 * 48);
        let names: Vec<String> = (0..128).map(|i| format!("n{i}")).collect();
        let mut deep = GraphBuilder::new().default_capacity(256);
        deep.chain(&names.iter().map(String::as_str).collect::<Vec<_>>()).unwrap();
        let deep = deep.build().unwrap();
        assert_eq!(certification_inputs(&deep), 64 + 4 * 48);
        let plan = Planner::new(&deep).plan().unwrap();
        let cert = certify_plan(&deep, &plan, &vec![1; 128]).unwrap();
        assert!(cert.certified && !cert.truncated, "{}", cert.summary());
    }

    #[test]
    fn broadcast_profiles_skip_the_adversarial_family() {
        // With no filtering node the escalation is empty; the verdict must
        // come from the declared run alone (and still certify).
        let g = fig2();
        let plan = Planner::new(&g).plan().unwrap();
        let cert = certify_plan(&g, &plan, &[1, 1, 1]).unwrap();
        assert!(cert.certified, "{}", cert.summary());
        assert_eq!(cert.declared, cert.worst_case);
    }

    #[test]
    fn step_budget_exhaustion_is_conservatively_uncertified() {
        let g = fig2();
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let cert = certify_plan_bounded(&g, &plan, &[8, 1, 1], 256, 3).unwrap();
        assert!(!cert.certified);
        assert!(cert.declared.inconclusive());
        // A declared run that fails does not end the escalation: the first
        // adversary is still run, and named.
        assert_eq!(cert.failing_adversary, Some("starve-all"));
        assert_eq!((cert.declared.steps, cert.worst_case.steps), (3, 3));
        assert!(cert.worst_case.inconclusive());
    }

    /// Fig. 3 with its interior nodes `b` and `c` filtering, and the
    /// Propagation plan that profile defeats.
    fn fig3_interior_filtered() -> (Graph, Arc<AvoidancePlan>, Vec<u64>) {
        let mut b = GraphBuilder::new();
        for (s, t, capacity) in [
            ("a", "b", 2), ("b", "e", 5), ("e", "f", 1),
            ("a", "c", 3), ("c", "d", 1), ("d", "f", 2),
        ] {
            b.edge_with_capacity(s, t, capacity).unwrap();
        }
        let g = b.build().unwrap();
        let mut periods = vec![1u64; g.node_count()];
        periods[g.node_by_name("b").unwrap().index()] = 3;
        periods[g.node_by_name("c").unwrap().index()] = 3;
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        (g, Arc::new(plan), periods)
    }

    #[test]
    fn a_failing_candidate_starts_no_row_it_cannot_need() {
        let (g, plan, periods) = fig3_interior_filtered();
        let inputs = certification_inputs(&g);
        let budget = (inputs, default_step_budget(&g, inputs));
        let table = RunTable::new(&g, &plan, &periods, budget);
        // `b` and `c` have one output each, so first- and last-output-only
        // say the same and share a row.
        let rows: Vec<usize> = table.adversaries.iter().map(|&(_, row)| row).collect();
        assert_eq!((table.rows.len(), rows), (5, vec![1, 2, 2, 3, 4]));
        let table = Arc::new(table);
        let verdict = table.clone().verdict(None);
        // What the sequential loop found (recorded at E32's parent).
        let declared = ModelOutcome { completed: true, deadlocked: false, steps: 1033 };
        let worst_case = ModelOutcome { completed: false, deadlocked: true, steps: 27 };
        assert_eq!(verdict, (declared, worst_case, Some("even-nodes-relay")));
        // Row 3 failed: the caller, alone, ran rows 0..=3 and started no
        // other; the fold took rows 0 and 3.
        let left = lock(&table.outcomes).iter().flatten().count();
        assert_eq!((left, table.stop.load(Ordering::SeqCst)), (2, 4));
    }

    /// Stands in for an idle pool worker: `offer` hands the table to one
    /// long-lived thread and returns once that thread has claimed every row,
    /// so the caller runs none.
    struct Worker(Mutex<(Sender<Arc<RunTable>>, Receiver<()>)>);

    impl Helpers for Worker {
        fn offer(&self, table: &Arc<RunTable>) {
            let channels = lock(&self.0);
            channels.0.send(table.clone()).unwrap();
            channels.1.recv().unwrap();
        }

        fn withdraw(&self, _: &Arc<RunTable>) {}
    }

    #[test]
    fn a_panicking_row_is_the_callers_panic_and_its_helper_survives_it() {
        let g = fig2();
        let plan = Arc::new(Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap());
        let (offers, offered) = channel::<Arc<RunTable>>();
        let (worked, done) = channel();
        let helper = std::thread::spawn(move || {
            let mut tables = 0;
            for table in offered {
                table.help();
                worked.send(()).unwrap();
                tables += 1;
            }
            tables
        });
        let worker = Worker(Mutex::new((offers, done)));
        let certify = || certify_shared(&g, &plan, &[8, 1, 1], Some(&worker));
        let before = certify().unwrap();
        assert!(before.certified, "{}", before.summary());
        PANICKING_ROW.with(|on| on.set(true));
        let panicked = catch_unwind(AssertUnwindSafe(certify));
        PANICKING_ROW.with(|on| on.set(false));
        let payload = panicked.expect_err("the helper ran the panicking row, the caller raises it");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a row panics"));
        for _ in 0..8 {
            assert_eq!(certify().unwrap(), before);
        }
        drop(worker);
        assert_eq!(helper.join().expect("the helper survives"), 10);
    }

    #[test]
    fn one_row_per_distinct_emission_table() {
        // One filtering node of out-degree 2 at index 0: `starve-all` is the
        // odd parity, the even parity relays everything.
        let g = fig2();
        let plan = Arc::new(Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap());
        let table = |periods: &[u64]| RunTable::new(&g, &plan, periods, (256, 10_000));
        let rows = |t: &RunTable| t.adversaries.iter().map(|&(_, row)| row).collect::<Vec<_>>();
        let source = table(&[8, 1, 1]);
        assert_eq!((source.rows.len(), rows(&source)), (5, vec![1, 2, 3, 4, 1]));
        // No filtering node: the declared run alone.
        let broadcast = table(&[1, 1, 1]);
        assert_eq!((broadcast.rows.len(), rows(&broadcast)), (1, vec![]));
    }

    #[test]
    fn verification_respects_cycle_bound() {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            let mid = format!("m{i}");
            b.edge("s", &mid).unwrap();
            b.edge(&mid, "t").unwrap();
        }
        let g = b.build().unwrap();
        let plan = Planner::new(&g).plan().unwrap();
        assert!(verify_plan_bounded(&g, &plan, 3).is_err());
        assert!(verify_plan_bounded(&g, &plan, 1000).unwrap().safe);
    }
}
