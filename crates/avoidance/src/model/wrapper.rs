//! The dummy-message deadlock-avoidance wrappers (the runtime side of the
//! authors' SPAA'10 protocols).
//!
//! Both protocols are implemented by the language runtime around the user's
//! node behaviour, with no participation from application code:
//!
//! * **Propagation**: only channels with a finite dummy interval originate
//!   dummies (those are exactly the outgoing channels of nodes with two
//!   outgoing edges on some undirected cycle); additionally, a node that
//!   consumed a dummy must forward dummies on every output channel it is not
//!   sending data on.
//! * **Non-Propagation**: every channel with a finite interval originates a
//!   dummy when its producer has gone `[e]` consecutive sequence numbers
//!   without sending anything on it; received dummies are consumed silently
//!   and never forwarded.
//!
//! ### The Propagation trigger
//!
//! The paper states the Propagation trigger in one sentence: "a dummy is
//! sent on a channel whenever its source has gone too long without sending a
//! data message on the channel" (the protocol itself is defined in the
//! authors' SPAA'10 paper, which this reproduction does not have access to).
//! That literal reading is the one trigger: data traffic resets the gap
//! counter, so dummies appear only after the fork has filtered `[e]`
//! consecutive inputs on `e`.  A node therefore sends at most one message per
//! channel per accepted sequence number, and every channel's sequence
//! numbers strictly increase.
//!
//! The trigger provably prevents the deadlocks caused by filtering *at fork
//! nodes* — the scenario of Figs. 1–3.  A cycle can still deadlock when an
//! interior node of the would-be empty path does the filtering, because no
//! dummy is ever created for the propagation rule to propagate (experiment
//! E12b).  That case is Non-Propagation's job: certification rejects the
//! Propagation plan for such a job and falls back to a certified
//! Non-Propagation plan (E17).
//!
//! The intervals come from an [`AvoidancePlan`] computed by this crate's
//! planner; [`AvoidanceMode::Disabled`] turns the wrapper off, which is how
//! the deadlock of Fig. 2 is reproduced experimentally.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use fila_graph::{Graph, NodeId};

use crate::plan::{Algorithm, AvoidancePlan};

/// How the runtime should avoid deadlock.
///
/// The plan is held behind an [`Arc`] so that every node wrapper (and every
/// pool worker) shares one copy instead of cloning the whole interval table
/// per node per run.
#[derive(Debug, Clone, Default)]
pub enum AvoidanceMode {
    /// No dummy messages are ever sent; filtering applications may deadlock.
    #[default]
    Disabled,
    /// Follow the given plan (protocol + per-channel intervals).
    Plan(Arc<AvoidancePlan>),
}

impl AvoidanceMode {
    /// Wraps a plan into the sharing mode (one allocation, shared by every
    /// node from then on).
    pub fn plan(plan: AvoidancePlan) -> Self {
        AvoidanceMode::Plan(Arc::new(plan))
    }

    /// The protocol in effect, if any.
    pub fn algorithm(&self) -> Option<Algorithm> {
        match self {
            AvoidanceMode::Disabled => None,
            AvoidanceMode::Plan(p) => Some(p.algorithm()),
        }
    }
}

/// A shell: the Propagation trigger has one reading, the paper's (see the
/// module documentation).  No code reads this type; it exists only because
/// `ledger/` names it (`PropagationTrigger::default()`,
/// `ServiceConfig.trigger`, `SharedPool::{submit_full, resume_full}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationTrigger {
    /// Emit a dummy on `e` only after `[e]` sequence numbers without a data
    /// message on `e` (the paper's literal wording).
    #[default]
    OnFilterOnly,
}

/// What a run-level accept ([`DummyWrapper::on_accept_dummy_run`]) emits on
/// one output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunDummies {
    /// No dummies for this run.
    None,
    /// One dummy per accepted sequence number of the run (the Propagation
    /// protocol forwards every consumed dummy on a non-data channel).
    All,
    /// Dummies at the 0-based run positions `first`, `first + period`,
    /// `first + 2·period`, … below the run length (the Non-Propagation
    /// interval counter crossing its threshold inside the run).
    Periodic {
        /// Position of the first threshold crossing within the run.
        first: u64,
        /// The channel's dummy-interval threshold.
        period: u64,
    },
}

/// Per-node dummy-message state: one gap counter per output channel.
///
/// All tables are resolved to one dense, `out_edges`-aligned table at
/// construction time, so the per-firing path
/// ([`DummyWrapper::on_accept_each`]) performs **no heap allocations and no
/// map lookups**.
#[derive(Debug, Clone)]
pub struct DummyWrapper {
    algorithm: Option<Algorithm>,
    outputs: usize,
    /// Per output channel (aligned with `graph.out_edges(node)`), the
    /// sequence numbers since its gap counter was last reset; then, under a
    /// plan, its dummy-interval threshold — `u64::MAX` encodes an infinite
    /// interval, which a gap counter can never reach.
    table: Table,
    /// Answer buffer for [`DummyWrapper::on_accept`], sized at its first
    /// call.
    dummies: Vec<bool>,
}

/// A wrapper's table: two entries — a node with one output, or two outputs
/// and no plan — held inline, more in a box, so the wrappers of a chain
/// allocate nothing.
#[derive(Debug, Clone)]
enum Table {
    Inline([u64; 2]),
    Boxed(Box<[u64]>),
}

impl Table {
    /// The table of `len` entries `entries` yields.
    fn new(len: usize, entries: impl Iterator<Item = u64>) -> Self {
        if len > 2 {
            return Table::Boxed(entries.collect());
        }
        let mut inline = [0; 2];
        inline.iter_mut().zip(entries).for_each(|(slot, entry)| *slot = entry);
        Table::Inline(inline)
    }

    /// The first `outputs` entries — the gap counters — and the rest.
    fn split(&mut self, outputs: usize) -> (&mut [u64], &[u64]) {
        let (gap, threshold) = self.split_at_mut(outputs);
        (gap, threshold)
    }
}

impl Deref for Table {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Table::Inline(inline) => inline,
            Table::Boxed(boxed) => boxed,
        }
    }
}

impl DerefMut for Table {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Table::Inline(inline) => inline,
            Table::Boxed(boxed) => boxed,
        }
    }
}

impl DummyWrapper {
    /// Builds the wrapper state for one node under the given mode.
    pub fn new(graph: &Graph, node: NodeId, mode: &AvoidanceMode) -> Self {
        let out = graph.out_edges(node);
        let gaps = out.iter().map(|_| 0);
        let (algorithm, table) = match mode {
            AvoidanceMode::Disabled => (None, Table::new(out.len(), gaps)),
            AvoidanceMode::Plan(plan) => {
                let threshold = |&e| plan.interval(e).finite().unwrap_or(u64::MAX);
                let entries = gaps.chain(out.iter().map(threshold));
                (Some(plan.algorithm()), Table::new(2 * out.len(), entries))
            }
        };
        DummyWrapper {
            algorithm,
            outputs: out.len(),
            table,
            dummies: Vec::new(),
        }
    }

    /// Number of output channels tracked.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The gap counters and, under a plan, the thresholds.
    fn split(&mut self) -> (&mut [u64], &[u64]) {
        self.table.split(self.outputs)
    }

    /// The current gap counters (sequence numbers since each counter was
    /// last reset), aligned with `graph.out_edges(node)` — the wrapper's
    /// entire checkpointable state.
    pub fn gaps(&self) -> &[u64] {
        &self.table[..self.outputs]
    }

    /// Overwrites the gap counters with values previously captured by
    /// [`DummyWrapper::gaps`], so a restored node resumes its dummy
    /// intervals exactly where they stopped (no interval is counted twice).
    ///
    /// # Panics
    ///
    /// Panics if `gaps.len()` differs from the wrapper's output count.
    pub fn restore_gaps(&mut self, gaps: &[u64]) {
        let (gap, _) = self.split();
        assert_eq!(
            gaps.len(),
            gap.len(),
            "restored gap counters must match the node's output count"
        );
        gap.copy_from_slice(gaps);
    }

    /// Processes one accepted sequence number.
    ///
    /// * `consumed_dummy` — whether any of the messages consumed at this
    ///   sequence number was a dummy;
    /// * `sent_data(i)` — whether the node emits a data message on output
    ///   `i` for this sequence number (queried once per output).
    ///
    /// Returns, per output channel, whether a dummy message (with this
    /// sequence number) must also be sent.  The slice borrows the wrapper's
    /// internal buffer, so the call allocates nothing after the first;
    /// `sent_data` is a closure so callers need not materialise a
    /// `Vec<bool>` either.  [`DummyWrapper::on_accept_each`] is the same
    /// step with no buffer at all.
    pub fn on_accept(
        &mut self,
        consumed_dummy: bool,
        sent_data: impl Fn(usize) -> bool,
    ) -> &[bool] {
        let DummyWrapper {
            algorithm,
            outputs,
            table,
            dummies,
        } = self;
        if dummies.len() != *outputs {
            *dummies = vec![false; *outputs];
        }
        if algorithm.is_none() {
            dummies.fill(false);
            return dummies;
        }
        accept(*algorithm, table.split(*outputs), consumed_dummy, sent_data, |i, dummy| {
            dummies[i] = dummy;
        });
        dummies
    }

    /// [`DummyWrapper::on_accept`], handing each output channel's answer
    /// to `each(i, dummy)`, in channel order, instead of to a buffer.
    pub fn on_accept_each(
        &mut self,
        consumed_dummy: bool,
        sent_data: impl Fn(usize) -> bool,
        each: impl FnMut(usize, bool),
    ) {
        let split = self.table.split(self.outputs);
        accept(self.algorithm, split, consumed_dummy, sent_data, each);
    }

    /// Processes a run of `n` consecutive accepted sequence numbers at which
    /// the node consumed **no dummy and sent data on every output**: exactly
    /// what `n` successive [`DummyWrapper::on_accept`]`(false, |_| true)`
    /// calls would have done — data resets every counter, so none of them
    /// sends a dummy and every counter ends at zero.
    pub fn on_accept_data_run(&mut self, n: u64) {
        debug_assert!(n > 0);
        if self.algorithm.is_some() {
            self.split().0.fill(0);
        }
    }

    /// Processes a run of `n` consecutive accepted sequence numbers at which
    /// the node consumed **only dummies** (so no output carries data and
    /// every acceptance had `consumed_dummy = true`), updating the gap
    /// counters by run arithmetic instead of `n` scalar calls — the
    /// threshold lookup is hoisted out of the per-message loop entirely.
    ///
    /// `emit(i, run)` is called once per output channel with what that
    /// channel must send; the result is exactly what `n` successive
    /// [`DummyWrapper::on_accept`]`(true, |_| false)` calls would have
    /// produced.
    pub fn on_accept_dummy_run(&mut self, n: u64, mut emit: impl FnMut(usize, RunDummies)) {
        debug_assert!(n > 0);
        let Some(algorithm) = self.algorithm else {
            // Disabled mode touches no state and sends nothing.
            return;
        };
        let (gap, threshold) = self.split();
        for i in 0..gap.len() {
            match algorithm {
                Algorithm::Propagation => {
                    // Every acceptance consumed a dummy and carried no data,
                    // so the forwarding rule fires at each of the n numbers
                    // and leaves the counter reset.
                    gap[i] = 0;
                    emit(i, RunDummies::All);
                }
                Algorithm::NonPropagation => {
                    let t = threshold[i];
                    let g = gap[i];
                    if t == u64::MAX || g + n < t {
                        gap[i] = g + n;
                        emit(i, RunDummies::None);
                    } else {
                        // First crossing after t - g silent numbers, then
                        // every t; the final counter is what accumulated
                        // after the last crossing.
                        let first = t - g - 1;
                        gap[i] = (n - 1 - first) % t;
                        emit(i, RunDummies::Periodic { first, period: t });
                    }
                }
            }
        }
    }
}

/// The gap-counter step of [`DummyWrapper::on_accept`] and
/// [`DummyWrapper::on_accept_each`], over a wrapper's split table.
fn accept(
    algorithm: Option<Algorithm>,
    (gap, threshold): (&mut [u64], &[u64]),
    consumed_dummy: bool,
    sent_data: impl Fn(usize) -> bool,
    mut each: impl FnMut(usize, bool),
) {
    let Some(algorithm) = algorithm else {
        (0..gap.len()).for_each(|i| each(i, false));
        return;
    };
    for i in 0..gap.len() {
        let sent = sent_data(i);
        // Propagation forwards a received dummy on every channel not
        // carrying data for this sequence number.
        let forward = consumed_dummy && !sent && algorithm == Algorithm::Propagation;
        let dummy = if sent || forward {
            gap[i] = 0;
            forward
        } else {
            gap[i] += 1;
            let crossed = gap[i] >= threshold[i];
            if crossed {
                gap[i] = 0;
            }
            crossed
        };
        each(i, dummy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{DummyInterval, IntervalMap};
    use crate::planner::Planner;
    use fila_graph::GraphBuilder;

    fn fig2() -> Graph {
        // A -> B -> C plus A -> C, the deadlock example.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", 2).unwrap();
        b.edge_with_capacity("B", "C", 2).unwrap();
        b.edge_with_capacity("A", "C", 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn disabled_mode_never_sends_dummies() {
        let g = fig2();
        let a = g.node_by_name("A").unwrap();
        let mut w = DummyWrapper::new(&g, a, &AvoidanceMode::Disabled);
        for _ in 0..100 {
            assert!(w.on_accept(false, |_| false).iter().all(|&d| !d));
        }
    }

    #[test]
    fn interval_counter_triggers_dummies_on_filtered_channel() {
        let g = fig2();
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let mut w = DummyWrapper::new(&g, a, &AvoidanceMode::plan(plan.clone()));
        let ac_interval = plan
            .interval(g.edge_by_names("A", "C").unwrap())
            .finite()
            .unwrap();
        // Keep sending data on A->B but filtering A->C; after `ac_interval`
        // accepted inputs a dummy is due on A->C (out index 1) and nothing
        // ever fires on A->B.
        let mut fired_at = None;
        for step in 1..=ac_interval + 1 {
            let dummies = w.on_accept(false, |i| i == 0);
            assert!(!dummies[0], "data-carrying channel stays silent");
            if dummies[1] {
                fired_at = Some(step);
                break;
            }
        }
        assert_eq!(fired_at, Some(ac_interval));
        // The counter resets after the dummy.
        let dummies = w.on_accept(false, |i| i == 0);
        assert!(!dummies[1]);
    }

    #[test]
    fn propagation_forwards_consumed_dummies() {
        let g = fig2();
        let b = g.node_by_name("B").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let mut w = DummyWrapper::new(&g, b, &AvoidanceMode::plan(plan));
        // B consumed a dummy and produces no data: it must forward a dummy
        // even though its own interval is infinite.
        let dummies = w.on_accept(true, |_| false);
        assert_eq!(dummies, &[true]);
        // Without a consumed dummy, B's infinite interval sends nothing.
        let dummies = w.on_accept(false, |_| false);
        assert_eq!(dummies, &[false]);
    }

    #[test]
    fn nonpropagation_does_not_forward() {
        let g = fig2();
        let b = g.node_by_name("B").unwrap();
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let mut w = DummyWrapper::new(&g, b, &AvoidanceMode::plan(plan.clone()));
        // Consuming a dummy does not force forwarding under Non-Propagation;
        // only B's own finite interval (if any) matters.
        let bc = g.edge_by_names("B", "C").unwrap();
        let expect_dummy = plan.interval(bc) == DummyInterval::Finite(1);
        let dummies = w.on_accept(true, |_| false);
        assert_eq!(dummies, &[expect_dummy]);
    }

    #[test]
    fn nonpropagation_data_resets_gap_counter() {
        let g = fig2();
        let a = g.node_by_name("A").unwrap();
        // Hand-made plan with interval 3 on both outputs.
        let mut m = IntervalMap::for_graph(&g);
        for e in g.out_edges(a) {
            m.set(*e, DummyInterval::Finite(3));
        }
        let plan = AvoidancePlan::new(&g, Algorithm::NonPropagation, m);
        let mut w = DummyWrapper::new(&g, a, &AvoidanceMode::plan(plan));
        // Filter twice, send data, filter twice more: no dummy yet (counter
        // reset by the data message), then one more filtered input fires it.
        assert!(!w.on_accept(false, |i| i == 1)[0]);
        assert!(!w.on_accept(false, |i| i == 1)[0]);
        assert!(!w.on_accept(false, |_| true)[0]);
        assert!(!w.on_accept(false, |i| i == 1)[0]);
        assert!(!w.on_accept(false, |i| i == 1)[0]);
        assert!(w.on_accept(false, |i| i == 1)[0]);
    }

    #[test]
    fn dummy_run_arithmetic_matches_scalar_calls() {
        // One run-level call must leave the counters and emissions exactly
        // where n scalar on_accept(true, no-data) calls would.
        let g = fig2();
        let a = g.node_by_name("A").unwrap();
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            for threshold in [2u64, 3, 7] {
                let mut m = IntervalMap::for_graph(&g);
                for e in g.out_edges(a) {
                    m.set(*e, DummyInterval::Finite(threshold));
                }
                let plan = AvoidancePlan::new(&g, algorithm, m);
                let mode = AvoidanceMode::plan(plan);
                for warmup in 0..threshold {
                    for n in [1u64, 2, 5, 16] {
                        let mut scalar = DummyWrapper::new(&g, a, &mode);
                        let mut run = DummyWrapper::new(&g, a, &mode);
                        // Build a non-zero starting gap (warmup < threshold,
                        // so nothing fires yet).
                        for _ in 0..warmup {
                            scalar.on_accept(false, |_| false);
                            run.on_accept(false, |_| false);
                        }
                        let mut want: Vec<Vec<u64>> =
                            vec![Vec::new(); scalar.outputs()];
                        for k in 0..n {
                            let d = scalar.on_accept(true, |_| false).to_vec();
                            for (i, &fire) in d.iter().enumerate() {
                                if fire {
                                    want[i].push(k);
                                }
                            }
                        }
                        let mut got: Vec<Vec<u64>> = vec![Vec::new(); run.outputs()];
                        run.on_accept_dummy_run(n, |i, rd| match rd {
                            RunDummies::None => {}
                            RunDummies::All => got[i].extend(0..n),
                            RunDummies::Periodic { first, period } => {
                                let mut p = first;
                                while p < n {
                                    got[i].push(p);
                                    p += period;
                                }
                            }
                        });
                        assert_eq!(
                            got, want,
                            "{algorithm}: threshold={threshold} warmup={warmup} n={n}"
                        );
                        assert_eq!(
                            run.gaps(),
                            scalar.gaps(),
                            "{algorithm}: threshold={threshold} warmup={warmup} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn data_run_arithmetic_matches_scalar_calls() {
        // One run-level call must leave the counters exactly where n scalar
        // on_accept(no dummy, data everywhere) calls would, having sent what
        // they send: nothing.
        let g = fig2();
        let a = g.node_by_name("A").unwrap();
        for algorithm in [None, Some(Algorithm::NonPropagation), Some(Algorithm::Propagation)] {
            for threshold in [Some(1u64), Some(2), Some(3), Some(7), None] {
                let mode = match algorithm {
                    None => AvoidanceMode::Disabled,
                    Some(algorithm) => {
                        let mut m = IntervalMap::for_graph(&g);
                        if let Some(t) = threshold {
                            for e in g.out_edges(a) {
                                m.set(*e, DummyInterval::Finite(t));
                            }
                        }
                        AvoidanceMode::plan(AvoidancePlan::new(&g, algorithm, m))
                    }
                };
                for warmup in 0..threshold.unwrap_or(9) {
                    for n in [1u64, 2, 5, 64] {
                        let case =
                            format!("{algorithm:?}: threshold={threshold:?} warmup={warmup} n={n}");
                        let mut scalar = DummyWrapper::new(&g, a, &mode);
                        // Build a non-zero starting gap (warmup < threshold,
                        // so nothing fires yet).
                        for _ in 0..warmup {
                            assert!(scalar.on_accept(false, |_| false).iter().all(|&d| !d));
                        }
                        let mut run = scalar.clone();
                        run.on_accept_data_run(n);
                        for _ in 0..n {
                            let sent = scalar.on_accept(false, |_| true);
                            assert!(sent.iter().all(|&d| !d), "{case}: no dummy beside data");
                        }
                        assert_eq!(run.gaps(), scalar.gaps(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn dummy_run_in_disabled_mode_is_inert() {
        let g = fig2();
        let a = g.node_by_name("A").unwrap();
        let mut w = DummyWrapper::new(&g, a, &AvoidanceMode::Disabled);
        w.on_accept_dummy_run(10, |_, _| panic!("disabled mode must emit nothing"));
        assert!(w.gaps().iter().all(|&g| g == 0));
    }

    #[test]
    fn infinite_intervals_never_fire() {
        let g = fig2();
        let b = g.node_by_name("B").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        // B -> C never lies first on a cycle branch out of a fork, so its
        // interval is infinite and no dummy is emitted.
        let mut w = DummyWrapper::new(&g, b, &AvoidanceMode::plan(plan));
        for _ in 0..1000 {
            assert_eq!(w.on_accept(false, |_| true), &[false]);
        }
    }
}
