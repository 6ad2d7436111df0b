//! Exact steady-state fast-forward of a worklist run (DESIGN.md
//! "Steady-state fast-forward (E25)").
//!
//! Under a firing rule that is periodic in the sequence number, a run's
//! complete state — node state plus in-flight channel contents plus the
//! ready queue — recurs after the fill transient, shifted by `P` sequence
//! numbers.  `step` only compares sequence numbers with each other, hands
//! them to the rule, and tests a source cursor against `inputs`, so the run
//! from a shifted state *is* the shifted run until a source would pass
//! `inputs`: [`SteadyState`] finds one such recurrence by full comparison
//! (no hashing) and applies the remaining whole repetitions arithmetically.
//! Nothing is approximated — a run that does not recur is stepped in full.

use fila_graph::{Graph, NodeId};

use super::engine::Engine;
use super::message::Message;

/// The one fast-forward of a run: at the checkpoint where the anchor source
/// was about to emit `at`, the state equalled the one saved `shift` inputs
/// earlier, and `skipped` more copies of that stretch were applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Skip {
    /// The anchor source's cursor when the recurrence was found.
    pub at: u64,
    /// Sequence numbers per repetition (a multiple of the rule's period).
    pub shift: u64,
    /// Whole repetitions skipped (`shift · skipped` inputs per source).
    pub skipped: u64,
}

/// Observer for [`Engine::run_worklist_observed`].  Checkpoints are the
/// turns of the lowest-id source at which it is about to emit a sequence
/// number `≡ 0` modulo the rule's period — one phase of the schedule, so
/// equal states there have equal futures.  One [`Engine`] clone is kept,
/// refreshed at checkpoint counts 1, 2, 4, … (Brent's cycle detection).
#[derive(Debug)]
pub struct SteadyState<'g> {
    /// `None` once the skip is done, or when the period rules one out.
    anchor: Option<NodeId>,
    period: u64,
    checkpoints: u64,
    saved: Option<Engine<'g>>,
    skip: Option<Skip>,
}

impl<'g> SteadyState<'g> {
    /// An observer for a run over `graph` offering `inputs` sequence numbers
    /// whose firing rule, as a function of the sequence number, has every
    /// one of `periods` as a period (none: the rule ignores it).  Their lcm
    /// is the checkpoint spacing; beyond `inputs` nothing can recur.
    pub fn new(graph: &Graph, periods: &[u64], inputs: u64) -> Self {
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let period = periods.iter().try_fold(1u64, |lcm, &p| {
            let p = p.max(1);
            (lcm / gcd(lcm, p)).checked_mul(p).filter(|&l| l <= inputs)
        });
        SteadyState {
            anchor: period.and(graph.sources().first().copied()),
            period: period.unwrap_or(1),
            checkpoints: 0,
            saved: None,
            skip: None,
        }
    }

    /// What was skipped, once a recurrence has been found.
    pub fn skip(&self) -> Option<Skip> {
        self.skip
    }

    /// The hook: `node` is about to take its turn in a run bounded by `step_bound`.
    #[inline]
    pub fn observe(&mut self, engine: &mut Engine<'g>, node: NodeId, step_bound: u64) {
        if self.anchor == Some(node) {
            self.checkpoint(engine, node, step_bound);
        }
    }

    fn checkpoint(&mut self, engine: &mut Engine<'g>, node: NodeId, step_bound: u64) {
        let source = &engine.nodes[node.index()];
        let at = source.next_source_seq;
        if source.pending > 0 || at >= engine.inputs || at % self.period != 0 {
            return;
        }
        self.checkpoints += 1;
        if let Some(earlier) = &self.saved {
            let shift = at - earlier.nodes[node.index()].next_source_seq;
            if engine.is_shift_of(earlier, shift) {
                let skipped = engine.repeat_since(earlier, shift, step_bound);
                self.skip = Some(Skip { at, shift, skipped });
                self.anchor = None;
                self.saved = None;
                return;
            }
        }
        if self.checkpoints.is_power_of_two() {
            self.saved = Some(engine.clone());
        }
    }
}

impl<'g> Engine<'g> {
    /// Whether this state is `earlier` with every sequence number — in
    /// flight, pending, every source's cursor — advanced by `shift`, and all
    /// else that decides future turns equal: ready queue, gap counters,
    /// progress flags.  The tallies (`steps`, counts, firings) decide
    /// nothing and are not compared; the per-turn scratch is dead between
    /// turns.
    fn is_shift_of(&self, earlier: &Engine<'g>, shift: u64) -> bool {
        let later = |m: &Message| m.shifted(shift);
        let mut nodes = self.nodes.iter().zip(&earlier.nodes);
        let mut channels = self.channels.iter().zip(&earlier.channels);
        let pending = earlier.pending.iter().map(|m| m.as_ref().map(later));
        self.ready == earlier.ready
            && self.gaps == earlier.gaps
            && nodes.all(|(now, then)| {
                let advance = if now.ins.0 == now.ins.1 { shift } else { 0 };
                now.next_source_seq == then.next_source_seq + advance
                    && (now.eos_queued, now.done) == (then.eos_queued, then.done)
            })
            && self.pending.iter().copied().eq(pending)
            && channels.all(|(now, then)| {
                now.len() == then.len() && now.iter().copied().eq(then.iter().map(later))
            })
    }

    /// Given `self.is_shift_of(earlier, shift)` under a rule of period
    /// dividing `shift`: applies as many further repetitions `k` of the
    /// stretch `earlier → self` as keep every source within `inputs` and
    /// `steps` below `step_bound` (so the bound is still met by stepping),
    /// and returns `k`.  Sequence numbers advance by `k · shift`, every
    /// tally by `k ×` what the stretch added.
    fn repeat_since(&mut self, earlier: &Engine<'g>, shift: u64, step_bound: u64) -> u64 {
        let by_steps = step_bound.saturating_sub(1).saturating_sub(self.steps)
            / (self.steps - earlier.steps).max(1);
        let k = (self.graph().sources().iter())
            .map(|n| (self.inputs - self.nodes[n.index()].next_source_seq) / shift)
            .fold(by_steps, u64::min);
        let repeat = |now: &mut u64, then: u64| *now += k * (*now - then);
        for (now, then) in self.nodes.iter_mut().zip(&earlier.nodes) {
            repeat(&mut now.next_source_seq, then.next_source_seq);
            repeat(&mut now.firings, then.firings);
            repeat(&mut now.sink_firings, then.sink_firings);
        }
        let in_flight = self.channels.iter_mut().flatten();
        for m in in_flight.chain(self.pending.iter_mut().flatten()) {
            *m = m.shifted(k * shift);
        }
        let data = self.per_edge_data.iter_mut().zip(&earlier.per_edge_data);
        let dummies = self
            .per_edge_dummies
            .iter_mut()
            .zip(&earlier.per_edge_dummies);
        data.chain(dummies)
            .for_each(|(now, &then)| repeat(now, then));
        repeat(&mut self.sink_firings, earlier.sink_firings);
        repeat(&mut self.steps, earlier.steps);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AvoidanceMode, Payload};
    use crate::plan::{Algorithm, AvoidancePlan};
    use crate::{DummyInterval, IntervalMap};
    use fila_graph::GraphBuilder;

    /// A diamond whose fork sends data on its first output only, under a
    /// tight Non-Propagation plan: dummies, pending outputs and a ready
    /// queue with several entries are all live mid-run.
    fn diamond() -> (Graph, AvoidanceMode) {
        let mut b = GraphBuilder::new().default_capacity(2);
        b.edge("s", "l").unwrap();
        b.edge("s", "r").unwrap();
        b.edge("l", "t").unwrap();
        b.edge("r", "t").unwrap();
        let g = b.build().unwrap();
        let mut intervals = IntervalMap::for_graph(&g);
        for e in g.edge_ids() {
            intervals.set(e, DummyInterval::Finite(3));
        }
        let plan = AvoidancePlan::new(&g, Algorithm::NonPropagation, intervals);
        (g, AvoidanceMode::plan(plan))
    }

    fn first_output_only(_: NodeId, _: u64, _: &[Option<Payload>], emit: &mut [Option<Payload>]) {
        for (j, slot) in emit.iter_mut().enumerate() {
            *slot = (j == 0).then_some(0);
        }
    }

    /// The diamond stopped after `steps` steps, with `inputs` offered.
    fn stopped_at<'g>(g: &'g Graph, mode: &AvoidanceMode, steps: u64) -> Engine<'g> {
        let mut engine = Engine::new(g, mode, 40);
        engine.run_worklist(&mut first_output_only, steps, false);
        engine
    }

    #[test]
    fn a_state_is_its_own_shift_by_zero_and_one_changed_field_breaks_it() {
        let (g, mode) = diamond();
        // Find a cut with a pending output and two queued nodes.
        let base = (1..200)
            .map(|steps| stopped_at(&g, &mode, steps))
            .find(|e| e.ready.len() >= 2 && e.nodes.iter().any(|n| n.pending > 0))
            .expect("some cut has pending output and a two-entry queue");
        assert!(base.is_shift_of(&base.clone(), 0));

        let mut queue_order = base.clone();
        queue_order.ready.swap(0, 1);
        assert!(!queue_order.is_shift_of(&base, 0));

        let mut gap = base.clone();
        gap.gaps_mut(NodeId::from_raw(0))[1] += 1;
        assert!(!gap.is_shift_of(&base, 0));

        // A pending message shifted, or pending on another channel.
        let mut pending = base.clone();
        let at = pending.pending.iter().position(Option::is_some).unwrap();
        let message = pending.pending[at].unwrap();
        pending.pending[at] = Some(message.shifted(1));
        assert!(!pending.is_shift_of(&base, 0));
        let free = pending.pending.iter().position(Option::is_none).unwrap();
        pending.pending[at] = None;
        pending.pending[free] = Some(message);
        assert!(!pending.is_shift_of(&base, 0));

        let mut in_flight = base.clone();
        let channel = in_flight
            .channels
            .iter_mut()
            .find(|c| !c.is_empty())
            .unwrap();
        channel[0] = channel[0].shifted(1);
        assert!(!in_flight.is_shift_of(&base, 0));

        let mut flag = base.clone();
        flag.nodes[3].eos_queued = true;
        assert!(!flag.is_shift_of(&base, 0));

        // The tallies decide nothing about the future and are not compared.
        let mut tallies = base.clone();
        tallies.steps += 7;
        tallies.per_edge_dummies[0] += 1;
        tallies.nodes[1].firings += 1;
        assert!(tallies.is_shift_of(&base, 0));
    }

    #[test]
    fn shift_equality_demands_the_same_shift_everywhere() {
        let (g, mode) = diamond();
        let base = stopped_at(&g, &mode, 37);
        let shifted_by = |by: u64| {
            let mut later = base.clone();
            later.nodes[0].next_source_seq += by;
            for m in later.channels.iter_mut().flatten() {
                *m = m.shifted(by);
            }
            for m in later.pending.iter_mut().flatten() {
                *m = m.shifted(by);
            }
            later
        };
        let later = shifted_by(6);
        assert!(later.is_shift_of(&base, 6));
        assert!(!later.is_shift_of(&base, 5));
        assert!(!base.is_shift_of(&later, 6));
        // One in-flight message that did not move with the rest.
        let mut straggler = shifted_by(6);
        let channel = straggler
            .channels
            .iter_mut()
            .find(|c| !c.is_empty())
            .unwrap();
        channel[0] = channel[0].shifted(1);
        assert!(!straggler.is_shift_of(&base, 6));
        // A non-source "cursor" must not move at all.
        let mut interior = shifted_by(6);
        interior.nodes[1].next_source_seq = 6;
        assert!(!interior.is_shift_of(&base, 6));
    }

    #[test]
    fn the_checkpoint_spacing_is_the_lcm_of_the_periods_or_nothing() {
        let (g, _) = diamond();
        assert_eq!(SteadyState::new(&g, &[], 100).period, 1);
        assert_eq!(SteadyState::new(&g, &[0, 1, 4, 6], 100).period, 12);
        let too_long = SteadyState::new(&g, &[7, 11, 13, 1], 1000);
        assert!(too_long.anchor.is_none(), "lcm 1001 > 1000 inputs");
        assert!(SteadyState::new(&g, &[7, 11, 13, 1], 1001).anchor.is_some());
        assert!(SteadyState::new(&g, &[u64::MAX, u64::MAX - 1], u64::MAX)
            .anchor
            .is_none());
    }
}
