//! The node behaviour interface: where application filtering logic lives.
//!
//! In the paper's model (§II.A) a node accepts input `i` once every input
//! channel's head has sequence number ≥ `i`; the messages with sequence `i`
//! are consumed together and may produce messages with sequence `i` on *any
//! subset* of the node's output channels — that subset is the node's
//! (possibly data-dependent) filtering decision, and it is exactly what a
//! [`NodeBehavior`] implementation returns.

use crate::message::Payload;
pub use crate::task::DataRun;

/// What a node sees when it fires at a sequence number.
#[derive(Debug, Clone)]
pub struct FireInput<'a> {
    /// The sequence number being consumed.
    pub seq: u64,
    /// For each input channel (in the graph's `in_edges` order), the payload
    /// of the data message consumed at this sequence number, or `None` if
    /// the channel contributed no data (the producer filtered it, or only a
    /// dummy arrived).  Empty for source nodes.
    pub data_in: &'a [Option<Payload>],
}

impl FireInput<'_> {
    /// Number of input channels that contributed data.
    pub fn data_count(&self) -> usize {
        self.data_in.iter().filter(|d| d.is_some()).count()
    }

    /// True if at least one input channel contributed data (always false for
    /// sources, which have no inputs).
    pub fn has_data(&self) -> bool {
        self.data_count() > 0
    }
}

/// A node's filtering decision for one sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FireDecision {
    /// For each output channel (in the graph's `out_edges` order), the data
    /// payload to emit, or `None` to filter this input with respect to that
    /// channel.
    pub emit: Vec<Option<Payload>>,
}

impl FireDecision {
    /// Emits the same payload on every one of `n` output channels.
    pub fn broadcast(n: usize, payload: Payload) -> Self {
        FireDecision {
            emit: vec![Some(payload); n],
        }
    }

    /// Filters the input with respect to every one of `n` output channels.
    pub fn silence(n: usize) -> Self {
        FireDecision {
            emit: vec![None; n],
        }
    }

    /// Emits `payload` only on output channel `index` out of `n`.
    pub fn only(n: usize, index: usize, payload: Payload) -> Self {
        let mut emit = vec![None; n];
        emit[index] = Some(payload);
        FireDecision { emit }
    }

    /// Number of channels that receive data.
    pub fn emitted(&self) -> usize {
        self.emit.iter().filter(|e| e.is_some()).count()
    }
}

/// Application logic of one compute node.
///
/// Behaviours are created per execution (via [`crate::topology::Program::behavior`]),
/// so they may carry mutable state such as RNGs, windows, or counters.
pub trait NodeBehavior: Send {
    /// Called once per accepted sequence number, in increasing order.
    ///
    /// * Source nodes are fired for every offered input sequence number with
    ///   an empty `data_in`.
    /// * Interior and sink nodes are fired whenever they consume a sequence
    ///   number for which at least one input channel contributed a data
    ///   message.  Sequence numbers consumed purely from dummies do not
    ///   reach the behaviour (the wrapper handles them).
    fn fire(&mut self, input: &FireInput<'_>) -> FireDecision;

    /// Allocation-free variant of [`NodeBehavior::fire`]: writes the
    /// decision into `emit`, a scratch slice the engine pre-sizes to the
    /// node's output count and reuses across firings.
    ///
    /// The default delegates to `fire` (correct for any behaviour);
    /// deterministic built-ins override it to skip the per-firing `Vec`.  An
    /// override must produce exactly the decision `fire` would — the engines
    /// pick whichever entry point suits their hot path and the equivalence
    /// guarantees assume the two agree.
    fn fire_into(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        let d = self.fire(input);
        emit.copy_from_slice(&d.emit);
    }

    /// Fires a *run*: the data messages at the front of a single-input
    /// node's head container, which the pooled engine has already bounded
    /// to what it could accept one message at a time.  The scalar call is
    /// the length-1 case.
    ///
    /// The default steps through the run — [`NodeBehavior::fire_into`] once
    /// per sequence number, in increasing order — so closures and stateful
    /// behaviours see exactly the call sequence of a per-message engine.
    /// A stateless built-in overrides it where a run is arithmetic
    /// ([`crate::Broadcast`] relays it whole).  An override must make the
    /// decisions `fire_into` would make, in order, for every message it
    /// consumes, and leave no state the default loop would have advanced
    /// differently; whatever it cannot decide by arithmetic it steps.
    fn fire_run(&mut self, run: &mut DataRun<'_>) {
        run.step(|input, emit| self.fire_into(input, emit));
    }
}

impl<F> NodeBehavior for F
where
    F: FnMut(&FireInput<'_>) -> FireDecision + Send,
{
    fn fire(&mut self, input: &FireInput<'_>) -> FireDecision {
        self(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_input_counts_data() {
        let data = [Some(1), None, Some(3)];
        let input = FireInput { seq: 7, data_in: &data };
        assert_eq!(input.data_count(), 2);
        assert!(input.has_data());
        let empty: [Option<Payload>; 0] = [];
        let src = FireInput { seq: 0, data_in: &empty };
        assert!(!src.has_data());
    }

    #[test]
    fn decision_constructors() {
        assert_eq!(FireDecision::broadcast(3, 9).emitted(), 3);
        assert_eq!(FireDecision::silence(2).emitted(), 0);
        let only = FireDecision::only(3, 1, 5);
        assert_eq!(only.emitted(), 1);
        assert_eq!(only.emit[1], Some(5));
    }

    #[test]
    fn closures_are_behaviours() {
        let mut count = 0u64;
        let mut behaviour = move |input: &FireInput<'_>| {
            count += 1;
            FireDecision::broadcast(1, input.seq + count)
        };
        let b: &mut dyn NodeBehavior = &mut behaviour;
        let out = b.fire(&FireInput { seq: 10, data_in: &[] });
        assert_eq!(out.emit[0], Some(11));
    }
}
