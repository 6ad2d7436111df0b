//! The node behaviour interface: where application filtering logic lives.
//!
//! In the paper's model (§II.A) a node accepts input `i` once every input
//! channel's head has sequence number ≥ `i`; the messages with sequence `i`
//! are consumed together and may produce messages with sequence `i` on *any
//! subset* of the node's output channels — that subset is the node's
//! (possibly data-dependent) filtering decision, and it is exactly what a
//! [`NodeBehavior`] writes.

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

/// Application logic of one compute node.
///
/// Behaviours are created per execution (via [`crate::topology::Program::behavior`]),
/// so they may carry mutable state such as RNGs, windows, or counters.
pub trait NodeBehavior: Send {
    /// Called once per accepted sequence number, in increasing order, with
    /// `emit` holding one slot per output channel (in the graph's
    /// `out_edges` order), every slot `None`.  The behaviour writes the
    /// payload to send on each channel it forwards the input to; a slot it
    /// leaves `None` filters the input with respect to that channel.
    ///
    /// * Source nodes are fired for every offered input sequence number with
    ///   an empty `data_in`.
    /// * Interior and sink nodes are fired whenever they consume a sequence
    ///   number for which at least one input channel contributed a data
    ///   message.  Sequence numbers consumed purely from dummies do not
    ///   reach the behaviour (the wrapper handles them).
    fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]);

    /// Fires a *run*: the data messages at the front of a single-input
    /// node's head container, which the pooled engine has already bounded
    /// to what it could accept one message at a time.  The scalar call is
    /// the length-1 case.
    ///
    /// The default steps through the run — [`NodeBehavior::fire`] once per
    /// sequence number, in increasing order — so closures and stateful
    /// behaviours see exactly the call sequence of a per-message engine.
    /// A stateless built-in overrides it where a run is arithmetic
    /// ([`crate::Broadcast`] relays it whole).  An override must make the
    /// decisions `fire` would make, in order, for every message it
    /// consumes, and leave no state the default loop would have advanced
    /// differently; whatever it cannot decide by arithmetic it steps.
    fn fire_run(&mut self, run: &mut DataRun<'_>) {
        run.step(|input, emit| self.fire(input, emit));
    }
}

impl<F> NodeBehavior for F
where
    F: FnMut(&FireInput<'_>, &mut [Option<Payload>]) + Send,
{
    fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        self(input, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_behaviours() {
        let mut count = 0u64;
        let mut behaviour = move |input: &FireInput<'_>, emit: &mut [Option<Payload>]| {
            count += 1;
            emit[0] = Some(input.seq + count);
        };
        let b: &mut dyn NodeBehavior = &mut behaviour;
        let mut emit = [None];
        b.fire(&FireInput { seq: 10, data_in: &[] }, &mut emit);
        assert_eq!(emit, [Some(11)]);
    }
}
