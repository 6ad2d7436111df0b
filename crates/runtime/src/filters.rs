//! Reusable node behaviours: the default broadcast and three filters.
//!
//! These cover the behaviours used by the paper's motivating applications:
//! a split node that forwards a frame to every recogniser, recognisers that
//! only occasionally report success, and a fork that forwards to a
//! data-dependent subset of its outputs (§I, Fig. 1).  Each writes its
//! decision into the slice the engine hands it, so none needs to know its
//! output count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::message::Payload;
use crate::node::{DataRun, FireInput, NodeBehavior};

/// Emits a data message on every output channel for every accepted input.
/// The payload is the sum of the input payloads (or the sequence number for
/// sources).  Every node without a behaviour of its own runs this one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Broadcast;

impl NodeBehavior for Broadcast {
    fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        emit.fill(Some(combined_payload(input)));
    }

    /// On one input the decision is the same `(seq, payload)` on every
    /// output: the run is relayed whole.
    fn fire_run(&mut self, run: &mut DataRun<'_>) {
        run.relay();
    }
}

/// Independently filters each output channel with a fixed drop probability:
/// with probability `keep` the input is forwarded, otherwise it is filtered.
/// Deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct Bernoulli {
    keep: f64,
    rng: StdRng,
}

impl Bernoulli {
    /// Creates a Bernoulli filter: each output keeps an input with
    /// probability `keep` (0.0 ..= 1.0).
    pub fn new(keep: f64, seed: u64) -> Self {
        Bernoulli {
            keep,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl NodeBehavior for Bernoulli {
    /// One draw per output, in output order.
    fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        let payload = combined_payload(input);
        let keep = self.keep.clamp(0.0, 1.0);
        for slot in emit.iter_mut() {
            *slot = self.rng.gen_bool(keep).then_some(payload);
        }
    }
}

/// Deterministic periodic filter: forwards an input to every output iff
/// `seq % period == phase`.  With `period = 1` it never filters.
#[derive(Debug, Clone)]
pub struct ModuloFilter {
    period: u64,
    phase: u64,
}

impl ModuloFilter {
    /// Creates a periodic filter.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, phase: u64) -> Self {
        assert!(period > 0, "period must be positive");
        ModuloFilter {
            period,
            phase: phase % period,
        }
    }
}

impl NodeBehavior for ModuloFilter {
    fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        if input.seq % self.period == self.phase {
            emit.fill(Some(combined_payload(input)));
        }
    }
}

/// A behaviour defined by an arbitrary emission predicate on (sequence,
/// output index).
pub struct Predicate<F> {
    predicate: F,
}

impl<F> Predicate<F>
where
    F: FnMut(u64, usize) -> bool + Send,
{
    /// Creates a predicate filter: output `j` carries sequence number `s`
    /// iff `predicate(s, j)`.
    pub fn new(predicate: F) -> Self {
        Predicate { predicate }
    }
}

impl<F> NodeBehavior for Predicate<F>
where
    F: FnMut(u64, usize) -> bool + Send,
{
    fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        let payload = combined_payload(input);
        for (i, slot) in emit.iter_mut().enumerate() {
            *slot = (self.predicate)(input.seq, i).then_some(payload);
        }
    }
}

fn combined_payload(input: &FireInput<'_>) -> u64 {
    let sum: u64 = input
        .data_in
        .iter()
        .filter_map(|d| *d)
        .fold(0u64, u64::wrapping_add);
    if input.data_in.is_empty() {
        input.seq
    } else {
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `b`'s decision on `seq` as a source with `outputs` outputs.
    fn fired(b: &mut impl NodeBehavior, outputs: usize, seq: u64) -> Vec<Option<Payload>> {
        let mut emit = vec![None; outputs];
        b.fire(&FireInput { seq, data_in: &[] }, &mut emit);
        emit
    }

    fn emitted(b: &mut impl NodeBehavior, outputs: usize, seq: u64) -> usize {
        fired(b, outputs, seq).iter().flatten().count()
    }

    #[test]
    fn broadcast_emits_everywhere() {
        assert_eq!(fired(&mut Broadcast, 3, 5), [Some(5); 3]);
    }

    #[test]
    fn bernoulli_is_seed_deterministic_and_filters() {
        let run = |seed| {
            let mut f = Bernoulli::new(0.5, seed);
            (0..100).map(|s| emitted(&mut f, 2, s)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        let emitted_total: usize = run(7).iter().sum();
        assert!(
            emitted_total > 20 && emitted_total < 180,
            "roughly half kept: {emitted_total}"
        );
        // Extreme probabilities behave as expected.
        assert_eq!(emitted(&mut Bernoulli::new(0.0, 1), 1, 0), 0);
        assert_eq!(emitted(&mut Bernoulli::new(1.0, 1), 1, 0), 1);
    }

    #[test]
    fn a_stateful_behaviour_sees_the_scalar_call_sequence_on_deep_buffers() {
        // Runs of up to 64 messages reach the middle node at once; the
        // default `fire_run` must still hand them over one by one, every
        // sequence number once, in increasing order.
        use crate::{PoolOptions, SharedPool, Topology};
        use std::sync::{Arc, Mutex};
        let mut b = fila_graph::GraphBuilder::new().default_capacity(128);
        b.chain(&["a", "b", "c", "d"]).unwrap();
        let g = b.build().unwrap();
        for batch in [1, 64] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&seen);
            let topo = Topology::from_graph(&g).with(g.node_by_name("c").unwrap(), move || {
                let log = Arc::clone(&log);
                let mut calls = 0u64;
                move |input: &FireInput<'_>, emit: &mut [Option<Payload>]| {
                    calls += 1;
                    log.lock().unwrap().push((calls, input.seq, input.data_in.to_vec()));
                    emit[0] = Some(input.seq);
                }
            });
            let pool = SharedPool::with(PoolOptions {
                workers: 2,
                batch,
                ..PoolOptions::default()
            });
            let report = pool.submit(&topo, 1_000).wait();
            assert!(report.completed, "batch {batch}");
            let want: Vec<_> = (0..1_000).map(|s| (s + 1, s, vec![Some(s)])).collect();
            assert_eq!(*seen.lock().unwrap(), want, "batch {batch}");
        }
    }

    #[test]
    fn modulo_filter_period() {
        let mut f = ModuloFilter::new(3, 1);
        let kept: Vec<u64> = (0..9).filter(|&s| emitted(&mut f, 1, s) > 0).collect();
        assert_eq!(kept, vec![1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn modulo_filter_rejects_zero_period() {
        let _ = ModuloFilter::new(0, 0);
    }

    #[test]
    fn predicate_filter_uses_output_index() {
        let mut p = Predicate::new(|seq, out| (seq + out as u64) % 2 == 0);
        assert_eq!(fired(&mut p, 2, 4), [Some(4), None]);
    }

    #[test]
    fn combined_payload_sums_inputs() {
        let data = [Some(3), None, Some(4)];
        let mut emit = [None];
        Broadcast.fire(&FireInput { seq: 9, data_in: &data }, &mut emit);
        assert_eq!(emit, [Some(7)]);
    }
}
