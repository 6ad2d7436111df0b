//! Reusable node behaviours: broadcasters, filters, routers and collectors.
//!
//! These cover the behaviours used by the paper's motivating applications:
//! a split node that forwards a frame to a data-dependent subset of
//! recognisers, recognisers that only occasionally report success, and join
//! nodes that merge whatever arrives (§I, Fig. 1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::message::Payload;
use crate::node::{DataRun, FireDecision, FireInput, NodeBehavior};

/// Emits a data message on every output channel for every accepted input.
/// The payload is the sum of the input payloads (or the sequence number for
/// sources).
#[derive(Debug, Clone, Default)]
pub struct Broadcast {
    outputs: usize,
}

impl Broadcast {
    /// Creates a broadcaster for a node with `outputs` output channels.
    pub fn new(outputs: usize) -> Self {
        Broadcast { outputs }
    }
}

impl NodeBehavior for Broadcast {
    fn fire(&mut self, input: &FireInput<'_>) -> FireDecision {
        let payload = combined_payload(input);
        FireDecision::broadcast(self.outputs, payload)
    }

    fn fire_into(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
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
    outputs: usize,
    keep: f64,
    rng: StdRng,
}

impl Bernoulli {
    /// Creates a Bernoulli filter: each output keeps an input with
    /// probability `keep` (0.0 ..= 1.0).
    pub fn new(outputs: usize, keep: f64, seed: u64) -> Self {
        Bernoulli {
            outputs,
            keep,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl NodeBehavior for Bernoulli {
    fn fire(&mut self, input: &FireInput<'_>) -> FireDecision {
        let mut emit = vec![None; self.outputs];
        self.fire_into(input, &mut emit);
        FireDecision { emit }
    }

    /// One draw per output, in output order.
    fn fire_into(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
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
    outputs: usize,
    period: u64,
    phase: u64,
}

impl ModuloFilter {
    /// Creates a periodic filter.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(outputs: usize, period: u64, phase: u64) -> Self {
        assert!(period > 0, "period must be positive");
        ModuloFilter {
            outputs,
            period,
            phase: phase % period,
        }
    }
}

impl NodeBehavior for ModuloFilter {
    fn fire(&mut self, input: &FireInput<'_>) -> FireDecision {
        if input.seq % self.period == self.phase {
            FireDecision::broadcast(self.outputs, combined_payload(input))
        } else {
            FireDecision::silence(self.outputs)
        }
    }

    fn fire_into(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        if input.seq % self.period == self.phase {
            emit.fill(Some(combined_payload(input)));
        } else {
            emit.fill(None);
        }
    }
}

/// A split node that routes each accepted input to exactly one output,
/// cycling through its outputs round-robin by sequence number.
#[derive(Debug, Clone)]
pub struct RouteRoundRobin {
    outputs: usize,
}

impl RouteRoundRobin {
    /// Creates a round-robin router over `outputs` channels.
    pub fn new(outputs: usize) -> Self {
        assert!(outputs > 0, "router needs at least one output");
        RouteRoundRobin { outputs }
    }
}

impl NodeBehavior for RouteRoundRobin {
    fn fire(&mut self, input: &FireInput<'_>) -> FireDecision {
        let idx = (input.seq % self.outputs as u64) as usize;
        FireDecision::only(self.outputs, idx, combined_payload(input))
    }

    fn fire_into(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        emit.fill(None);
        emit[(input.seq % self.outputs as u64) as usize] = Some(combined_payload(input));
    }
}

/// A sink behaviour that accumulates the payloads it consumes; useful for
/// asserting end-to-end results in tests and examples.
#[derive(Debug, Clone, Default)]
pub struct Collector;

impl NodeBehavior for Collector {
    fn fire(&mut self, _input: &FireInput<'_>) -> FireDecision {
        FireDecision::silence(0)
    }

    fn fire_into(&mut self, _input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        emit.fill(None);
    }
}

/// A behaviour defined by an arbitrary emission predicate on (sequence,
/// output index).
pub struct Predicate<F> {
    outputs: usize,
    predicate: F,
}

impl<F> Predicate<F>
where
    F: FnMut(u64, usize) -> bool + Send,
{
    /// Creates a predicate filter over `outputs` channels.
    pub fn new(outputs: usize, predicate: F) -> Self {
        Predicate { outputs, predicate }
    }
}

impl<F> NodeBehavior for Predicate<F>
where
    F: FnMut(u64, usize) -> bool + Send,
{
    fn fire(&mut self, input: &FireInput<'_>) -> FireDecision {
        let payload = combined_payload(input);
        let emit = (0..self.outputs)
            .map(|i| (self.predicate)(input.seq, i).then_some(payload))
            .collect();
        FireDecision { emit }
    }

    fn fire_into(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
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

    fn source_input(seq: u64) -> FireInput<'static> {
        FireInput { seq, data_in: &[] }
    }

    #[test]
    fn broadcast_emits_everywhere() {
        let mut b = Broadcast::new(3);
        let d = b.fire(&source_input(5));
        assert_eq!(d.emitted(), 3);
        assert_eq!(d.emit[0], Some(5));
    }

    #[test]
    fn bernoulli_is_seed_deterministic_and_filters() {
        let run = |seed| {
            let mut f = Bernoulli::new(2, 0.5, seed);
            (0..100)
                .map(|s| f.fire(&source_input(s)).emitted())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        let emitted: usize = run(7).iter().sum();
        assert!(emitted > 20 && emitted < 180, "roughly half kept: {emitted}");
        // Extreme probabilities behave as expected.
        let mut never = Bernoulli::new(1, 0.0, 1);
        assert_eq!(never.fire(&source_input(0)).emitted(), 0);
        let mut always = Bernoulli::new(1, 1.0, 1);
        assert_eq!(always.fire(&source_input(0)).emitted(), 1);
    }

    #[test]
    fn bernoulli_entry_points_agree_draw_for_draw() {
        let (mut by_value, mut in_place) = (Bernoulli::new(3, 0.4, 11), Bernoulli::new(3, 0.4, 11));
        let mut emit = [None; 3];
        for seq in 0..500 {
            // Alternating entry points on one instance stay in step too.
            if seq % 2 == 0 {
                in_place.fire_into(&source_input(seq), &mut emit);
            } else {
                emit.copy_from_slice(&in_place.fire(&source_input(seq)).emit);
            }
            assert_eq!(by_value.fire(&source_input(seq)).emit, emit, "seq {seq}");
        }
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
                move |input: &FireInput<'_>| {
                    calls += 1;
                    log.lock().unwrap().push((calls, input.seq, input.data_in.to_vec()));
                    FireDecision::broadcast(1, input.seq)
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
        let mut f = ModuloFilter::new(1, 3, 1);
        let kept: Vec<u64> = (0..9)
            .filter(|&s| f.fire(&source_input(s)).emitted() > 0)
            .collect();
        assert_eq!(kept, vec![1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn modulo_filter_rejects_zero_period() {
        let _ = ModuloFilter::new(1, 0, 0);
    }

    #[test]
    fn round_robin_routes_by_sequence() {
        let mut r = RouteRoundRobin::new(3);
        for s in 0..6 {
            let d = r.fire(&source_input(s));
            assert_eq!(d.emitted(), 1);
            assert!(d.emit[(s % 3) as usize].is_some());
        }
    }

    #[test]
    fn predicate_filter_uses_output_index() {
        let mut p = Predicate::new(2, |seq, out| (seq + out as u64) % 2 == 0);
        let d = p.fire(&source_input(4));
        assert!(d.emit[0].is_some());
        assert!(d.emit[1].is_none());
    }

    #[test]
    fn collector_consumes_without_emitting() {
        let mut c = Collector;
        let data = [Some(3), Some(4)];
        let d = c.fire(&FireInput { seq: 0, data_in: &data });
        assert_eq!(d.emitted(), 0);
    }

    #[test]
    fn combined_payload_sums_inputs() {
        let data = [Some(3), None, Some(4)];
        let input = FireInput { seq: 9, data_in: &data };
        let mut b = Broadcast::new(1);
        assert_eq!(b.fire(&input).emit[0], Some(7));
    }
}
