//! The scalar step of the model and its deterministic scheduler.
//!
//! [`Engine`] holds one run's state — a `VecDeque` per channel, and per node
//! a [`DummyWrapper`], the pending (produced, undelivered) outputs and the
//! progress flags — and defines the one thing every engine in the workspace
//! must agree with: what happens when a node is given a turn (`step`).  The
//! firing decision itself is not part of the model; callers pass it in as a
//! closure (static dispatch, filling a scratch slice), which is the whole
//! difference between `fila_runtime::Simulator` (real node behaviours) and
//! certification's model check (a periodic or adversarial emission rule).
//!
//! [`Engine::run_worklist`] drives the step: a ready queue fed by channel
//! events (a step records the channels it made non-empty or non-full; their
//! consumers and producers are the only nodes it can have unblocked), so a
//! step costs `O(degree)` and deadlock is exactly "queue empty, some node
//! unfinished".  [`Engine::run_worklist_observed`] is the same loop with a
//! hook between turns.  It is the workspace's reference schedule.
//! Deterministic firing makes the network confluent, so every other fair
//! schedule — the pooled engine's included — reaches the same terminal
//! state; only `steps` depends on the schedule.

use std::collections::VecDeque;

use fila_graph::{EdgeId, Graph, NodeId};

use super::message::{Message, Payload};
use super::wrapper::{AvoidanceMode, DummyWrapper};

/// The periodic filtering convention: output `out` of a node with filter
/// period `period` carries sequence number `seq` iff `(seq + out) % period
/// == 0` (1 = broadcast; 0 is read as 1).  The firing decision is the
/// caller's, but this one is the contract between what certification's
/// declared run checks ([`crate::verify::certify_plan`]) and what a job
/// declaring those periods executes, so both call it here.
#[inline]
pub fn periodic_emits(period: u64, seq: u64, out: usize) -> bool {
    (seq + out as u64) % period.max(1) == 0
}

/// The model state of one node.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// The node's dummy-interval gap counters.
    pub wrapper: DummyWrapper,
    /// Outputs produced but not yet delivered, in production order.
    pub pending: VecDeque<(EdgeId, Message)>,
    /// Next sequence number this node emits if it is a source.
    pub next_source_seq: u64,
    /// The node has produced its end-of-stream markers.
    pub eos_queued: bool,
    /// End-of-stream produced *and* delivered: the node never steps again.
    pub done: bool,
    /// Firings so far (source emissions + data-bearing acceptances).
    pub firings: u64,
    /// Data-bearing acceptances so far, if the node is a sink.
    pub sink_firings: u64,
}

/// How a scheduler run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// Every node reached end-of-stream.
    Completed,
    /// No node can progress and some are unfinished (exact).
    Deadlocked,
    /// The step bound was reached first; the state is a consistent cut
    /// (runs stop *between* steps) and can be driven further.
    StepBound,
}

/// One run of the scalar model over `graph` (see the module docs).
///
/// The state is public so a driver can capture it between steps and
/// transplant a captured state back in (checkpoint/restore); every vector is
/// indexed by node or edge id and must keep the graph's length.
#[derive(Debug, Clone)]
pub struct Engine<'g> {
    graph: &'g Graph,
    capacities: Vec<usize>,
    /// Sequence numbers offered at every source.
    pub inputs: u64,
    /// In-flight messages per channel.
    pub channels: Vec<VecDeque<Message>>,
    /// Per-node state.
    pub nodes: Vec<NodeState>,
    /// Data messages delivered per channel.
    pub per_edge_data: Vec<u64>,
    /// Dummy messages delivered per channel.
    pub per_edge_dummies: Vec<u64>,
    /// Data-bearing acceptances at sinks, summed over nodes.
    pub sink_firings: u64,
    /// Productive steps taken so far.
    pub steps: u64,
    /// Per-firing scratch (sized to the largest in-degree): consumed
    /// payload per input channel.
    data_in: Vec<Option<Payload>>,
    /// Per-firing scratch (sized to the largest out-degree): the firing
    /// decision per output channel, meaningful only for a step that fired.
    emit: Vec<Option<Payload>>,
    /// Per-firing scratch: the wrapper's dummy decision per output channel.
    dummies: Vec<bool>,
    /// Channels the current step made non-empty (consumers may be unblocked).
    filled: Vec<EdgeId>,
    /// Channels the current step made non-full (producers may be unblocked).
    drained: Vec<EdgeId>,
    /// The worklist scheduler's ready queue, in turn order.  Part of the
    /// state: with everything else equal, it decides the schedule from here.
    pub(super) ready: VecDeque<NodeId>,
    /// Membership flags of `ready` (a function of it).
    in_ready: Vec<bool>,
}

impl<'g> Engine<'g> {
    /// A fresh run offering `inputs` sequence numbers at every source.
    pub fn new(graph: &'g Graph, mode: &AvoidanceMode, inputs: u64) -> Self {
        let widest = |degree: fn(&Graph, NodeId) -> usize| {
            graph
                .node_ids()
                .map(|n| degree(graph, n))
                .max()
                .unwrap_or(0)
        };
        Engine {
            graph,
            inputs,
            capacities: graph
                .edge_ids()
                .map(|e| graph.capacity(e) as usize)
                .collect(),
            channels: vec![VecDeque::new(); graph.edge_count()],
            nodes: graph
                .node_ids()
                .map(|n| NodeState {
                    wrapper: DummyWrapper::new(graph, n, mode),
                    pending: VecDeque::new(),
                    next_source_seq: 0,
                    eos_queued: false,
                    done: false,
                    firings: 0,
                    sink_firings: 0,
                })
                .collect(),
            per_edge_data: vec![0; graph.edge_count()],
            per_edge_dummies: vec![0; graph.edge_count()],
            sink_firings: 0,
            steps: 0,
            data_in: vec![None; widest(Graph::in_degree)],
            emit: vec![None; widest(Graph::out_degree)],
            dummies: Vec::new(),
            filled: Vec::new(),
            drained: Vec::new(),
            ready: VecDeque::with_capacity(graph.node_count()),
            in_ready: vec![false; graph.node_count()],
        }
    }

    /// The graph this run executes on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Event-driven scheduler.  Invariant: any node that may be able to
    /// progress is in the queue, so an empty queue with unfinished nodes is
    /// exactly a deadlock.  A fresh run seeds the sources (all channels are
    /// empty, nothing else can move); `seed_all` seeds every unfinished node
    /// instead, for a transplanted state that may hold consumable messages
    /// anywhere.  Stops before the step that would exceed `step_bound`.
    pub fn run_worklist<F>(&mut self, fire: &mut F, step_bound: u64, seed_all: bool) -> Halt
    where
        F: FnMut(NodeId, u64, &[Option<Payload>], &mut [Option<Payload>]),
    {
        self.run_worklist_observed(fire, step_bound, seed_all, |_, _| {})
    }

    /// [`Engine::run_worklist`] with a hook: `observe` is called for each
    /// node taken off the ready queue, before its turn.  Between turns the
    /// public state plus the ready queue is the complete state of the run,
    /// which is what [`super::SteadyState`] compares and rewrites there.
    pub fn run_worklist_observed<F, O>(
        &mut self,
        fire: &mut F,
        step_bound: u64,
        seed_all: bool,
        mut observe: O,
    ) -> Halt
    where
        F: FnMut(NodeId, u64, &[Option<Payload>], &mut [Option<Payload>]),
        O: FnMut(&mut Self, NodeId),
    {
        let g = self.graph;
        self.ready.clear();
        self.in_ready.fill(false);
        for n in g.node_ids() {
            if seed_all || g.in_degree(n) == 0 {
                self.wake(n);
            }
        }
        while let Some(node) = self.ready.pop_front() {
            self.in_ready[node.index()] = false;
            observe(self, node);
            if self.steps >= step_bound {
                return Halt::StepBound;
            }
            if !self.step(node, fire) {
                // No progress, no channel events: only one can wake it again.
                debug_assert!(self.filled.is_empty() && self.drained.is_empty());
                continue;
            }
            self.steps += 1;
            // The stepped node may be able to go again; so may the consumers
            // of channels it filled and the producers of channels it drained.
            self.wake(node);
            while let Some(e) = self.filled.pop() {
                self.wake(g.head(e));
            }
            while let Some(e) = self.drained.pop() {
                self.wake(g.tail(e));
            }
        }
        self.verdict()
    }

    fn wake(&mut self, n: NodeId) {
        if !self.in_ready[n.index()] && !self.nodes[n.index()].done {
            self.in_ready[n.index()] = true;
            self.ready.push_back(n);
        }
    }

    fn verdict(&self) -> Halt {
        if self.nodes.iter().all(|s| s.done) {
            Halt::Completed
        } else {
            Halt::Deadlocked
        }
    }

    /// Gives `node` one turn; returns whether it progressed.
    ///
    /// A turn is: deliver pending outputs if any can go (a node with
    /// undelivered output does nothing else — a blocking send); otherwise a
    /// source emits its next sequence number (then end-of-stream), and any
    /// other node accepts the minimum sequence number at its input heads —
    /// consuming every head that carries it, firing if any carried data —
    /// and the dummy wrapper adds what the plan's intervals demand.
    fn step<F>(&mut self, node: NodeId, fire: &mut F) -> bool
    where
        F: FnMut(NodeId, u64, &[Option<Payload>], &mut [Option<Payload>]),
    {
        let state = &mut self.nodes[node.index()];
        if !state.pending.is_empty() {
            return self.flush_pending(node);
        }
        if state.done {
            return false;
        }
        let g = self.graph;
        let in_edges = g.in_edges(node);
        let outs = g.out_degree(node);

        if in_edges.is_empty() {
            if state.next_source_seq < self.inputs {
                let seq = state.next_source_seq;
                state.next_source_seq += 1;
                state.firings += 1;
                fire(node, seq, &[], &mut self.emit[..outs]);
                self.send_outputs(node, seq, true, false);
                return true;
            }
            if state.eos_queued {
                self.mark_done_if_drained(node);
                return false;
            }
            return self.send_eos(node);
        }

        let mut accept_seq = u64::MAX;
        for &e in in_edges {
            match self.channels[e.index()].front() {
                Some(head) => accept_seq = accept_seq.min(head.seq()),
                None => return false,
            }
        }
        if accept_seq == u64::MAX {
            // End of stream on every input.
            return self.send_eos(node);
        }

        let data_in = &mut self.data_in[..in_edges.len()];
        data_in.fill(None);
        let (mut fired, mut consumed_dummy) = (false, false);
        for (idx, &e) in in_edges.iter().enumerate() {
            let channel = &mut self.channels[e.index()];
            if channel[0].seq() != accept_seq {
                continue;
            }
            if channel.len() >= self.capacities[e.index()] {
                self.drained.push(e);
            }
            match channel.pop_front().expect("non-empty") {
                Message::Data { payload, .. } => {
                    data_in[idx] = Some(payload);
                    fired = true;
                }
                Message::Dummy { .. } => consumed_dummy = true,
                Message::Eos => unreachable!("EOS has the maximal sequence number"),
            }
        }
        // Sequence numbers consumed purely from dummies never reach the
        // firing decision: no data in, no data out.
        if fired {
            if outs == 0 {
                self.sink_firings += 1;
                state.sink_firings += 1;
            }
            state.firings += 1;
            fire(node, accept_seq, data_in, &mut self.emit[..outs]);
        }
        self.send_outputs(node, accept_seq, fired, consumed_dummy);
        true
    }

    /// Sends the data (if `fired`, from the `emit` scratch) and dummy
    /// messages one accepted sequence number produces.
    fn send_outputs(&mut self, node: NodeId, seq: u64, fired: bool, consumed_dummy: bool) {
        let out_edges = self.graph.out_edges(node);
        let emit = &self.emit[..out_edges.len()];
        let wrapper = &mut self.nodes[node.index()].wrapper;
        // Collect the answer so `send` can borrow the node (out-degrees are
        // tiny, and the buffer is reused).
        let dummies = &mut self.dummies;
        dummies.clear();
        wrapper.on_accept_each(
            consumed_dummy,
            |i| fired && emit[i].is_some(),
            |_, dummy| dummies.push(dummy),
        );
        for (idx, &e) in out_edges.iter().enumerate() {
            if let (true, Some(payload)) = (fired, self.emit[idx]) {
                self.send(node, e, Message::Data { seq, payload });
            }
            if self.dummies[idx] {
                self.send(node, e, Message::Dummy { seq });
            }
        }
    }

    fn send_eos(&mut self, node: NodeId) -> bool {
        self.nodes[node.index()].eos_queued = true;
        for &e in self.graph.out_edges(node) {
            self.send(node, e, Message::Eos);
        }
        self.mark_done_if_drained(node);
        true
    }

    /// Delivers `message` on `edge`, or leaves it pending at `node` when the
    /// channel is full.  Returns whether it was delivered.
    ///
    /// Delivery is FIFO *per channel* but channels do not block one another:
    /// a full channel must not delay a dummy message destined for a
    /// different, empty channel (the deadlock-avoidance guarantee relies on
    /// the dummy getting out), so each output channel behaves like an
    /// independent blocking port.  A turn sends at most one message per
    /// channel (a dummy goes only where no data does), so a pending message
    /// never has an older one for the same channel to queue behind — which
    /// the monotonicity monitor below checks in debug builds.
    fn send(&mut self, node: NodeId, edge: EdgeId, message: Message) -> bool {
        let channel = &mut self.channels[edge.index()];
        if channel.len() >= self.capacities[edge.index()] {
            self.nodes[node.index()].pending.push_back((edge, message));
            return false;
        }
        debug_assert!(
            channel
                .back()
                .map_or(true, |last| last.seq() < message.seq()),
            "sequence numbers on {edge:?} must strictly increase: {:?} then {message:?}",
            channel.back(),
        );
        if channel.is_empty() {
            self.filled.push(edge);
        }
        channel.push_back(message);
        match message {
            Message::Data { .. } => self.per_edge_data[edge.index()] += 1,
            Message::Dummy { .. } => self.per_edge_dummies[edge.index()] += 1,
            Message::Eos => {}
        }
        true
    }

    /// Re-sends every pending output of `node`, oldest first; returns
    /// whether any was delivered.
    fn flush_pending(&mut self, node: NodeId) -> bool {
        let mut delivered = false;
        for _ in 0..self.nodes[node.index()].pending.len() {
            let (edge, message) = self.nodes[node.index()]
                .pending
                .pop_front()
                .expect("counted above");
            delivered |= self.send(node, edge, message);
        }
        self.mark_done_if_drained(node);
        delivered
    }

    fn mark_done_if_drained(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.index()];
        if state.eos_queued && state.pending.is_empty() {
            state.done = true;
        }
    }
}

/// The monotonicity monitor is a debug-build check.
#[cfg(all(test, debug_assertions))]
mod tests {
    use fila_graph::GraphBuilder;

    use super::*;

    #[test]
    #[should_panic(expected = "must strictly increase")]
    fn a_dummy_sharing_its_data_messages_number_trips_the_monotonicity_monitor() {
        let mut b = GraphBuilder::new().default_capacity(4);
        b.edge("a", "b").unwrap();
        let g = b.build().unwrap();
        let mut engine = Engine::new(&g, &AvoidanceMode::Disabled, 1);
        let a = g.node_by_name("a").unwrap();
        let e = g.edge_by_names("a", "b").unwrap();
        assert!(engine.send(a, e, Message::Data { seq: 5, payload: 0 }));
        engine.send(a, e, Message::Dummy { seq: 5 });
    }
}
