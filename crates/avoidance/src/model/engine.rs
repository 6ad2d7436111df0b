//! The scalar step of the model and its deterministic scheduler.
//!
//! [`Engine`] holds one run's state in flat tables (DESIGN.md "The model's
//! state, flat (E42)") — a `VecDeque` per channel, a `Copy` record per node,
//! per output a gap counter and a pending slot — and defines the one thing
//! every engine in the workspace must agree with: what happens when a node
//! is given a turn (`step`).  The firing decision itself is not part of the
//! model; callers pass it in as a closure (static dispatch, filling a scratch
//! slice), which is the whole difference between `fila_runtime::Simulator`
//! (real node behaviours) and certification's model check (a periodic or
//! adversarial emission rule).
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
use std::ops::Range;

use fila_graph::{EdgeId, Graph, NodeId};

use super::message::{Message, Payload};
use super::wrapper::{gap_rule, AvoidanceMode};
use crate::plan::Algorithm;

/// The periodic filtering convention: output `out` of a node with filter
/// period `period` carries sequence number `seq` iff `(seq + out) % period
/// == 0` (1 = broadcast; 0 is read as 1).  The firing decision is the
/// caller's, but this one is the contract between what certification's
/// declared run checks ([`crate::verify::certify_plan`]) and what a job
/// declaring those periods executes, so both call it here.
#[inline]
pub fn periodic_emits(period: u64, seq: u64, out: usize) -> bool {
    period <= 1 || (seq + out as u64) % period == 0
}

/// The model state of one node.  Its edges and per-output state live in the
/// engine's flat tables, in the spans this record holds.
#[derive(Debug, Clone, Copy)]
pub struct NodeState {
    /// The node's span of the flat in-edge list.
    pub(super) ins: (u32, u32),
    /// Its span of the flat out-edge list, and so of the gap, threshold and
    /// pending tables.
    pub(super) outs: (u32, u32),
    /// Occupied pending slots: outputs produced but not yet delivered.
    pub(super) pending: u32,
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

/// The positions a span of a flat list covers.
pub(super) fn span((start, end): (u32, u32)) -> Range<usize> {
    start as usize..end as usize
}

/// One entry of the flat edge lists: a channel seen from one of its ends.
#[derive(Debug, Clone, Copy)]
pub(super) struct Port {
    pub(super) edge: EdgeId,
    /// The node at the other end: a step here that fills or drains the
    /// channel may unblock it.
    peer: u32,
    capacity: usize,
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
    /// The plan's protocol; `None` sends no dummy and steps no gap counter.
    algorithm: Option<Algorithm>,
    /// Sequence numbers offered at every source.
    pub inputs: u64,
    /// In-flight messages per channel.
    pub channels: Vec<VecDeque<Message>>,
    /// Per-node state.
    pub nodes: Vec<NodeState>,
    /// Every node's in-edges, node by node, in `graph.in_edges` order.
    in_edges: Vec<Port>,
    /// Every node's out-edges, node by node, in `graph.out_edges` order.
    pub(super) out_edges: Vec<Port>,
    /// Per out-list position: the channel's dummy-gap counter.
    pub(super) gaps: Vec<u64>,
    /// Per out-list position, under a plan: its interval (`u64::MAX`: none).
    pub(super) thresholds: Vec<u64>,
    /// Per out-list position: the output produced but not yet delivered (a
    /// node with some only flushes, so they are one turn's, one a channel).
    pub(super) pending: Vec<Option<Message>>,
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
    /// Nodes the current step may have unblocked, woken last first: producers
    /// of channels it made non-full, then consumers of ones it made non-empty.
    woken: Vec<u32>,
    /// The worklist scheduler's ready queue (a fixed ring: a node is queued
    /// at most once), in turn order.  Part of the state: with everything
    /// else equal, it decides the schedule from here.
    pub(super) ready: VecDeque<u32>,
    /// Per node: queued, or done for good — so a wake reads one flag.
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
        let edges = graph.edge_count();
        let (mut in_edges, mut out_edges) = (Vec::with_capacity(edges), Vec::with_capacity(edges));
        let append = |list: &mut Vec<Port>, of: &[EdgeId], peer: fn(&Graph, EdgeId) -> NodeId| {
            let start = list.len() as u32;
            list.extend(of.iter().map(|&edge| Port {
                edge,
                peer: peer(graph, edge).index() as u32,
                capacity: graph.capacity(edge) as usize,
            }));
            (start, list.len() as u32)
        };
        let nodes: Vec<NodeState> = (graph.node_ids())
            .map(|n| NodeState {
                ins: append(&mut in_edges, graph.in_edges(n), Graph::tail),
                outs: append(&mut out_edges, graph.out_edges(n), Graph::head),
                pending: 0,
                next_source_seq: 0,
                eos_queued: false,
                done: false,
                firings: 0,
                sink_firings: 0,
            })
            .collect();
        let thresholds = match mode {
            AvoidanceMode::Disabled => Vec::new(),
            AvoidanceMode::Plan(plan) => (out_edges.iter())
                .map(|p| plan.interval(p.edge).finite().unwrap_or(u64::MAX))
                .collect(),
        };
        Engine {
            graph,
            algorithm: mode.algorithm(),
            inputs,
            channels: vec![VecDeque::new(); edges],
            data_in: vec![None; widest(Graph::in_degree)],
            emit: vec![None; widest(Graph::out_degree)],
            ready: VecDeque::with_capacity(nodes.len()),
            in_ready: vec![false; nodes.len()],
            nodes,
            in_edges,
            out_edges,
            gaps: vec![0; edges],
            thresholds,
            pending: vec![None; edges],
            per_edge_data: vec![0; edges],
            per_edge_dummies: vec![0; edges],
            sink_firings: 0,
            steps: 0,
            woken: Vec::new(),
        }
    }

    /// The graph this run executes on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// `node`'s gap counters, aligned with `graph.out_edges(node)`.
    pub fn gaps(&self, node: NodeId) -> &[u64] {
        &self.gaps[span(self.nodes[node.index()].outs)]
    }

    /// [`Engine::gaps`], to restore captured counters into.
    pub fn gaps_mut(&mut self, node: NodeId) -> &mut [u64] {
        &mut self.gaps[span(self.nodes[node.index()].outs)]
    }

    /// `node`'s produced but undelivered outputs, in out-edge order: the
    /// order a turn sends and a flush re-sends them in.
    pub fn pending(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, Message)> + '_ {
        let outs = span(self.nodes[node.index()].outs);
        let slots = self.out_edges[outs.clone()].iter().zip(&self.pending[outs]);
        slots.filter_map(|(port, m)| m.map(|m| (port.edge, m)))
    }

    /// Leaves `message` pending on `node`'s out-edge `edge`, as a turn that
    /// found the channel full would have.  Panics unless `edge` is an
    /// out-edge of `node` with nothing pending.
    pub fn stage(&mut self, node: NodeId, edge: EdgeId, message: Message) {
        let mut outs = span(self.nodes[node.index()].outs);
        let at = outs.find(|&at| self.out_edges[at].edge == edge).unwrap();
        assert!(self.pending[at].replace(message).is_none());
        self.nodes[node.index()].pending += 1;
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
        self.ready.clear();
        for n in 0..self.nodes.len() {
            self.in_ready[n] = self.nodes[n].done;
            if seed_all || self.nodes[n].ins.0 == self.nodes[n].ins.1 {
                self.wake(n);
            }
        }
        while let Some(node) = self.ready.pop_front() {
            let node = node as usize;
            self.in_ready[node] = false;
            observe(self, NodeId::from_raw(node as u32));
            if self.steps >= step_bound {
                return Halt::StepBound;
            }
            if !self.step(node, fire) {
                // No progress, no channel events: only one can wake it again.
                debug_assert!(self.woken.is_empty());
                continue;
            }
            self.steps += 1;
            // The stepped node may be able to go again; so may the consumers
            // of channels it filled and the producers of channels it drained.
            self.wake(node);
            while let Some(n) = self.woken.pop() {
                self.wake(n as usize);
            }
        }
        self.verdict()
    }

    fn wake(&mut self, n: usize) {
        if !self.in_ready[n] {
            self.in_ready[n] = true;
            self.ready.push_back(n as u32);
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
    /// and the dummy-gap rule adds what the plan's intervals demand.
    fn step<F>(&mut self, node: usize, fire: &mut F) -> bool
    where
        F: FnMut(NodeId, u64, &[Option<Payload>], &mut [Option<Payload>]),
    {
        let state = self.nodes[node];
        if state.pending > 0 {
            return self.flush_pending(node);
        }
        if state.done {
            return false;
        }
        let (id, outs) = (NodeId::from_raw(node as u32), span(state.outs).len());
        let in_edges = &self.in_edges[span(state.ins)];
        if in_edges.is_empty() {
            let source = &mut self.nodes[node];
            if source.next_source_seq < self.inputs {
                let seq = source.next_source_seq;
                source.next_source_seq += 1;
                source.firings += 1;
                fire(id, seq, &[], &mut self.emit[..outs]);
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
        for port in in_edges {
            match self.channels[port.edge.index()].front() {
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
        for (idx, port) in in_edges.iter().enumerate() {
            let channel = &mut self.channels[port.edge.index()];
            if channel[0].seq() != accept_seq {
                continue;
            }
            if channel.len() >= port.capacity {
                self.woken.push(port.peer);
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
            let state = &mut self.nodes[node];
            if outs == 0 {
                self.sink_firings += 1;
                state.sink_firings += 1;
            }
            state.firings += 1;
            fire(id, accept_seq, data_in, &mut self.emit[..outs]);
        }
        self.send_outputs(node, accept_seq, fired, consumed_dummy);
        true
    }

    /// Sends, channel by channel, the data (if `fired`, from the `emit`
    /// scratch) and the dummy the gap rule calls for at one accepted
    /// sequence number (`dummy_in`: a dummy was consumed at it).
    fn send_outputs(&mut self, node: usize, seq: u64, fired: bool, dummy_in: bool) {
        for (j, at) in span(self.nodes[node].outs).enumerate() {
            let data = self.emit[j].filter(|_| fired);
            let (gaps, thresholds, sent) = (&mut self.gaps, &self.thresholds, data.is_some());
            let dummy = (self.algorithm).is_some_and(|algorithm| {
                gap_rule(algorithm, &mut gaps[at], thresholds[at], dummy_in, sent)
            });
            if let Some(payload) = data {
                self.send(node, at, Message::Data { seq, payload });
            }
            if dummy {
                self.send(node, at, Message::Dummy { seq });
            }
        }
    }

    fn send_eos(&mut self, node: usize) -> bool {
        self.nodes[node].eos_queued = true;
        for at in span(self.nodes[node].outs) {
            self.send(node, at, Message::Eos);
        }
        self.mark_done_if_drained(node);
        true
    }

    /// Delivers `message` on the channel at out-list position `at` of
    /// `node`, or leaves it in that position's pending slot when the channel
    /// is full.  Returns whether it was delivered.
    ///
    /// Delivery is FIFO *per channel* but channels do not block one another:
    /// a full channel must not delay a dummy message destined for a
    /// different, empty channel (the deadlock-avoidance guarantee relies on
    /// the dummy getting out), so each output channel behaves like an
    /// independent blocking port.  A turn sends at most one message per
    /// channel (a dummy goes only where no data does), so a pending message
    /// never has an older one for the same channel to queue behind — which
    /// the monotonicity monitor below checks in debug builds.
    fn send(&mut self, node: usize, at: usize, message: Message) -> bool {
        let port = self.out_edges[at];
        let (edge, channel) = (port.edge, &mut self.channels[port.edge.index()]);
        if channel.len() >= port.capacity {
            debug_assert!(self.pending[at].is_none());
            self.pending[at] = Some(message);
            self.nodes[node].pending += 1;
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
            self.woken.push(port.peer);
        }
        channel.push_back(message);
        match message {
            Message::Data { .. } => self.per_edge_data[edge.index()] += 1,
            Message::Dummy { .. } => self.per_edge_dummies[edge.index()] += 1,
            Message::Eos => {}
        }
        true
    }

    /// Re-sends every pending output of `node`, in out-edge order; returns
    /// whether any was delivered.
    fn flush_pending(&mut self, node: usize) -> bool {
        let mut delivered = false;
        for at in span(self.nodes[node].outs) {
            if let Some(message) = self.pending[at].take() {
                self.nodes[node].pending -= 1;
                delivered |= self.send(node, at, message);
            }
        }
        self.mark_done_if_drained(node);
        delivered
    }

    fn mark_done_if_drained(&mut self, node: usize) {
        let state = &mut self.nodes[node];
        if state.eos_queued && state.pending == 0 {
            state.done = true;
            self.in_ready[node] = true;
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
        let a = g.node_by_name("a").unwrap().index();
        let at = span(engine.nodes[a].outs).start;
        assert!(engine.send(a, at, Message::Data { seq: 5, payload: 0 }));
        engine.send(a, at, Message::Dummy { seq: 5 });
    }
}
