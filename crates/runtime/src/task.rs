//! The per-node task core shared by the pooled execution engines.
//!
//! A [`Task`] is everything one compute node needs to run cooperatively on a
//! worker pool: its behaviour, its dummy wrapper, the owned endpoints of its
//! input and output rings, the two-slot output staging queues, and the
//! per-node progress counters.  The run loops in this module are the one
//! optimised implementation of the scalar model's step
//! ([`fila_avoidance::model::engine`]): same acceptance rule, same
//! per-channel independent delivery, so the pool is confluent to the same
//! terminal state as [`crate::Simulator`] — pinned by
//! `tests/engine_equivalence.rs`, not by a second per-message copy here.
//!
//! [`crate::SharedPool`] is the one engine built on this core
//! ([`crate::PooledExecutor`] is a one-job facade over it): the pool decides
//! *scheduling* (how tasks are queued, woken and how verdicts are detected);
//! everything a task does while it holds a worker lives here.
//!
//! ## Containers and runs
//!
//! A task's rings carry [`Batch`] containers and [`run_task`] drains **whole
//! runs** between scheduler interactions: one acceptance scan per run, bulk
//! consumption of RLE dummy runs with the wrapper's run arithmetic, one
//! producer-wake check per input per run, and one ring push per staged
//! container.  "Scalar" execution is a container limit of one message
//! ([`Batching::Scalar`]), not a second code path.
//!
//! Batching never changes semantics: capacity is accounted in *messages*
//! (see [`crate::spsc::MsgCap`]), staging is allowed only while everything
//! already staged is deliverable — preserving the scalar model's exactly
//! one-firing overshoot on a full channel — and the Kahn-network confluence
//! of the model does the rest: verdicts, per-edge counts and checkpoint
//! barriers are identical at every limit (`tests/engine_equivalence.rs`).

use std::sync::Mutex;

use fila_graph::NodeId;

use crate::checkpoint::NodeSnapshot;
use crate::container::{Batch, Batching, ConsumeMsgs, Container, DeliverMsgs, Run};
use crate::message::{Message, Payload};
use crate::node::{FireInput, NodeBehavior};
use crate::report::{BlockedInfo, BlockedReason, ExecutionReport};
use crate::spsc::{self, MsgCap};
use crate::topology::Topology;
use crate::wrapper::{AvoidanceMode, DummyWrapper, PropagationTrigger, RunDummies};

/// The two-slot output staging area of one port.
///
/// `first` is the older container; `second` exists only when a message could
/// not extend `first` (container at its limit, or out of sequence order —
/// the dummy accompanying a data message of the same firing).
#[derive(Default)]
pub(crate) struct Stage {
    pub(crate) first: Option<Batch>,
    pub(crate) second: Option<Batch>,
}

impl Stage {
    /// Staged messages (not containers).
    pub(crate) fn len(&self) -> usize {
        self.first.as_ref().map_or(0, Batch::len) + self.second.as_ref().map_or(0, Batch::len)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none() && self.second.is_none()
    }

    /// Appends one message to the newest staged container, opening a second
    /// container when the newest cannot take it.  The run loops bound
    /// staging by `limit` *before* accepting, so the overflow chain never
    /// exceeds two containers.
    pub(crate) fn stage(&mut self, limit: usize, m: Message) {
        let m = if let Some(c) = &mut self.second {
            match c.try_push(limit, m) {
                Ok(()) => return,
                Err(_) => unreachable!("staging past the bounded overflow container"),
            }
        } else if let Some(c) = &mut self.first {
            match c.try_push(limit, m) {
                Ok(()) => return,
                Err(m) => m,
            }
        } else {
            self.first = Some(Batch::from_message(m));
            return;
        };
        self.second = Some(Batch::from_message(m));
    }

    /// Visits every staged message front to back (checkpoint flattening).
    pub(crate) fn for_each(&self, f: &mut dyn FnMut(Message)) {
        if let Some(c) = &self.first {
            c.for_each(f);
        }
        if let Some(c) = &self.second {
            c.for_each(f);
        }
    }
}

/// One input channel of a task.
pub(crate) struct InPort {
    pub(crate) rx: spsc::Consumer<Batch>,
    pub(crate) edge: u32,
    /// Node index of the channel's producer (the task to wake when a pop
    /// makes the channel non-full).
    pub(crate) producer: u32,
    /// Batched-run scratch: set when the current run consumed from this
    /// port, so the producer waiting flag is checked once per run instead of
    /// once per message (always false between runs).
    touched: bool,
}

/// One output channel of a task, with its staging queue and the
/// producer-side delivery counters (each edge has exactly one producer, so
/// the counters need no atomics).
pub(crate) struct OutPort {
    pub(crate) tx: spsc::Producer<Batch>,
    pub(crate) edge: u32,
    /// Node index of the channel's consumer (the task to wake when a push
    /// makes the channel non-empty).
    pub(crate) consumer: u32,
    pub(crate) queue: Stage,
    /// Messages a staged container may hold: the batching limit clamped to
    /// the edge capacity, so a full container always fits its ring.
    pub(crate) limit: usize,
    pub(crate) data: u64,
    pub(crate) dummies: u64,
}

/// The per-node task state: everything the scalar model keeps per node,
/// plus the owned channel endpoints.
pub(crate) struct Task {
    pub(crate) is_source: bool,
    pub(crate) done: bool,
    pub(crate) eos_queued: bool,
    pub(crate) next_source_seq: u64,
    /// Messages currently staged across all output port queues.
    pub(crate) staged: usize,
    pub(crate) behavior: Box<dyn NodeBehavior>,
    pub(crate) wrapper: DummyWrapper,
    pub(crate) ins: Vec<InPort>,
    pub(crate) outs: Vec<OutPort>,
    /// Reusable per-firing scratch, aligned with `ins`.
    pub(crate) data_in: Vec<Option<Payload>>,
    /// Reusable per-firing decision scratch, aligned with `outs` (filled by
    /// [`NodeBehavior::fire_into`], read by the staging loop).
    pub(crate) emit: Vec<Option<Payload>>,
    pub(crate) firings: u64,
    pub(crate) sink_firings: u64,
    /// Epoch of the last barrier snapshot this task contributed to (0 =
    /// never); guarded by the task mutex like the rest of the state.
    pub(crate) snap_epoch: u64,
}

impl Task {
    /// Diagnoses what this (blocked, not-done) task is waiting on: a full
    /// output channel wins over an empty input (undelivered staged messages
    /// block everything else), mirroring the deadlock report's per-node
    /// diagnosis.  `None` if neither applies (e.g. the task is done).
    pub(crate) fn blocked_on(&self) -> Option<BlockedReason> {
        if let Some(port) = self.outs.iter().find(|p| !p.queue.is_empty()) {
            return Some(BlockedReason::WaitingForSpace(edge_id(port.edge)));
        }
        self.ins
            .iter()
            .find(|p| p.rx.is_empty())
            .map(|port| BlockedReason::WaitingForInput(edge_id(port.edge)))
    }

    /// Total messages this task has delivered onto its output rings (EOS
    /// markers excluded) — the basis of per-slice telemetry attribution.
    pub(crate) fn delivered(&self) -> u64 {
        self.outs.iter().map(|p| p.data + p.dummies).sum()
    }
}

/// A pending barrier snapshot, as seen from inside [`run_task`].
///
/// The [`crate::SharedPool`] implements this for its per-job snapshot
/// collection state (see `shared_pool`): `pending()` returns the epoch of
/// the snapshot being collected (0 = none — the fast path is one atomic
/// load per firing), `barrier()` the barrier sequence number `k`, and
/// `contribute` captures the task's state into the collection buffer.  The
/// caller always holds the task mutex when invoking `contribute`.
pub(crate) trait SnapSink {
    fn pending(&self) -> u64;
    fn barrier(&self) -> u64;
    fn contribute(&self, task: &mut Task);
}

/// Contributes `task` to a pending snapshot if it is *already aligned*
/// without consuming anything further: it is done, has queued its EOS
/// markers (both mean its remaining work touches no pre-barrier sequence
/// number), or is a source whose cursor reached the barrier **with nothing
/// left in its staging queues** — staged pre-barrier messages must be
/// delivered (and counted at the consumer's own alignment) before the
/// source's counters are frozen, or the restore would re-deliver them to a
/// consumer that already processed them.  Tasks aligned mid-stream are
/// caught by the acceptance-time check in [`interior_run`] instead.
fn contribute_if_aligned(task: &mut Task, snap: Option<&dyn SnapSink>) {
    let Some((snap, epoch)) = uncontributed(task, snap) else {
        return;
    };
    if task.done
        || task.eos_queued
        || (task.is_source && task.staged == 0 && task.next_source_seq >= snap.barrier())
    {
        task.snap_epoch = epoch;
        snap.contribute(task);
    }
}

/// The pending snapshot (and its epoch) this task has not contributed to
/// yet, if any: the run loops must stop at its barrier.
fn uncontributed<'a>(
    task: &Task,
    snap: Option<&'a dyn SnapSink>,
) -> Option<(&'a dyn SnapSink, u64)> {
    let snap = snap?;
    let epoch = snap.pending();
    (epoch != 0 && task.snap_epoch != epoch).then_some((snap, epoch))
}

/// Destructively captures a task's **verbatim** final state for a wreck
/// snapshot ([`crate::shared_pool::JobHandle::salvage`]): out-port delivery
/// counters, staged messages, wrapper gaps, and — unlike the aligned
/// barrier capture in [`SnapSink::contribute`] — the task's *input* rings,
/// drained (containers flattened back to messages) into the per-edge
/// channel buffers.  No EOS is inferred: a delivered EOS marker is still
/// sitting in the consumer's ring (consumers never pop EOS) and is captured
/// literally by the drain.
///
/// The result is not a consistent cut: a job that died mid-flight has
/// tasks at unrelated sequence numbers.  It is exactly the raw material a
/// partial restart splices against a consistent base snapshot
/// ([`crate::checkpoint::JobSnapshot::splice_downstream`]).
pub(crate) fn capture_wreck(
    task: &mut Task,
    per_edge_data: &mut [u64],
    per_edge_dummies: &mut [u64],
    channels: &mut [Vec<Message>],
) -> NodeSnapshot {
    for port in &task.outs {
        per_edge_data[port.edge as usize] = port.data;
        per_edge_dummies[port.edge as usize] = port.dummies;
    }
    for port in &mut task.ins {
        let buf = &mut channels[port.edge as usize];
        while let Some(container) = port.rx.pop() {
            container.for_each(&mut |m| buf.push(m));
        }
    }
    let mut staged = Vec::new();
    for port in &task.outs {
        port.queue.for_each(&mut |m| staged.push((port.edge, m)));
    }
    NodeSnapshot {
        gaps: task.wrapper.gaps().to_vec(),
        next_source_seq: task.next_source_seq,
        eos_queued: task.eos_queued,
        done: task.done,
        firings: task.firings,
        sink_firings: task.sink_firings,
        staged,
    }
}

/// What a task run ended with.
pub(crate) enum Outcome {
    /// The node reached end-of-stream and drained its outputs.
    Done,
    /// The batch limit was hit while the task could still progress.
    Yielded,
    /// The task cannot progress until a channel event wakes it (its waiting
    /// flags are registered).
    Blocked,
}

/// Builds one [`Task`] per node of `topology`: an SPSC ring per edge with
/// the endpoints moved into the unique producing / consuming task, a fresh
/// behaviour instance per node, and the per-node dummy-wrapper state for
/// `mode`/`trigger`.  `batching` sets the per-container message limit
/// (clamped per edge to the channel capacity).
pub(crate) fn build_tasks(
    topology: &Topology,
    mode: &AvoidanceMode,
    trigger: PropagationTrigger,
    batching: Batching,
) -> Vec<Task> {
    let g = topology.graph();
    let edge_count = g.edge_count();
    let limit = batching.limit();
    let mut producers: Vec<Option<spsc::Producer<Batch>>> = Vec::with_capacity(edge_count);
    let mut consumers: Vec<Option<spsc::Consumer<Batch>>> = Vec::with_capacity(edge_count);
    for e in g.edge_ids() {
        // Channel capacity is modelled in messages; `MsgCap` keeps the unit
        // explicit at every ring construction site.
        let (tx, rx) = spsc::ring(MsgCap::new(g.capacity(e) as usize));
        producers.push(Some(tx));
        consumers.push(Some(rx));
    }
    g.node_ids()
        .zip(topology.build_behaviors())
        .map(|(n, behavior)| {
            let ins = g
                .in_edges(n)
                .iter()
                .map(|&e| InPort {
                    rx: consumers[e.index()].take().expect("one consumer per edge"),
                    edge: e.index() as u32,
                    producer: g.tail(e).index() as u32,
                    touched: false,
                })
                .collect::<Vec<_>>();
            let outs = g
                .out_edges(n)
                .iter()
                .map(|&e| OutPort {
                    tx: producers[e.index()].take().expect("one producer per edge"),
                    edge: e.index() as u32,
                    consumer: g.head(e).index() as u32,
                    queue: Stage::default(),
                    limit: limit.min(g.capacity(e) as usize),
                    data: 0,
                    dummies: 0,
                })
                .collect::<Vec<_>>();
            let data_in = vec![None; ins.len()];
            let emit = vec![None; outs.len()];
            Task {
                is_source: ins.is_empty(),
                done: false,
                eos_queued: false,
                next_source_seq: 0,
                staged: 0,
                behavior,
                wrapper: DummyWrapper::with_trigger(g, n, mode, trigger),
                ins,
                outs,
                data_in,
                emit,
                firings: 0,
                sink_firings: 0,
                snap_epoch: 0,
            }
        })
        .collect()
}

/// Runs one task for up to `batch` accepted sequence numbers.  `wake`
/// receives the node index of every peer task a channel event of this run
/// made runnable.  `snap`, when present, is consulted at the slice top and
/// at every acceptance ([`interior_run`]) or emission ([`source_run`]) so a
/// task never crosses a pending snapshot barrier without contributing its
/// aligned state first.
///
/// The loop flushes, then drains runs while staging stays within both the
/// container limit and the deliverable space of every output (plus the
/// scalar model's one-acceptance overshoot), so blocking behaviour — and
/// with it every deadlock verdict — matches the one-message-at-a-time model
/// ([`crate::Simulator`]) exactly.
pub(crate) fn run_task(
    task: &mut Task,
    inputs: u64,
    batch: u32,
    wake: &mut dyn FnMut(u32),
    snap: Option<&dyn SnapSink>,
) -> Outcome {
    let mut accepted: u32 = 0;
    loop {
        // Deliver leftover staged output *before* the alignment check: a
        // contribution freezes the delivery counters and the restore
        // re-delivers whatever is still staged, so what a task produced
        // below the barrier must be on the ring — counted, and consumed by
        // its consumer before *that* aligns — when it contributes.
        flush(task, wake);
        mark_done_if_drained(task);
        contribute_if_aligned(task, snap);
        if task.done {
            return Outcome::Done;
        }
        if task.staged > 0 {
            // Some channel is full; `flush` registered the waiting flags.
            return Outcome::Blocked;
        }
        if accepted >= batch {
            return Outcome::Yielded;
        }
        let progressed = if task.is_source {
            source_run(task, inputs, &mut accepted, batch, snap)
        } else {
            let progressed = interior_run(task, &mut accepted, batch, snap);
            // One producer-wake check per consumed input for the whole run
            // (the Dekker begin-wait/retry protocol makes the deferral
            // lose no wakeups: a producer parking meanwhile re-reads the
            // indices our consumption already published).
            for port in &mut task.ins {
                if port.touched {
                    port.touched = false;
                    if port.rx.take_producer_waiting() {
                        wake(port.producer);
                    }
                }
            }
            progressed
        };
        if !progressed {
            debug_assert!(!task.is_source, "sources always progress when runnable");
            return Outcome::Blocked;
        }
    }
}

/// True while every output port can take another acceptance: its staged
/// queue is under the container limit and everything already staged is
/// deliverable right now.  The *first* acceptance after a flush always
/// passes (the queue is empty), so a full channel still receives exactly
/// one overshooting acceptance — the scalar engine's blocking shape.
fn outputs_have_room(task: &Task) -> bool {
    task.outs.iter().all(|port| {
        let len = port.queue.len();
        len < port.limit && len <= port.tx.space_msgs()
    })
}

/// Drains acceptances for a non-source task until the budget, the staging
/// room or an input runs out.  Returns false (with a waiting flag
/// registered) only when no acceptance happened at all.
fn interior_run(
    task: &mut Task,
    accepted: &mut u32,
    batch: u32,
    snap: Option<&dyn SnapSink>,
) -> bool {
    let mut progressed = false;
    'run: while *accepted < batch && outputs_have_room(task) {
        // Acceptance scan: one pass over the input heads.
        let mut accept_seq = u64::MAX;
        for port in &mut task.ins {
            let head = match port.rx.front_msg() {
                Some(m) => m,
                None if progressed => break 'run,
                None => match port.rx.front_msg_or_register() {
                    Some(m) => m,
                    None => return false,
                },
            };
            accept_seq = accept_seq.min(head.seq());
        }
        // Acceptance-time barrier alignment: a snapshot epoch can be
        // published *mid-run* (the slice-top check in `run_task` precedes
        // it), and a head with seq ≥ barrier (EOS included — its sequence
        // number is maximal) proves the publication happened-before its
        // arrival — so it must not be consumed until this task's state,
        // having consumed exactly the pre-barrier prefix of every input,
        // is contributed.  Output staged earlier in this run goes out
        // first (the slice top flushes, then the scan lands here again).
        let mut barrier = u64::MAX;
        if let Some((snap, epoch)) = uncontributed(task, snap) {
            barrier = snap.barrier();
            if accept_seq >= barrier {
                if task.staged > 0 {
                    break 'run;
                }
                task.snap_epoch = epoch;
                snap.contribute(task);
                barrier = u64::MAX;
            }
        }
        if accept_seq == u64::MAX {
            // End of stream on every input.  The markers stay on the rings
            // (peeked, never popped), so shrink what holds them.
            for port in &mut task.ins {
                if let Some(container) = port.rx.front_mut() {
                    container.release_storage();
                }
            }
            for port in &mut task.outs {
                port.queue.stage(port.limit, Message::Eos);
                task.staged += 1;
            }
            task.eos_queued = true;
            progressed = true;
            break 'run;
        }

        // Bulk path: a single input whose head starts a dummy run is
        // accepted a run at a time — gap counters move by run arithmetic
        // and forwarded dummies are staged as one RLE segment.
        if task.ins.len() == 1 {
            if let Some(Run::Dummies { first, len }) = task.ins[0]
                .rx
                .front_mut()
                .expect("head checked non-empty")
                .front_run()
            {
                debug_assert_eq!(first, accept_seq);
                // A pending, uncontributed barrier splits the run: consume
                // only the pre-barrier prefix, so the next scan lands on
                // the barrier sequence and contributes before crossing.
                let mut n = len
                    .min(u64::from(batch - *accepted))
                    .min(barrier - first);
                for out in &task.outs {
                    let qlen = out.queue.len() as u64;
                    n = n
                        .min(out.limit as u64 - qlen)
                        .min((out.tx.space_msgs() as u64).saturating_sub(qlen) + 1);
                }
                debug_assert!(n >= 1, "room was checked before the scan");
                let port = &mut task.ins[0];
                let container = port.rx.front_mut().expect("head checked non-empty");
                container.consume_dummies(n);
                port.rx.release_msgs(n as usize);
                port.touched = true;
                let Task {
                    wrapper,
                    outs,
                    staged,
                    ..
                } = task;
                wrapper.on_accept_dummy_run(n, |i, run| {
                    let out = &mut outs[i];
                    match run {
                        RunDummies::None => {}
                        RunDummies::All => {
                            stage_dummy_run(out, first, n);
                            *staged += n as usize;
                        }
                        RunDummies::Periodic { first: p0, period } => {
                            let mut p = p0;
                            while p < n {
                                out.queue.stage(out.limit, Message::Dummy { seq: first + p });
                                *staged += 1;
                                p += period;
                            }
                        }
                    }
                });
                *accepted += n as u32;
                progressed = true;
                continue 'run;
            }
        }

        // Bulk path: a single-input node whose head starts a *data* run and
        // which stages on at most one output — a pipeline stage or a sink —
        // fires a tight burst: ring atomics (capacity release, the producer
        // wake check) and the room refresh are paid once per burst, and the
        // per-message work reduces to segment-cursor moves, the behaviour
        // call and the staging push.
        if task.ins.len() == 1 && task.outs.len() <= 1 {
            let burst = data_burst(task, accepted, batch, barrier);
            if burst > 0 {
                progressed = true;
                continue 'run;
            }
        }

        // Per-sequence path (multi-input alignment or a data head).
        task.data_in.fill(None);
        let mut consumed_dummy = false;
        for (idx, port) in task.ins.iter_mut().enumerate() {
            let head = port.rx.front_msg().expect("all heads checked non-empty");
            if head.seq() != accept_seq {
                continue;
            }
            port.rx.pop_msg();
            port.touched = true;
            match head {
                Message::Data { payload, .. } => task.data_in[idx] = Some(payload),
                Message::Dummy { .. } => consumed_dummy = true,
                Message::Eos => unreachable!("EOS has maximal sequence number"),
            }
        }
        if task.data_in.iter().any(Option::is_some) {
            if task.outs.is_empty() {
                task.sink_firings += 1;
            }
            task.firings += 1;
            let Task {
                behavior,
                data_in,
                emit,
                ..
            } = task;
            behavior.fire_into(
                &FireInput {
                    seq: accept_seq,
                    data_in,
                },
                emit,
            );
            queue_outputs(task, accept_seq, true, consumed_dummy);
        } else {
            queue_outputs(task, accept_seq, false, consumed_dummy);
        }
        *accepted += 1;
        progressed = true;
    }
    progressed
}

/// Fires the data prefix of a single-input, at-most-one-output task's head
/// container as one burst; returns the number of messages consumed (0 when
/// the head is not data — the caller falls back to the general paths).
///
/// The caller has verified the acceptance preconditions for the *first*
/// message (head non-empty, `outputs_have_room`, budget, pre-barrier);
/// every later iteration re-checks them with burst-local state: the output
/// room against a once-read `space_msgs` snapshot (stale is smaller is
/// conservative — the burst just ends early and the outer loop re-checks),
/// the barrier against each message's own sequence number.
fn data_burst(
    task: &mut Task,
    accepted: &mut u32,
    batch: u32,
    barrier: u64,
) -> usize {
    let Task {
        ins,
        outs,
        behavior,
        wrapper,
        data_in,
        emit,
        staged,
        firings,
        sink_firings,
        ..
    } = task;
    let port = &mut ins[0];
    let space = outs.first().map_or(usize::MAX, |o| o.tx.space_msgs());
    let mut took = 0usize;
    let container = port.rx.front_mut().expect("head checked non-empty");
    while *accepted < batch {
        if let [out] = &outs[..] {
            let len = out.queue.len();
            if !(len < out.limit && len <= space) {
                break;
            }
        }
        let Some(Run::Data { seq, payload }) = container.front_run() else {
            break;
        };
        if seq >= barrier {
            // An uncontributed pending barrier splits the burst; the
            // next acceptance scan lands on `seq` and contributes.
            break;
        }
        container.consume_data();
        data_in[0] = Some(payload);
        *firings += 1;
        if outs.is_empty() {
            *sink_firings += 1;
        }
        behavior.fire_into(&FireInput { seq, data_in }, emit);
        stage_decision(wrapper, outs, staged, emit, seq, true, false);
        *accepted += 1;
        took += 1;
    }
    if took > 0 {
        port.rx.release_msgs(took);
        port.touched = true;
    }
    took
}

/// Stages a run of `n` forwarded dummies at `first..first + n` on one port
/// as a single RLE segment (the caller bounded `n` by the queue room).
fn stage_dummy_run(out: &mut OutPort, first: u64, n: u64) {
    let slot = if out.queue.second.is_some() {
        &mut out.queue.second
    } else {
        &mut out.queue.first
    };
    let container = slot.get_or_insert_with(Batch::new);
    let took = container.push_dummy_run(out.limit, first, n);
    debug_assert_eq!(took, n, "bulk dummy staging was bounded by queue room");
}

/// Drains source firings until the budget, the staging room or a pending
/// snapshot barrier runs out; stages the EOS markers (once, with empty
/// staging queues, like the scalar model) when the input supply is
/// exhausted.  The checkpointer publishes an epoch holding every source's
/// task lock, so the barrier read here is stable for the whole slice: the
/// source stops *at* it, and the slice top contributes once the staging
/// queues have drained.
fn source_run(
    task: &mut Task,
    inputs: u64,
    accepted: &mut u32,
    batch: u32,
    snap: Option<&dyn SnapSink>,
) -> bool {
    let barrier = uncontributed(task, snap).map_or(u64::MAX, |(snap, _)| snap.barrier());
    let mut progressed = false;
    while *accepted < batch
        && task.next_source_seq < inputs.min(barrier)
        && outputs_have_room(task)
    {
        let seq = task.next_source_seq;
        task.next_source_seq += 1;
        task.firings += 1;
        task.behavior
            .fire_into(&FireInput { seq, data_in: &[] }, &mut task.emit);
        queue_outputs(task, seq, true, false);
        *accepted += 1;
        progressed = true;
    }
    if task.next_source_seq >= inputs
        && task.next_source_seq < barrier
        && !task.eos_queued
        && task.staged == 0
        && *accepted < batch
    {
        task.eos_queued = true;
        for port in &mut task.outs {
            port.queue.stage(port.limit, Message::Eos);
            task.staged += 1;
        }
        progressed = true;
    }
    progressed
}

/// Delivers as many staged containers as ring capacities allow; FIFO per
/// channel, channels independent.  Registers the producer waiting flag
/// (with the mandatory retry) on every channel that stays full, and wakes
/// the consumer of every channel this delivery made non-empty.  The
/// delivery counters advance by the *messages* that shipped (a container
/// can deliver partially, split at the remaining message capacity).
fn flush(task: &mut Task, wake: &mut dyn FnMut(u32)) -> bool {
    if task.staged == 0 {
        return false;
    }
    let mut delivered = false;
    for port in &mut task.outs {
        loop {
            if port.queue.first.is_none() {
                port.queue.first = port.queue.second.take();
                if port.queue.first.is_none() {
                    break;
                }
            }
            let (d0, u0) = port.queue.first.as_ref().map_or((0, 0), |c| c.counts());
            let n = port.tx.deliver_or_register(&mut port.queue.first);
            if n == 0 {
                // Port still full; the registration stays active and the
                // consumer's next pop wakes this task.
                break;
            }
            task.staged -= n;
            delivered = true;
            let (d1, u1) = port.queue.first.as_ref().map_or((0, 0), |c| c.counts());
            port.data += d0 - d1;
            port.dummies += u0 - u1;
            if port.tx.take_consumer_waiting() {
                wake(port.consumer);
            }
            if port.queue.first.is_some() {
                // Partial delivery: the remainder stays staged, registered.
                break;
            }
        }
    }
    if delivered {
        mark_done_if_drained(task);
    }
    delivered
}

fn mark_done_if_drained(task: &mut Task) {
    if task.eos_queued && task.staged == 0 {
        task.done = true;
    }
}

/// Stages the data and dummy messages produced for one accepted sequence
/// number (`fired` is false when the node consumed only dummies and emits
/// no data; when true the decision sits in the task's `emit` scratch).
fn queue_outputs(task: &mut Task, seq: u64, fired: bool, consumed_dummy: bool) {
    let Task {
        wrapper,
        outs,
        staged,
        emit,
        ..
    } = task;
    stage_decision(wrapper, outs, staged, emit, seq, fired, consumed_dummy);
}

/// [`queue_outputs`] on split borrows, for callers already holding other
/// task fields (the batched data-burst loop).
fn stage_decision(
    wrapper: &mut DummyWrapper,
    outs: &mut [OutPort],
    staged: &mut usize,
    emit: &[Option<Payload>],
    seq: u64,
    fired: bool,
    consumed_dummy: bool,
) {
    let dummies = wrapper.on_accept(consumed_dummy, |i| fired && emit[i].is_some());
    for (idx, port) in outs.iter_mut().enumerate() {
        if fired {
            if let Some(payload) = emit[idx] {
                port.queue.stage(port.limit, Message::Data { seq, payload });
                *staged += 1;
            }
        }
        if dummies[idx] {
            // Under the heartbeat trigger a dummy may accompany a data
            // message carrying the same sequence number.
            port.queue.stage(port.limit, Message::Dummy { seq });
            *staged += 1;
        }
    }
}

/// Assembles the [`ExecutionReport`] of a finished (or deadlocked) task set:
/// per-edge delivery counters, firing totals and — for deadlocks — the
/// blocked-node diagnoses, exactly as [`crate::PooledExecutor`] has always
/// reported them.
pub(crate) fn assemble_report(
    tasks: &[Mutex<Task>],
    edge_count: usize,
    inputs: u64,
    deadlocked: bool,
) -> ExecutionReport {
    let mut report = ExecutionReport {
        completed: !deadlocked,
        deadlocked,
        inputs_offered: inputs,
        per_edge_data: vec![0; edge_count],
        per_edge_dummies: vec![0; edge_count],
        per_node_firings: vec![0; tasks.len()],
        ..Default::default()
    };
    for (idx, task) in tasks.iter().enumerate() {
        // Tolerate poisoning: a panicked behaviour may have left its task
        // mutex poisoned, but the counters are still meaningful.
        let task = task
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        report.steps += task.firings;
        report.per_node_firings[idx] = task.firings;
        report.sink_firings += task.sink_firings;
        for port in &task.outs {
            report.per_edge_data[port.edge as usize] = port.data;
            report.per_edge_dummies[port.edge as usize] = port.dummies;
        }
        if deadlocked && !task.done {
            if let Some(reason) = task.blocked_on() {
                report.blocked.push(BlockedInfo {
                    node: NodeId::from_raw(idx as u32),
                    reason,
                });
            }
        }
    }
    report.data_messages = report.per_edge_data.iter().sum();
    report.dummy_messages = report.per_edge_dummies.iter().sum();
    report
}

fn edge_id(raw: u32) -> fila_graph::EdgeId {
    fila_graph::EdgeId::from_raw(raw)
}
