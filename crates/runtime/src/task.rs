//! The per-node task core shared by the pooled execution engines.
//!
//! A [`Task`] is everything one compute node needs to run cooperatively on a
//! worker pool: its behaviour, its dummy wrapper, the owned endpoints of its
//! input and output rings, one output staging container per port, and the
//! per-node progress counters.  The run loops in this module are the one
//! optimised implementation of the scalar model's step
//! ([`fila_avoidance::model::engine`]): same acceptance rule, same
//! per-channel independent delivery, so the pool is confluent to the same
//! terminal state as [`crate::Simulator`] — pinned by
//! `tests/engine_equivalence.rs`, not by a second per-message copy here.
//!
//! [`crate::SharedPool`] is the one engine built on this core: the pool
//! decides *scheduling* (how tasks are queued, woken and how verdicts are
//! detected); everything a task does while it holds a worker lives here.
//!
//! ## Containers and runs
//!
//! A task's rings carry [`Batch`] containers and [`run_task`] drains **whole
//! runs** between scheduler interactions: one acceptance scan per run, bulk
//! consumption of RLE dummy runs with the wrapper's run arithmetic, one
//! producer-wake check per input per run, and one ring push per staged
//! container.  A slice runs until its task blocks or finishes, in budgets of
//! `batch` acceptances: a task that spends a budget with work left asks the
//! pool to renew it, and yields only if refused.  The budget `batch` is also
//! every output's container limit, clamped to the channel's capacity
//! ([`crate::container`] says why no other limit could bind).  "Scalar"
//! execution is `batch` = 1, not a second code path.
//!
//! A single-input node — any out-degree — is accepted a run at a time
//! ([`interior_run`]).  The run is the dummy run or the data prefix at the
//! front of its head container, clamped by the four bounds the per-message
//! rule applies one acceptance at a time: the budget, every output's
//! container limit, every output's deliverable space plus the one
//! overshooting acceptance ([`run_room`]), and a pending snapshot barrier.
//! A data run is *fired* as a run too ([`NodeBehavior::fire_run`] on a
//! [`DataRun`]): the default steps through it, one `fire` per message;
//! [`crate::Broadcast`] relays it — the head container's segments are
//! appended to each output's staging container, ordering checked once at
//! the seam, the wrapper's counters moved by
//! [`DummyWrapper::on_accept_data_run`].  Multi-input nodes align their
//! heads one sequence number at a time.
//!
//! The batch size never changes semantics: capacity is accounted in
//! *messages* (see [`crate::spsc::MsgCap`]), staging is allowed only while
//! everything already staged is deliverable — preserving the scalar model's
//! exactly one-firing overshoot on a full channel.  An acceptance stages at
//! most one message per port (a dummy goes only where no data does), so a
//! port's staged messages always fit one container and every channel's
//! sequence numbers strictly increase.  The Kahn-network confluence of the
//! model does the rest: verdicts, per-edge counts and checkpoint barriers are
//! identical at every batch size (`tests/engine_equivalence.rs`).

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use fila_graph::NodeId;

use crate::checkpoint::{JobSnapshot, NodeSnapshot, RestoreError};
use crate::container::{Batch, Container, Run};
use crate::filters::Broadcast;
use crate::message::{Message, Payload};
use crate::node::{FireInput, NodeBehavior};
use crate::report::{BlockedInfo, BlockedReason, ExecutionReport};
use crate::spsc::{self, MsgCap};
use crate::topology::Program;
use crate::wrapper::{AvoidanceMode, DummyWrapper, RunDummies};

/// A task's ports or per-firing scratch: one element — most nodes have one
/// input and one output — held inline, any other number in a vector, so a
/// task of a chain costs no allocation of its own (E41).
pub(crate) enum Few<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::One(one) => std::slice::from_ref(one),
            Few::Many(many) => many,
        }
    }
}

impl<T> DerefMut for Few<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Few::One(one) => std::slice::from_mut(one),
            Few::Many(many) => many,
        }
    }
}

impl<T> FromIterator<T> for Few<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut items = items.into_iter();
        match (items.next(), items.next()) {
            (Some(one), None) => Few::One(one),
            (first, second) => Few::Many(first.into_iter().chain(second).chain(items).collect()),
        }
    }
}

impl<'a, T> IntoIterator for &'a Few<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut Few<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// A node's behaviour in either engine: the default broadcast held inline,
/// or one its program built.
pub(crate) enum Behavior {
    Broadcast,
    Built(Box<dyn NodeBehavior>),
}

impl Behavior {
    /// `node`'s fresh behaviour in `program`: the one it builds, or else the
    /// default broadcast, inline.
    pub(crate) fn of(program: &dyn Program, node: NodeId) -> Self {
        program.behavior(node).map_or(Behavior::Broadcast, Behavior::Built)
    }

    /// Fires the behaviour on `input`.  A built one is handed `emit`
    /// cleared, so a slot it leaves unwritten is filtered; the broadcast
    /// writes every slot.
    pub(crate) fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
        match self {
            Behavior::Broadcast => Broadcast.fire(input, emit),
            Behavior::Built(built) => {
                emit.fill(None);
                built.fire(input, emit);
            }
        }
    }

    fn fire_run(&mut self, run: &mut DataRun<'_>) {
        match self {
            Behavior::Broadcast => Broadcast.fire_run(run),
            Behavior::Built(built) => built.fire_run(run),
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

/// One output channel of a task, with its staging container and the
/// producer-side delivery counters (each edge has exactly one producer, so
/// the counters need no atomics).
pub(crate) struct OutPort {
    pub(crate) tx: spsc::Producer<Batch>,
    pub(crate) edge: u32,
    /// Node index of the channel's consumer (the task to wake when a push
    /// makes the channel non-empty).
    pub(crate) consumer: u32,
    /// Messages produced but not yet delivered.  One container suffices:
    /// an acceptance stages at most one message per port, and the run loops
    /// bound staging by `limit` *before* accepting ([`run_room`]).
    pub(crate) queue: Option<Batch>,
    /// Messages a staged container may hold: the budget clamped to
    /// the edge capacity, so a full container always fits its ring.
    pub(crate) limit: usize,
    pub(crate) data: u64,
    pub(crate) dummies: u64,
    /// The monotonicity monitor: the lowest sequence number the channel may
    /// carry next, one past the last message delivered.
    #[cfg(debug_assertions)]
    floor: u64,
}

impl OutPort {
    /// Staged messages (not containers).
    pub(crate) fn staged(&self) -> usize {
        self.queue.as_ref().map_or(0, Batch::len)
    }

    /// The staging container, opened if nothing is staged: where a run —
    /// already bounded by the staging room — is appended whole.
    fn staging(&mut self) -> &mut Batch {
        self.queue.get_or_insert_with(Batch::new)
    }

    /// Appends one message to the staging container.  The run loops bound
    /// staging by the limit before accepting, and a node's sequence numbers
    /// increase, so the container never refuses.
    fn stage(&mut self, m: Message) {
        let limit = self.limit;
        let refused = self.staging().try_push(limit, m).is_err();
        assert!(
            !refused,
            "staging past the container limit or out of sequence order"
        );
    }

    /// Delivers the staging container as far as the ring's space allows,
    /// registering the waiting flag when some of it stays staged; returns
    /// the messages delivered.  Debug builds check that the channel's
    /// sequence numbers strictly increase from one container to the next
    /// (within one, [`Batch`] enforces it).
    fn deliver(&mut self) -> usize {
        #[cfg(debug_assertions)]
        let span = self.queue.as_ref().and_then(|c| Some((c.front().seq(), c.back_seq()?)));
        let n = self.tx.deliver_or_register(&mut self.queue);
        #[cfg(debug_assertions)]
        if let Some((front, back)) = span.filter(|_| n > 0) {
            assert!(
                front >= self.floor,
                "sequence numbers on edge {} must strictly increase: {front} below {}",
                self.edge,
                self.floor,
            );
            self.floor = self
                .queue
                .as_ref()
                .map_or(back.saturating_add(1), |c| c.front().seq());
        }
        n
    }
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
    pub(crate) behavior: Behavior,
    pub(crate) wrapper: DummyWrapper,
    pub(crate) ins: Few<InPort>,
    pub(crate) outs: Few<OutPort>,
    /// Reusable per-firing scratch, aligned with `ins`.
    pub(crate) data_in: Few<Option<Payload>>,
    /// Reusable per-firing decision scratch, aligned with `outs` (filled by
    /// [`NodeBehavior::fire`], read by the staging loop).
    pub(crate) emit: Few<Option<Payload>>,
    pub(crate) firings: u64,
    pub(crate) sink_firings: u64,
    /// Epoch of the last barrier snapshot this task contributed to (0 =
    /// never); guarded by the task mutex like the rest of the state.
    pub(crate) snap_epoch: u64,
    /// The pool worker that ran this task's previous slice (`usize::MAX`:
    /// none yet); kept only while the pool records telemetry.
    pub(crate) last_worker: usize,
}

impl Task {
    /// Diagnoses what this (blocked, not-done) task is waiting on: a full
    /// output channel wins over an empty input (undelivered staged messages
    /// block everything else), mirroring the deadlock report's per-node
    /// diagnosis.  `None` if neither applies (e.g. the task is done).
    pub(crate) fn blocked_on(&self) -> Option<BlockedReason> {
        if let Some(port) = self.outs.iter().find(|p| p.queue.is_some()) {
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

    /// True if the task is *already aligned* with a snapshot barrier at
    /// sequence number `barrier` without consuming anything further: it is
    /// done, has queued its EOS markers (both mean its remaining work
    /// touches no pre-barrier sequence number), or is a source whose cursor
    /// reached the barrier **with nothing left in its staging queues** —
    /// staged pre-barrier messages must be delivered (and counted at the
    /// consumer's own alignment) before the source's counters are frozen,
    /// or the restore would re-deliver them to a consumer that already
    /// processed them.
    pub(crate) fn aligned_at(&self, barrier: u64) -> bool {
        self.done
            || self.eos_queued
            || (self.is_source && self.staged == 0 && self.next_source_seq >= barrier)
    }

    /// Writes the delivery counters of this task's outputs into the dense
    /// per-edge tables.  Every edge has exactly one producer, so one pass
    /// over a job's tasks fills both tables.
    pub(crate) fn read_counts(&self, per_edge_data: &mut [u64], per_edge_dummies: &mut [u64]) {
        for port in &self.outs {
            per_edge_data[port.edge as usize] = port.data;
            per_edge_dummies[port.edge as usize] = port.dummies;
        }
    }

    /// The node-local half of a snapshot: progress flags and counters, the
    /// wrapper's gaps and whatever is staged.  The job-level half — the
    /// per-edge counters ([`Task::read_counts`]) and the channel contents —
    /// is the caller's: an aligned barrier cut infers it, a wreck drains it
    /// ([`Task::drain_inputs`]).  [`Task::restore`] is the inverse.
    pub(crate) fn capture(&self) -> NodeSnapshot {
        // Flatten staged containers to the per-message `FILASNAP` wire form
        // so batched snapshots restore anywhere.
        let mut staged = Vec::new();
        for port in &self.outs {
            if let Some(c) = &port.queue {
                c.for_each(&mut |m| staged.push((port.edge, m)));
            }
        }
        NodeSnapshot {
            gaps: self.wrapper.gaps().to_vec(),
            next_source_seq: self.next_source_seq,
            eos_queued: self.eos_queued,
            done: self.done,
            firings: self.firings,
            sink_firings: self.sink_firings,
            staged,
        }
    }

    /// Puts a freshly built task back where `node` was captured
    /// ([`Task::capture`]), with its outputs' share of `cut`'s job-level
    /// state: delivery counters and the channels it produces into.  `cut`
    /// has passed [`JobSnapshot::validate_for`].
    pub(crate) fn restore(
        &mut self,
        node: &NodeSnapshot,
        cut: &JobSnapshot,
    ) -> Result<(), RestoreError> {
        self.next_source_seq = node.next_source_seq;
        self.eos_queued = node.eos_queued;
        self.done = node.done;
        self.firings = node.firings;
        self.sink_firings = node.sink_firings;
        self.wrapper.restore_gaps(&node.gaps);
        for port in &mut self.outs {
            port.data = cut.per_edge_data[port.edge as usize];
            port.dummies = cut.per_edge_dummies[port.edge as usize];
            // Re-pack the wire-form channel into containers as the run
            // loops would have staged it (grouping is unobservable: a
            // capture flattens containers back to messages).  Sequence
            // order was validated, so a refusal means the container is
            // full.  `validate_for` bounds channel lengths by ring
            // capacity, but a hostile/corrupted blob must degrade to a
            // typed error, never a panic on the restore path.
            let mut ship = |container: Batch| {
                port.tx.push(container).map_err(|_| {
                    RestoreError::Corrupted("restored channel overflows ring capacity".into())
                })
            };
            let mut open = Batch::default();
            for &message in &cut.channels[port.edge as usize] {
                if let Err(message) = open.try_push(port.limit, message) {
                    ship(std::mem::replace(&mut open, Batch::from_message(message)))?;
                }
            }
            if open.len() > 0 {
                ship(open)?;
            }
        }
        for &(edge, message) in &node.staged {
            let Some(port) = self.outs.iter_mut().find(|p| p.edge == edge) else {
                return Err(RestoreError::Corrupted(
                    "staged message on an edge the node does not produce".into(),
                ));
            };
            // Re-pack the wire-form staged list (per-port, in order) into
            // the port's one container, under the port's limit like the run
            // loops stage: `validate_for` allows one staged message per edge.
            let limit = port.limit;
            port.staging().try_push(limit, message).map_err(|_| {
                RestoreError::Corrupted("staged messages overflow the container".into())
            })?;
            self.staged += 1;
        }
        Ok(())
    }

    /// The wreck half of [`JobHandle::salvage`](crate::JobHandle::salvage):
    /// drains this task's *input* rings (containers flattened back to
    /// messages) into the per-edge channel buffers.  Unlike the aligned
    /// barrier capture no EOS is inferred: a delivered EOS marker is still
    /// sitting in the consumer's ring (consumers never pop EOS) and is
    /// captured literally by the drain.
    pub(crate) fn drain_inputs(&mut self, channels: &mut [Vec<Message>]) {
        for port in &mut self.ins {
            let buf = &mut channels[port.edge as usize];
            while let Some(container) = port.rx.pop() {
                container.for_each(&mut |m| buf.push(m));
            }
        }
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

/// Contributes `task` to a pending snapshot if it is already aligned
/// ([`Task::aligned_at`]).  Tasks aligned mid-stream are caught by the
/// acceptance-time check in [`interior_run`] instead.
fn contribute_if_aligned(task: &mut Task, snap: Option<&dyn SnapSink>) {
    let Some((snap, epoch)) = uncontributed(task, snap) else {
        return;
    };
    if task.aligned_at(snap.barrier()) {
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

/// What a task run ended with.
pub(crate) enum Outcome {
    /// The node reached end-of-stream and drained its outputs.
    Done,
    /// The task spent its budget, could still progress, and was refused
    /// another.
    Yielded,
    /// The task cannot progress until a channel event wakes it (its waiting
    /// flags are registered).
    Blocked,
}

/// Builds one [`Task`] per node of `program`, in node order: an SPSC ring
/// per edge with the endpoints moved into the unique producing / consuming
/// task, a fresh behaviour instance per node, and the per-node
/// dummy-wrapper state for `mode`.  `batch`, the budget, is also the
/// per-container message limit (clamped per edge to the channel capacity).
///
/// A `fresh` job's tasks start as its first slice would leave them: every
/// task but the sources waits on its first input, whose ring is built with
/// the consumer registered ([`spsc::ring_awaited`]) — so only the sources
/// need seeding, and the first push onto that ring wakes the task.  A
/// resumed job's rings start unregistered: every task is seeded.
pub(crate) fn build_tasks<'a>(
    program: &'a dyn Program,
    mode: &'a AvoidanceMode,
    batch: u32,
    fresh: bool,
) -> impl ExactSizeIterator<Item = Task> + 'a {
    let g = program.graph();
    let edge_count = g.edge_count();
    let limit = batch as usize;
    let mut producers: Vec<Option<spsc::Producer<Batch>>> = Vec::with_capacity(edge_count);
    let mut consumers: Vec<Option<spsc::Consumer<Batch>>> = Vec::with_capacity(edge_count);
    for e in g.edge_ids() {
        // Channel capacity is modelled in messages; `MsgCap` keeps the unit
        // explicit at every ring construction site.
        let cap = MsgCap::new(g.capacity(e) as usize);
        let (tx, rx) = if fresh && g.in_edges(g.head(e))[0] == e {
            spsc::ring_awaited(cap)
        } else {
            spsc::ring(cap)
        };
        producers.push(Some(tx));
        consumers.push(Some(rx));
    }
    (0..g.node_count()).map(move |n| {
        let n = NodeId::from_raw(n as u32);
        let ins: Few<InPort> = g
            .in_edges(n)
            .iter()
            .map(|&e| InPort {
                rx: consumers[e.index()].take().expect("one consumer per edge"),
                edge: e.index() as u32,
                producer: g.tail(e).index() as u32,
                touched: false,
            })
            .collect();
        let outs: Few<OutPort> = g
            .out_edges(n)
            .iter()
            .map(|&e| OutPort {
                tx: producers[e.index()].take().expect("one producer per edge"),
                edge: e.index() as u32,
                consumer: g.head(e).index() as u32,
                queue: None,
                limit: limit.min(g.capacity(e) as usize),
                data: 0,
                dummies: 0,
                #[cfg(debug_assertions)]
                floor: 0,
            })
            .collect();
        Task {
            is_source: ins.is_empty(),
            done: false,
            eos_queued: false,
            next_source_seq: 0,
            staged: 0,
            behavior: Behavior::of(program, n),
            wrapper: DummyWrapper::new(g, n, mode),
            data_in: ins.iter().map(|_| None).collect(),
            emit: outs.iter().map(|_| None).collect(),
            ins,
            outs,
            firings: 0,
            sink_firings: 0,
            snap_epoch: 0,
            last_worker: usize::MAX,
        }
    })
}

/// Runs one slice of a task: until it blocks or finishes, in budgets of
/// `batch` accepted sequence numbers — each time a budget is spent with work
/// left, `renew` says whether the task gets another or yields.  `wake`
/// receives the node index of every peer task a channel event of the slice
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
    renew: &mut dyn FnMut() -> bool,
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
            if !renew() {
                return Outcome::Yielded;
            }
            accepted = 0;
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

/// How many acceptances the task may make before its room is read again;
/// 0 when the budget is spent or some output has no room.
///
/// An output has room while its staged queue is under the container limit
/// and everything already staged is deliverable right now.  The *first*
/// acceptance after a flush always has it (the queue is empty), so a full
/// channel still receives exactly one overshooting acceptance — the scalar
/// engine's blocking shape.  An acceptance stages at most one message per
/// port, so a run of `n` acceptances stages at most `n` — and the rule holds
/// before each of them in turn when `n` is within every port's
/// `limit − staged` and `space − staged + 1`.
fn run_room(task: &Task, accepted: u32, batch: u32) -> u64 {
    let mut n = u64::from(batch - accepted);
    for out in &task.outs {
        let qlen = out.staged();
        let space = out.tx.space_msgs();
        if qlen > space {
            return 0;
        }
        n = n
            .min(out.limit.saturating_sub(qlen) as u64)
            .min(((space - qlen) as u64).saturating_add(1));
    }
    n
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
    'run: loop {
        let room = run_room(task, *accepted, batch);
        if room == 0 {
            break;
        }
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
                port.stage(Message::Eos);
                task.staged += 1;
            }
            task.eos_queued = true;
            progressed = true;
            break 'run;
        }

        // Run paths: a single input is accepted a run at a time — the
        // dummy run or the data prefix at the front of its head container,
        // clamped to what the per-message rule would accept one by one.
        if task.ins.len() == 1 {
            let head = task.ins[0]
                .rx
                .front_mut()
                .expect("head checked non-empty")
                .front_run();
            if let Some(Run::Dummies { first, len }) = head {
                debug_assert_eq!(first, accept_seq);
                // Gap counters move by run arithmetic and forwarded dummies
                // are staged as one RLE segment.  A pending, uncontributed
                // barrier splits the run: consume only the pre-barrier
                // prefix, so the next scan lands on the barrier sequence
                // and contributes before crossing.
                let n = len.min(room).min(barrier - first);
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
                            let limit = out.limit;
                            let took = out.staging().push_dummy_run(limit, first, n);
                            assert_eq!(took, n, "dummy-run staging was bounded by its room");
                            *staged += n as usize;
                        }
                        RunDummies::Periodic { first: p0, period } => {
                            let mut p = p0;
                            while p < n {
                                out.stage(Message::Dummy { seq: first + p });
                                *staged += 1;
                                p += period;
                            }
                        }
                    }
                });
                *accepted += n as u32;
            } else {
                data_run(task, accepted, room, barrier);
            }
            progressed = true;
            continue 'run;
        }

        // Per-sequence path (multi-input alignment).
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
            behavior.fire(
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

/// Fires the data prefix of a single-input task's head container as one run
/// of at most `room` acceptances ([`run_room`]) below `barrier`, through
/// [`NodeBehavior::fire_run`]; ring atomics (capacity release, the producer
/// wake check) and the counters are paid once per run.
///
/// The caller has verified the acceptance preconditions for the first
/// message (head data below the barrier, `room ≥ 1`), so a run is never
/// empty.
fn data_run(task: &mut Task, accepted: &mut u32, room: u64, barrier: u64) {
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
    let mut run = DataRun {
        src: port.rx.front_mut().expect("head checked non-empty"),
        max: room as usize,
        barrier,
        outs: &mut outs[..],
        wrapper,
        staged,
        data_in,
        emit,
        took: 0,
    };
    behavior.fire_run(&mut run);
    let took = run.took;
    assert!(took > 0, "a behaviour must fire the run it is handed");
    *firings += took as u64;
    if outs.is_empty() {
        *sink_firings += took as u64;
    }
    *accepted += took as u32;
    port.rx.release_msgs(took);
    port.touched = true;
}

/// The engine's side of [`NodeBehavior::fire_run`]: the data prefix at the
/// front of a single-input node's head container, already bounded by the
/// budget, the staging room of every output and a pending snapshot
/// barrier.  A behaviour either [steps](DataRun::step) through it one
/// message at a time or, when its decision is the same `(seq, payload)` on
/// every output, [relays](DataRun::relay) it whole.
pub struct DataRun<'a> {
    src: &'a mut Batch,
    /// Acceptances the run may make in total ([`run_room`]).
    max: usize,
    barrier: u64,
    outs: &'a mut [OutPort],
    wrapper: &'a mut DummyWrapper,
    staged: &'a mut usize,
    data_in: &'a mut [Option<Payload>],
    emit: &'a mut [Option<Payload>],
    /// Acceptances made so far.
    took: usize,
}

impl DataRun<'_> {
    /// Fires what is left of the run one message at a time, in increasing
    /// sequence order: `fire` is [`NodeBehavior::fire`] — it sees the
    /// message and writes the decision into a cleared slice, which is
    /// staged before the next call.
    pub fn step(&mut self, mut fire: impl FnMut(&FireInput<'_>, &mut [Option<Payload>])) {
        while self.took < self.max {
            let Some(Run::Data { seq, payload }) = self.src.front_run() else {
                break;
            };
            if seq >= self.barrier {
                // An uncontributed pending barrier splits the run; the next
                // acceptance scan lands on `seq` and contributes.
                break;
            }
            self.src.consume_data();
            self.data_in[0] = Some(payload);
            self.emit.fill(None);
            fire(
                &FireInput {
                    seq,
                    data_in: self.data_in,
                },
                self.emit,
            );
            self.took += 1;
            stage_decision(
                self.wrapper,
                self.outs,
                self.staged,
                self.emit,
                seq,
                true,
                false,
            );
        }
    }

    /// Forwards what is left of the run unchanged on every output — the
    /// input container's segments are appended to each staging container,
    /// one copy per output, none for a sink — and moves the dummy wrapper's
    /// counters by [`DummyWrapper::on_accept_data_run`].
    pub fn relay(&mut self) {
        let n = self.src.data_prefix(self.max - self.took, self.barrier);
        if n == 0 {
            return;
        }
        self.wrapper.on_accept_data_run(n as u64);
        for out in self.outs.iter_mut() {
            let limit = out.limit;
            let took = out.staging().push_data_prefix(limit, self.src, n);
            assert_eq!(took, n, "data-run staging was bounded by its room");
        }
        *self.staged += n * self.outs.len();
        self.src.consume_data_prefix(n);
        self.took += n;
    }
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
    while task.next_source_seq < inputs.min(barrier) && run_room(task, *accepted, batch) > 0 {
        let seq = task.next_source_seq;
        task.next_source_seq += 1;
        task.firings += 1;
        task.behavior
            .fire(&FireInput { seq, data_in: &[] }, &mut task.emit);
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
            port.stage(Message::Eos);
            task.staged += 1;
        }
        progressed = true;
    }
    progressed
}

/// Delivers as much of every staging container as ring capacities allow;
/// FIFO per channel, channels independent.  Registers the producer waiting flag
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
        let Some((d0, u0)) = port.queue.as_ref().map(Batch::counts) else {
            continue;
        };
        let n = port.deliver();
        if n == 0 {
            // Port still full; the registration stays active and the
            // consumer's next pop wakes this task.
            continue;
        }
        task.staged -= n;
        delivered = true;
        // A partial delivery leaves the remainder staged, registered.
        let (d1, u1) = port.queue.as_ref().map_or((0, 0), Batch::counts);
        port.data += d0 - d1;
        port.dummies += u0 - u1;
        if port.tx.take_consumer_waiting() {
            wake(port.consumer);
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
/// task fields ([`DataRun::step`]).
fn stage_decision(
    wrapper: &mut DummyWrapper,
    outs: &mut [OutPort],
    staged: &mut usize,
    emit: &[Option<Payload>],
    seq: u64,
    fired: bool,
    consumed_dummy: bool,
) {
    let sent = |idx: usize| emit[idx].filter(|_| fired);
    wrapper.on_accept_each(
        consumed_dummy,
        |idx| sent(idx).is_some(),
        |idx, dummy| {
            let port = &mut outs[idx];
            let data = sent(idx);
            // The wrapper sends a dummy only where no data goes: one
            // message per port per acceptance, the bound `run_room` stages
            // by.
            debug_assert!(
                data.is_none() || !dummy,
                "two messages for edge {}",
                port.edge
            );
            if let Some(payload) = data {
                port.stage(Message::Data { seq, payload });
                *staged += 1;
            }
            if dummy {
                port.stage(Message::Dummy { seq });
                *staged += 1;
            }
        },
    );
}

/// Assembles the [`ExecutionReport`] of a finished (or deadlocked) task set:
/// per-edge delivery counters, firing totals and — for deadlocks — the
/// blocked-node diagnoses.
pub(crate) fn assemble_report<'a>(
    tasks: impl ExactSizeIterator<Item = &'a Mutex<Task>>,
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
    for (idx, task) in tasks.enumerate() {
        // Tolerate poisoning: a panicked behaviour may have left its task
        // mutex poisoned, but the counters are still meaningful.
        let task = task
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        report.steps += task.firings;
        report.per_node_firings[idx] = task.firings;
        report.sink_firings += task.sink_firings;
        task.read_counts(&mut report.per_edge_data, &mut report.per_edge_dummies);
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

#[cfg(test)]
mod tests {
    //! The run loops driven deterministically, one thread, round-robin —
    //! so a snapshot barrier can be published at an exact point and land at
    //! an exact position *inside* a data run, which a live pool cannot be
    //! made to do on purpose.

    use std::cell::{Cell, RefCell};

    use fila_avoidance::{Algorithm, AvoidancePlan, DummyInterval, IntervalMap};
    use fila_graph::{Graph, GraphBuilder};

    use super::*;
    use crate::filters::Predicate;
    use crate::node::FireInput;
    use crate::Topology;

    /// A fresh job's tasks, as the pool builds them.
    fn tasks_of(topology: &Topology, mode: &AvoidanceMode, batch: u32) -> Vec<Task> {
        build_tasks(topology, mode, batch, true).collect()
    }

    /// `Broadcast` without its run override: the default, per-message
    /// `fire_run`.
    struct Stepped(Broadcast);

    impl NodeBehavior for Stepped {
        fn fire(&mut self, input: &FireInput<'_>, emit: &mut [Option<Payload>]) {
            self.0.fire(input, emit);
        }
    }

    /// What one task contributed: (input edge, snapshot, delivered data and
    /// dummies per output).
    type Contribution = (Option<u32>, NodeSnapshot, Vec<(u64, u64)>);

    /// A snapshot request published by the test at a point of its choosing.
    struct Cut {
        epoch: Cell<u64>,
        barrier: u64,
        contributions: RefCell<Vec<Contribution>>,
    }

    impl SnapSink for Cut {
        fn pending(&self) -> u64 {
            self.epoch.get()
        }
        fn barrier(&self) -> u64 {
            self.barrier
        }
        fn contribute(&self, task: &mut Task) {
            let mut staged = Vec::new();
            for port in &task.outs {
                if let Some(c) = &port.queue {
                    c.for_each(&mut |m| staged.push((port.edge, m)));
                }
            }
            self.contributions.borrow_mut().push((
                task.ins.first().map(|p| p.edge),
                NodeSnapshot {
                    gaps: task.wrapper.gaps().to_vec(),
                    next_source_seq: task.next_source_seq,
                    eos_queued: task.eos_queued,
                    done: task.done,
                    firings: task.firings,
                    sink_firings: task.sink_firings,
                    staged,
                },
                task.outs.iter().map(|p| (p.data, p.dummies)).collect(),
            ));
        }
    }

    /// `src → hub → sinks…` (`fan` sinks; a 4-node pipeline when `fan` is
    /// 0): two 64-message containers fit the first edge, one the others.
    fn shape(fan: usize) -> Graph {
        let mut b = GraphBuilder::new().default_capacity(64);
        b.edge_with_capacity("src", "hub", 128).unwrap();
        if fan == 0 {
            b.chain(&["hub", "mid", "sink"]).unwrap();
        }
        for i in 0..fan {
            b.edge("hub", &format!("sink{i}")).unwrap();
        }
        b.build().unwrap()
    }

    /// Interval 3 on every edge: dummies wherever the source filters.
    fn planned(g: &Graph, algorithm: Algorithm) -> AvoidanceMode {
        let mut m = IntervalMap::for_graph(g);
        for e in g.edge_ids() {
            m.set(e, DummyInterval::Finite(3));
        }
        AvoidanceMode::plan(AvoidancePlan::new(g, algorithm, m))
    }

    struct Case {
        fan: usize,
        /// The hub relays runs (`Broadcast`) or steps them (`Stepped`).
        relay: bool,
        /// The source filters two inputs in seven, irregularly.
        filtered: bool,
        mode: Option<Algorithm>,
        batch: u32,
        /// Publish a cut with this barrier once the source has run ahead.
        barrier: Option<u64>,
    }

    /// Per-task `(firings, sink_firings, delivered per output)` at the end.
    type Totals = Vec<(u64, u64, Vec<(u64, u64)>)>;

    const INPUTS: u64 = 300;

    /// Runs the case to completion on this thread; returns what every task
    /// contributed to the cut (ordered by input edge) and the final totals.
    fn run(case: &Case) -> (Vec<Contribution>, Totals) {
        let g = shape(case.fan);
        let (src, hub) = (g.node_by_name("src").unwrap(), g.node_by_name("hub").unwrap());
        let mut topo = Topology::from_graph(&g);
        if case.filtered {
            topo = topo.with(src, || Predicate::new(|seq, _| seq.wrapping_mul(0x9e37) % 7 > 1));
        }
        if !case.relay {
            topo = topo.with(hub, || Stepped(Broadcast));
        }
        let mode = case.mode.map_or(AvoidanceMode::Disabled, |a| planned(&g, a));
        let mut tasks = tasks_of(&topo, &mode, case.batch);
        let cut = Cut {
            epoch: Cell::new(0),
            barrier: case.barrier.unwrap_or(0),
            contributions: RefCell::default(),
        };
        let slice = |task: &mut Task| {
            run_task(task, INPUTS, case.batch, &mut |_| {}, &mut || false, Some(&cut))
        };
        // The source runs ahead until its channel is full (128 messages
        // delivered, one acceptance staged), and only then is the cut
        // published: its barrier lies inside what the hub is about to
        // consume.
        while !matches!(slice(&mut tasks[src.index()]), Outcome::Blocked) {}
        if case.barrier.is_some() {
            cut.epoch.set(1);
        }
        for pass in 0.. {
            assert!(pass < 10_000, "no progress");
            let mut done = true;
            for task in &mut tasks {
                done &= matches!(slice(task), Outcome::Done);
            }
            if done {
                break;
            }
        }
        let mut contributions = cut.contributions.into_inner();
        contributions.sort_by_key(|c| c.0);
        let totals = tasks
            .iter()
            .map(|t| {
                let delivered = t.outs.iter().map(|p| (p.data, p.dummies)).collect();
                (t.firings, t.sink_firings, delivered)
            })
            .collect();
        (contributions, totals)
    }

    /// Budgets, and with them container limits: scalar, odd and
    /// short, a partial run, and whole 64-message containers.
    const BATCHES: [u32; 5] = [1, 3, 4, 17, 64];

    #[test]
    fn a_barrier_at_every_position_of_a_run_splits_it_there() {
        // Containers [0, 64) and [64, 128) wait at the hub when the barrier
        // is published: every position inside either run, `first` (0, 64)
        // and `first + n` (64, 128), and one past what the source made.
        for fan in [0, 3] {
            for mode in [None, Some(Algorithm::NonPropagation), Some(Algorithm::Propagation)] {
                let case = |batch, barrier| Case {
                    fan,
                    relay: true,
                    filtered: false,
                    mode,
                    batch,
                    barrier,
                };
                let (_, uninterrupted) = run(&case(64, None));
                for barrier in 0..=130 {
                    let what = format!("fan {fan} {mode:?} barrier {barrier}");
                    let (reference, _) = run(&case(1, Some(barrier)));
                    assert_eq!(reference.len(), if fan == 0 { 4 } else { 5 }, "{what}");
                    for (input, node, delivered) in &reference[1..] {
                        // Exactly the pre-barrier prefix, fired and delivered.
                        assert_eq!(node.firings, barrier, "{what} edge {input:?}");
                        assert!(node.staged.is_empty(), "{what} edge {input:?}");
                        assert!(delivered.iter().all(|d| d.0 == barrier), "{what} edge {input:?}");
                    }
                    for batch in BATCHES {
                        let (cut, totals) = run(&case(batch, Some(barrier)));
                        assert_eq!(cut, reference, "{what} batch {batch}");
                        assert_eq!(totals, uninterrupted, "{what} batch {batch}");
                    }
                }
            }
        }
    }

    #[test]
    fn relaying_a_run_is_stepping_it() {
        // `Broadcast::fire_run` against the default per-message loop around
        // the same `fire`, on irregular runs (sequence gaps, dummies in
        // between), with and without a cut through them.
        for fan in [0, 1, 3] {
            for mode in [None, Some(Algorithm::NonPropagation), Some(Algorithm::Propagation)] {
                for batch in BATCHES {
                    for barrier in [None, Some(0), Some(37), Some(64), Some(101)] {
                        let case = |relay| Case {
                            fan,
                            relay,
                            filtered: true,
                            mode,
                            batch,
                            barrier,
                        };
                        assert_eq!(
                            run(&case(true)),
                            run(&case(false)),
                            "fan {fan} {mode:?} batch {batch} barrier {barrier:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_slice_runs_until_its_task_blocks_and_wakes_each_peer_once() {
        // A source of 1 000 inputs over a 256-message channel, budgets of
        // 64: renewed, its slice fills the channel (four containers) and
        // stages the one overshooting acceptance; refused, it yields after
        // one budget.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("src", "sink", 256).unwrap();
        let g = b.build().unwrap();
        let (src, sink) = (g.node_by_name("src").unwrap(), g.node_by_name("sink").unwrap());
        let mut tasks = tasks_of(&Topology::from_graph(&g), &AvoidanceMode::Disabled, 64);
        let slice = |task: &mut Task, renew: &mut dyn FnMut() -> bool| {
            let mut woken = Vec::new();
            let outcome = run_task(task, 1_000, 64, &mut |n| woken.push(n), renew, None);
            (outcome, woken)
        };
        // The sink runs first, finds its input empty and registers.
        let (outcome, woken) = slice(&mut tasks[sink.index()], &mut || true);
        assert!(matches!(outcome, Outcome::Blocked) && woken.is_empty());
        let mut renewals = 0;
        let (outcome, woken) = slice(&mut tasks[src.index()], &mut || {
            renewals += 1;
            true
        });
        assert!(matches!(outcome, Outcome::Blocked));
        assert_eq!((renewals, tasks[src.index()].firings), (4, 257));
        assert_eq!(tasks[src.index()].outs[0].data, 256);
        assert_eq!(woken, [sink.index() as u32], "one wake for four containers");
        // The sink drains all four in one slice and wakes the source once.
        let (outcome, woken) = slice(&mut tasks[sink.index()], &mut || true);
        assert!(matches!(outcome, Outcome::Blocked));
        assert_eq!(tasks[sink.index()].sink_firings, 256);
        assert_eq!(woken, [src.index() as u32]);
        // Refused, a slice ends at its budget: the staged overshoot and one
        // budget more.
        let (outcome, _) = slice(&mut tasks[src.index()], &mut || false);
        assert!(matches!(outcome, Outcome::Yielded));
        assert_eq!(tasks[src.index()].outs[0].data, 256 + 1 + 64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must strictly increase")]
    fn a_container_behind_a_higher_one_trips_the_monotonicity_monitor() {
        let g = shape(0);
        let topo = Topology::from_graph(&g);
        let mut tasks = tasks_of(&topo, &AvoidanceMode::Disabled, 64);
        let src = &mut tasks[g.node_by_name("src").unwrap().index()];
        for seq in [5, 3] {
            src.outs[0].stage(Message::Data { seq, payload: 0 });
            src.staged += 1;
            flush(src, &mut |_| {});
        }
    }
}
