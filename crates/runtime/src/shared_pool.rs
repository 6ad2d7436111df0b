//! A long-lived, multi-tenant work-stealing pool: many independent
//! dataflow jobs execute concurrently on one fixed set of workers.
//!
//! This is the workspace's one pooled engine.  A service multiplexing
//! thousands of small dataflows cannot afford a pool per run: `SharedPool`
//! keeps the workers alive across jobs and lets the node-tasks of any number
//! of *independent* topologies coexist in the same run queues.  Each queue entry carries its
//! job, so a worker interleaves firings of different jobs at task
//! granularity — exactly the shared-memory multicore streaming model,
//! scaled from "operators share workers" to "jobs share workers".
//!
//! ## Scheduling
//!
//! Tasks are woken by exactly the channel-event rule of the simulator's
//! worklist scheduler: a channel becoming **non-empty** wakes its consumer
//! task, a channel becoming **non-full** wakes its producer task.  Channels
//! are the lock-free SPSC rings of [`crate::spsc`], whose waiting-flag
//! protocol (register, then re-check) makes the wakeups race-free without a
//! single lock on the message path.  *Where* a woken task waits for a
//! worker — run-next slot, deque or injector — and when an idle worker is
//! unparked is the business of the private `sched` module (DESIGN.md,
//! "Scheduling (E23)"); nothing below depends on it, as long as every
//! queued task is eventually run.  The pool only says *which* worker: a
//! job's **home**, the first worker to run one of its tasks.  A wake, yield
//! or re-queue issued on the home takes its slot or deque; one issued by a
//! task another worker took is sent home.
//!
//! ## Per-job verdicts without global quiescence
//!
//! "The whole pool is idle" says nothing about one job: a healthy job can
//! keep the pool busy forever while another is wedged.  `SharedPool`
//! tracks, per job, the number of **active** tasks — tasks that are
//! queued, running, or flagged for re-run.  Jobs are independent (no
//! channel crosses a job boundary), so every wakeup a task of job `J` can
//! ever receive is issued by a running task of `J` *before* that task
//! deactivates.  Hence when `J`'s active count drops to zero the job is
//! quiescent forever, and the verdict is exact and immediate:
//!
//! * unfinished nodes remain → **deadlocked** (with blocked-node report),
//! * otherwise → **completed** —
//!
//! regardless of what every other job on the pool is doing.  This is the
//! same "ready set empty" argument as the simulator's worklist scheduler,
//! applied per job.
//!
//! A slice pays for this once: its wakes are published after it, the count
//! moved by the net (tasks woken minus its own retirement) *before* any
//! woken task is queued, so it cannot reach zero while a wake is in flight.
//!
//! ## Isolation
//!
//! A panicking node behaviour fails only its own job (verdict
//! [`JobVerdict::Failed`]); the workers and every other job keep running.
//! Dropping the pool stops the workers and settles still-undelivered jobs
//! with [`JobVerdict::Cancelled`] so no waiter hangs.
//!
//! ## Barrier snapshots without stopping the pool
//!
//! [`JobHandle::checkpoint`] captures a consistent
//! [`JobSnapshot`] of one running job while
//! every other job (and the job itself) keeps executing — an asynchronous
//! barrier snapshot in the spirit of Carbone et al.'s ABS, with sequence
//! numbers playing the role of barrier markers (see the
//! [`crate::checkpoint`] module docs for the full consistency argument).
//! The checkpointer freezes the job's sources just long enough to read a
//! barrier sequence number `k` (the maximum source cursor), publishes it,
//! and every task contributes its state exactly once at its own
//! *alignment* — the point where it would next consume or produce a
//! sequence number `≥ k` — either from inside the task-stepping loop (one
//! atomic load per firing when no snapshot is pending) or from the
//! checkpointer's sweep for tasks that are already done.  If the job
//! settles before the barrier completes, the checkpoint returns the
//! verdict instead ([`crate::checkpoint::SnapshotError::Settled`]); it
//! never hangs and never produces a torn snapshot.
//! [`SharedPool::resume_full`] restores a snapshot as a new job that
//! reports **cumulative** counts, after re-validating the exact topology
//! and plan it was captured under.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use fila_avoidance::verify::{Helpers, RunTable};
use fila_graph::fingerprint::labeled_fingerprint;
use fila_graph::{Graph, NodeId};

use crate::checkpoint::{
    self, JobSnapshot, NodeSnapshot, RestoreError, SnapshotError, SNAPSHOT_VERSION,
};
use crate::faults::{FaultArm, FaultPlan};
use crate::message::Message;
use crate::report::{BlockedReason, ExecutionReport};
use crate::sched::{lock, Local, Scheduler};
use crate::task::{self, Outcome, Task};
use crate::telemetry::{EventKind, SchedCounter, TelemetryHandle, CONTROL_LANE};
use crate::topology::Program;
use crate::wrapper::{AvoidanceMode, PropagationTrigger};

/// Task scheduling states ([`TaskSlot::state`]).
const IDLE: u8 = 0;
/// In the scheduler (slot, deque or injector).
const QUEUED: u8 = 1;
/// Currently executing on a worker.
const RUNNING: u8 = 2;
/// Executing, and a wake arrived meanwhile: re-queue after the run.
const NOTIFIED: u8 = 3;

/// [`JobState::home`] before any of the job's tasks has run.
const NO_HOME: usize = usize::MAX;

/// Job verdict encoding (`JobState::verdict`).
const JOB_RUNNING: u8 = 0;
const JOB_COMPLETED: u8 = 1;
const JOB_DEADLOCKED: u8 = 2;
const JOB_FAILED: u8 = 3;
const JOB_CANCELLED: u8 = 4;

/// How a job on a [`SharedPool`] ended.  The declaration order is the code
/// of a trace's job span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobVerdict {
    /// Every node of the job reached end-of-stream.
    Completed,
    /// The job's tasks went quiescent with unfinished nodes: a true
    /// deadlock of that job (exact, not timeout-inferred).
    Deadlocked,
    /// A node behaviour panicked; the job was abandoned.
    Failed,
    /// The pool was shut down before the job settled.
    Cancelled,
}

/// A callback invoked exactly once when a job settles (reaches its verdict
/// and its report is assembled), before waiters are released — so a
/// returning [`JobHandle::wait`] implies the hook's effects are visible.
/// Runs on a worker thread: it must not block; panics are caught and
/// discarded.
pub type SettleHook = Box<dyn FnOnce(&ExecutionReport, JobVerdict) + Send>;

/// One scheduler entry: a node-task of some job; it holds no reference count.
struct TaskRef {
    job: NonNull<JobState>,
    node: u32,
}

// SAFETY: a `TaskRef` exists only while its job's `active` counts it, and
// while `active` is positive the job's activity reference keeps it in
// `PoolCore::live`: `deactivate` takes it out at the transition to zero,
// `SharedPool::drop` after joining every worker (the entries left in the
// dropped queues are never read).  `JobState` is `Sync`; `node` is an index.
unsafe impl Send for TaskRef {}

impl TaskRef {
    fn job(&self) -> &JobState {
        // SAFETY: see `impl Send for TaskRef`.
        unsafe { self.job.as_ref() }
    }
}

/// One node-task of a job beside the scheduling state that guards it: the
/// wake CAS and the task lock of a slice touch one line, and — a `Task`
/// being several lines long — no two tasks' states share one, so waking a
/// task does not take the line another task's wake needs.
struct TaskSlot {
    state: AtomicU8,
    task: Mutex<Task>,
}

const _: () = assert!(std::mem::size_of::<TaskSlot>() >= 128, "a slot spans its own lines");

/// The counters the slices of a job write, on a line of their own: the rest
/// of [`JobState`] is read-mostly and read by every slice, on whichever
/// worker it runs.  (The `Arc<JobState>` reference counts, on the line
/// before the job's first, move only at launch, handle clones and the end
/// of the job's activity.)
#[repr(align(64))]
struct Quiescence {
    /// Live [`TaskRef`]s and the tasks running from one (see the module
    /// docs); reaching zero decides the verdict.
    active: AtomicUsize,
    unfinished: AtomicUsize,
}

/// Everything the pool tracks for one submitted job.
struct JobState {
    tasks: Vec<TaskSlot>,
    quiescence: Quiescence,
    verdict: AtomicU8,
    /// The worker that ran the job's first slice ([`NO_HOME`] until then):
    /// where its tasks are queued (see the module docs).
    home: AtomicUsize,
    /// Guards one-shot report assembly.
    delivered: AtomicBool,
    inputs: u64,
    edge_count: usize,
    started: Instant,
    slot: Mutex<DoneSlot>,
    done_cv: Condvar,
    /// The job's sources (in-degree 0), frozen briefly by
    /// [`JobHandle::checkpoint`] to pick a barrier sequence number.
    sources: Vec<NodeId>,
    /// Snapshot identity, computed once at submission.
    meta: SnapMeta,
    /// Progress marker of the snapshot this job resumed from, if any.
    resumed_from: Option<u64>,
    /// Epoch of the snapshot currently being collected (0 = none).  This is
    /// the one-atomic-load fast path `run_task` checks per firing; the
    /// barrier below is published *before* it with release ordering.
    snap_pending: AtomicU64,
    /// Barrier sequence number of the pending snapshot epoch.
    snap_barrier: AtomicU64,
    /// Snapshot collection buffers and the finished result.  Lock order:
    /// a task mutex is always taken *before* this mutex, never after.
    snap: Mutex<SnapState>,
    snap_cv: Condvar,
    /// The job's injected-fault schedule (`None` on pools without a
    /// [`FaultPlan`] — the zero-cost-when-disabled common case).
    fault: Option<Arc<FaultArm>>,
    /// The pool job serial stamped on this job's trace events
    /// (`u64::MAX` for degenerate jobs that settle synchronously and
    /// never draw a serial).
    serial: u64,
    /// Submission timestamp on the telemetry clock (0 when telemetry is
    /// off); start of the job's `EventKind::Job` span.
    t_submit_ns: u64,
    /// Node index of the task whose execution panicked (`u32::MAX` =
    /// none): the provenance a partial restart restarts downstream of.
    failed_node: AtomicU32,
}

/// The identity stamped into every snapshot of a job, so restores can
/// verify they resume under the exact certified plan.
struct SnapMeta {
    labeled_topology: u64,
    plan_digest: Option<u64>,
}

impl SnapMeta {
    fn new(g: &Graph, mode: &AvoidanceMode) -> Self {
        SnapMeta {
            labeled_topology: labeled_fingerprint(g),
            plan_digest: checkpoint::plan_digest(mode),
        }
    }
}

/// In-flight snapshot collection state (guarded by `JobState::snap`).
#[derive(Default)]
struct SnapState {
    /// Monotonic checkpoint epoch for this job; task-side `snap_epoch`
    /// markers dedup contributions against it.
    epoch: u64,
    /// Tasks that have not yet contributed to the pending epoch.
    remaining: usize,
    nodes: Vec<Option<NodeSnapshot>>,
    per_edge_data: Vec<u64>,
    per_edge_dummies: Vec<u64>,
    /// Delivered-EOS markers inferred at contribution time (a pool
    /// barrier's channels are otherwise empty at the cut — see the
    /// `checkpoint` module docs).
    channels: Vec<Vec<Message>>,
    /// The finished snapshot, or the verdict that pre-empted it.
    result: Option<Result<Box<JobSnapshot>, SnapshotError>>,
}

/// What [`SharedPool::submit_program`] and [`SharedPool::resume_full`]
/// hand to [`JobState::new`].
struct NewJob<'a> {
    program: &'a dyn Program,
    mode: &'a AvoidanceMode,
    /// One idle task per node, fresh or restored, built in place
    /// ([`TaskSlot::build`]).
    tasks: Vec<TaskSlot>,
    inputs: u64,
    started: Instant,
    /// Progress marker of the snapshot the tasks were restored from.
    resumed_from: Option<u64>,
    on_settle: Option<SettleHook>,
}

impl TaskSlot {
    /// One idle slot per node of `program`, each task built in its slot
    /// (see [`task::build_tasks`] for `fresh`).
    fn build(program: &dyn Program, mode: &AvoidanceMode, batch: u32, fresh: bool) -> Vec<Self> {
        task::build_tasks(program, mode, batch, fresh)
            .map(|task| TaskSlot {
                state: AtomicU8::new(IDLE),
                task: Mutex::new(task),
            })
            .collect()
    }
}

impl JobState {
    /// The one place a job's state is put together.  A job with nothing
    /// left to run — an empty topology, or a snapshot that caught every
    /// node done — is born `Completed` for [`PoolCore::launch`] to deliver
    /// on the spot, and never draws a serial or touches the scheduler; any
    /// other starts with its seeds ([`JobState::seeds`]) `QUEUED` and
    /// active, for it to inject, and every other task idle.
    fn new(core: &PoolCore, mut new: NewJob<'_>) -> JobState {
        let g = new.program.graph();
        let sources = g.sources();
        // A fresh task is never done.
        let unfinished = match new.resumed_from {
            None => new.tasks.len(),
            Some(_) => new
                .tasks
                .iter_mut()
                .map(|slot| slot.task.get_mut().unwrap_or_else(PoisonError::into_inner))
                .filter(|task| !task.done)
                .count(),
        };
        let runs = unfinished > 0;
        let (serial, fault) = if runs {
            core.arm_next()
        } else {
            (u64::MAX, None)
        };
        let mut job = JobState {
            tasks: new.tasks,
            quiescence: Quiescence {
                active: AtomicUsize::new(0),
                unfinished: AtomicUsize::new(unfinished),
            },
            verdict: AtomicU8::new(if runs { JOB_RUNNING } else { JOB_COMPLETED }),
            home: AtomicUsize::new(NO_HOME),
            delivered: AtomicBool::new(false),
            inputs: new.inputs,
            edge_count: g.edge_count(),
            started: new.started,
            slot: Mutex::new(DoneSlot {
                report: None,
                on_settle: new.on_settle,
            }),
            done_cv: Condvar::new(),
            sources,
            meta: SnapMeta::new(g, new.mode),
            resumed_from: new.resumed_from,
            snap_pending: AtomicU64::new(0),
            snap_barrier: AtomicU64::new(0),
            snap: Mutex::new(SnapState::default()),
            snap_cv: Condvar::new(),
            fault,
            serial,
            t_submit_ns: match (&core.telemetry, runs) {
                (Some(tele), true) => tele.now_ns(),
                _ => 0,
            },
            failed_node: AtomicU32::new(u32::MAX),
        };
        if runs {
            let mut active = 0;
            for node in job.seeds() {
                job.tasks[node as usize].state.store(QUEUED, Ordering::Relaxed);
                active += 1;
            }
            *job.quiescence.active.get_mut() = active;
        }
        job
    }

    /// The tasks a job's launch queues: a fresh job's sources — every other
    /// task starts idle, waiting on its first input (see
    /// [`task::build_tasks`]) — and every task of a resumed one.
    fn seeds(&self) -> impl Iterator<Item = u32> + '_ {
        let (sources, all) = match self.resumed_from {
            None => (&self.sources[..], 0),
            Some(_) => (&[][..], self.tasks.len() as u32),
        };
        sources.iter().map(|n| n.index() as u32).chain(0..all)
    }

    /// Moves a running job to `verdict`; false if it had one already (the
    /// first verdict stands).
    fn settle_as(&self, verdict: u8) -> bool {
        self.verdict
            .compare_exchange(JOB_RUNNING, verdict, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// The job's home worker, claimed by `worker` if it runs the first slice.
    fn home(&self, worker: usize) -> usize {
        match self.home.load(Ordering::Relaxed) {
            NO_HOME => self
                .home
                .compare_exchange(NO_HOME, worker, Ordering::Relaxed, Ordering::Relaxed)
                .map_or_else(|home| home, |_| worker),
            home => home,
        }
    }

    /// The verdict, or `None` while the job runs.
    fn settled(&self) -> Option<JobVerdict> {
        match self.verdict.load(Ordering::SeqCst) {
            JOB_COMPLETED => Some(JobVerdict::Completed),
            JOB_DEADLOCKED => Some(JobVerdict::Deadlocked),
            JOB_FAILED => Some(JobVerdict::Failed),
            JOB_CANCELLED => Some(JobVerdict::Cancelled),
            _ => None,
        }
    }

    /// Records one task's aligned state into the pending snapshot.  The
    /// caller holds the task mutex (lock order: task before snap); the
    /// final contribution assembles the [`JobSnapshot`] and wakes the
    /// checkpointer.
    fn contribute(&self, node: usize, task: &mut Task) {
        let mut snap = lock(&self.snap);
        // A settle (or a stale wakeup from a finished epoch) may have
        // fulfilled the result already; the buffers are gone then.
        if snap.result.is_some() || snap.nodes[node].is_some() {
            return;
        }
        let snap = &mut *snap;
        task.read_counts(&mut snap.per_edge_data, &mut snap.per_edge_dummies);
        for port in &task.outs {
            // An EOS-queued producer with an empty staging queue has
            // delivered its EOS marker; consumers never pop EOS, so it is
            // part of the channel state and must survive the restore.
            if task.eos_queued && port.queue.is_none() {
                snap.channels[port.edge as usize].push(Message::Eos);
            }
        }
        snap.nodes[node] = Some(task.capture());
        snap.remaining -= 1;
        if snap.remaining == 0 {
            let nodes = snap
                .nodes
                .iter_mut()
                .map(|n| n.take().expect("every task contributed"))
                .collect();
            snap.result = Some(Ok(Box::new(self.snapshot(
                nodes,
                std::mem::take(&mut snap.per_edge_data),
                std::mem::take(&mut snap.per_edge_dummies),
                std::mem::take(&mut snap.channels),
            ))));
            self.snap_pending.store(0, Ordering::Release);
            self.snap_cv.notify_all();
        }
    }

    /// Stamps `nodes` and the job-level tables with this job's snapshot
    /// identity: the one [`JobSnapshot`] header, for an aligned cut's last
    /// contributor and for a wreck.  The service-level identity is left for
    /// the service to stamp.
    fn snapshot(
        &self,
        nodes: Vec<NodeSnapshot>,
        per_edge_data: Vec<u64>,
        per_edge_dummies: Vec<u64>,
        channels: Vec<Vec<Message>>,
    ) -> JobSnapshot {
        JobSnapshot {
            version: SNAPSHOT_VERSION,
            labeled_topology: self.meta.labeled_topology,
            fingerprint: None,
            filter_signature: None,
            plan_digest: self.meta.plan_digest,
            inputs: self.inputs,
            steps: nodes.iter().map(|n| n.firings).sum(),
            sink_firings: nodes.iter().map(|n| n.sink_firings).sum(),
            per_edge_data,
            per_edge_dummies,
            channels,
            nodes,
        }
    }
}

/// The [`task::SnapSink`] view of one job, handed to [`task::run_task`] so
/// tasks contribute at their alignment point.
struct JobSnapSink<'a> {
    job: &'a JobState,
    node: usize,
    /// Flight recorder + recording worker lane, for barrier-alignment
    /// instants (`None` on untraced pools).
    telemetry: Option<&'a TelemetryHandle>,
    worker: usize,
}

impl task::SnapSink for JobSnapSink<'_> {
    fn pending(&self) -> u64 {
        self.job.snap_pending.load(Ordering::Acquire)
    }

    fn barrier(&self) -> u64 {
        self.job.snap_barrier.load(Ordering::Acquire)
    }

    fn contribute(&self, task: &mut Task) {
        if let Some(tele) = self.telemetry {
            tele.instant(
                self.worker,
                EventKind::BarrierAlign,
                self.job.serial,
                self.node as u32,
                self.job.snap_pending.load(Ordering::Acquire),
            );
        }
        if let Some(arm) = &self.job.fault {
            // Chaos: an armed alignment crash panics here, mid-barrier, on
            // the worker thread — inside `execute`'s catch_unwind region.
            arm.trip_alignment(self.job.snap_pending.load(Ordering::Acquire));
        }
        self.job.contribute(self.node, task);
    }
}

struct DoneSlot {
    report: Option<ExecutionReport>,
    on_settle: Option<SettleHook>,
}

/// A cheap point-in-time read of one running job's cumulative traffic
/// counters, taken by [`JobHandle::observe`] without stopping the job.
///
/// `per_node_firings[n] / inputs` and `per_edge_data[e] /
/// per_node_firings[producer(e)]` together give the *observed* filter
/// profile — what a drift detector compares against the declared
/// `FilterSpec` the job was certified under.  The read is **not** a
/// consistent cut (each task is sampled independently), which is fine for
/// rate estimation: every counter is monotonic, so successive observations
/// bound the true trajectory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterObservation {
    /// Accepted sequence numbers per node, indexed by node id.
    pub per_node_firings: Vec<u64>,
    /// Data messages delivered per channel, indexed by edge id.
    pub per_edge_data: Vec<u64>,
    /// Dummy messages delivered per channel, indexed by edge id.
    pub per_edge_dummies: Vec<u64>,
}

/// A handle to one submitted job; all accessors are callable any number of
/// times and from any thread.
pub struct JobHandle {
    job: Arc<JobState>,
    /// Back-reference for [`JobHandle::cancel`]; weak so an orphaned handle
    /// never keeps a dropped pool's queues alive.
    core: Weak<PoolCore>,
}

impl JobHandle {
    /// Blocks until the job settles and returns its execution report.
    pub fn wait(&self) -> ExecutionReport {
        let mut slot = lock(&self.job.slot);
        loop {
            if let Some(report) = &slot.report {
                return report.clone();
            }
            slot = self
                .job
                .done_cv
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The job's verdict, or `None` while it is still in flight.
    pub fn verdict(&self) -> Option<JobVerdict> {
        self.job.settled()
    }

    /// True once the report is available ([`JobHandle::wait`] won't block).
    pub fn is_settled(&self) -> bool {
        lock(&self.job.slot).report.is_some()
    }

    /// Captures a consistent barrier snapshot of this job while it — and
    /// every other job on the pool — keeps executing (see the module docs).
    ///
    /// Blocks until every task has contributed its aligned state, then
    /// returns the assembled [`JobSnapshot`].  Returns
    /// [`SnapshotError::Settled`] if the job reaches its verdict before the
    /// barrier completes (the checkpoint never hangs on a finished job) and
    /// [`SnapshotError::InProgress`] if another checkpoint of this job is
    /// still collecting.  Concurrent checkpoints of the *same* job may
    /// observe each other's snapshots; checkpoints of different jobs are
    /// fully independent.
    pub fn checkpoint(&self) -> Result<JobSnapshot, SnapshotError> {
        let job = &self.job;
        let node_count = job.tasks.len();
        let epoch;
        {
            let mut snap = lock(&job.snap);
            if let Some(verdict) = self.verdict() {
                return Err(SnapshotError::Settled(verdict));
            }
            if job.snap_pending.load(Ordering::SeqCst) != 0 {
                return Err(SnapshotError::InProgress);
            }
            snap.epoch += 1;
            epoch = snap.epoch;
            snap.remaining = node_count;
            snap.nodes = vec![None; node_count];
            snap.per_edge_data = vec![0; job.edge_count];
            snap.per_edge_dummies = vec![0; job.edge_count];
            snap.channels = vec![Vec::new(); job.edge_count];
            snap.result = None;
        }
        // Freeze every source just long enough to read the barrier: the
        // maximum source cursor, i.e. the first sequence number no source
        // has produced yet.  Runners hold the task mutex for their whole
        // slice, so holding all source locks pins every cursor at once.
        // The barrier is published before the epoch (release ordering via
        // SeqCst) so any task that sees the epoch sees the barrier too.
        {
            let guards: Vec<_> = job
                .sources
                .iter()
                .map(|s| lock(&job.tasks[s.index()].task))
                .collect();
            let barrier = guards
                .iter()
                .map(|task| task.next_source_seq)
                .max()
                .unwrap_or(0);
            job.snap_barrier.store(barrier, Ordering::SeqCst);
            job.snap_pending.store(epoch, Ordering::SeqCst);
        }
        // The job may have settled between the verdict check above and the
        // publish; `deliver` has already run then and nobody else will
        // fulfil the pending snapshot — do it here.
        if self.verdict().is_some() && job.snap_pending.swap(0, Ordering::SeqCst) != 0 {
            let mut snap = lock(&job.snap);
            if snap.result.is_none() {
                let verdict = self.verdict().expect("verdict checked above");
                snap.result = Some(Err(SnapshotError::Settled(verdict)));
            }
        }
        // Sweep: contribute every task that is already aligned.  Done tasks
        // never run again, so `run_task` cannot catch them; blocked tasks
        // that are already past the barrier would otherwise contribute only
        // on their next wake, which may never come for a deadlocked branch.
        for node in 0..node_count {
            if job.snap_pending.load(Ordering::SeqCst) != epoch {
                break; // collection finished (or pre-empted by a settle)
            }
            let mut task = lock(&job.tasks[node].task);
            let task = &mut *task;
            if task.snap_epoch != epoch && task.aligned_at(job.snap_barrier.load(Ordering::SeqCst))
            {
                task.snap_epoch = epoch;
                job.contribute(node, task);
            }
        }
        let mut snap = lock(&job.snap);
        loop {
            if let Some(result) = snap.result.clone() {
                return result.map(|snapshot| *snapshot);
            }
            snap = job
                .snap_cv
                .wait(snap)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Node index of the task whose execution panicked, if the job failed
    /// (`None` while running or for non-panic verdicts).  This is the
    /// provenance a partial restart re-runs the downstream cone of.
    pub fn failed_node(&self) -> Option<u32> {
        match self.job.failed_node.load(Ordering::SeqCst) {
            u32::MAX => None,
            node => Some(node),
        }
    }

    /// The job's injected-fault schedule, if the pool armed one (chaos
    /// harness plumbing; always `None` on pools without a
    /// [`FaultPlan`]).
    pub fn fault_arm(&self) -> Option<Arc<FaultArm>> {
        self.job.fault.clone()
    }

    /// Destructively captures the **wreck** of a settled job: every task's
    /// verbatim final state, with each channel's in-flight contents drained
    /// out of its ring.  Unlike [`JobHandle::checkpoint`] this is *not* a
    /// consistent barrier cut — it is the literal state the job died in,
    /// which is exactly what a partial restart needs for the subgraph that
    /// is **not** being re-run (see
    /// [`JobSnapshot::splice_downstream`]).
    ///
    /// Returns [`SnapshotError::InProgress`] while the job is still in
    /// flight.  Meaningful for jobs that settled on their own (completed /
    /// deadlocked / failed — their task set is quiescent by the time the
    /// report is delivered); a *cancelled* job's wreck may interleave with
    /// tasks still finishing their last batch and should not be trusted.
    /// Draining the rings makes the wreck unrepeatable: salvage once.
    pub fn salvage(&self) -> Result<JobSnapshot, SnapshotError> {
        let job = &self.job;
        if !self.is_settled() {
            return Err(SnapshotError::InProgress);
        }
        let mut per_edge_data = vec![0; job.edge_count];
        let mut per_edge_dummies = vec![0; job.edge_count];
        let mut channels = vec![Vec::new(); job.edge_count];
        let nodes = job
            .tasks
            .iter()
            .map(|slot| {
                // Tolerate poisoning: the panicked task's mutex is poisoned
                // but its state (and its rings) are still meaningful.
                let mut task = lock(&slot.task);
                task.read_counts(&mut per_edge_data, &mut per_edge_dummies);
                task.drain_inputs(&mut channels);
                task.capture()
            })
            .collect();
        Ok(job.snapshot(nodes, per_edge_data, per_edge_dummies, channels))
    }

    /// Samples the job's cumulative traffic counters while it keeps
    /// running: one brief task-mutex lock per node, no barrier, no effect
    /// on scheduling.  Callable before and after the job settles (after, it
    /// returns the final counts).  This is the drift detector's polling
    /// primitive; for a consistent cut use [`JobHandle::checkpoint`].
    pub fn observe(&self) -> FilterObservation {
        let job = &self.job;
        let mut obs = FilterObservation {
            per_node_firings: vec![0; job.tasks.len()],
            per_edge_data: vec![0; job.edge_count],
            per_edge_dummies: vec![0; job.edge_count],
        };
        for (idx, slot) in job.tasks.iter().enumerate() {
            let task = lock(&slot.task);
            obs.per_node_firings[idx] = task.firings;
            task.read_counts(&mut obs.per_edge_data, &mut obs.per_edge_dummies);
        }
        obs
    }

    /// Cancels the job: its verdict becomes [`JobVerdict::Cancelled`], its
    /// report (with counters as of the cancellation) is delivered to
    /// waiters, and any of its tasks still sitting in run queues are
    /// dropped on pop — the pool itself never stops.  Returns `true` if
    /// this call settled the job, `false` if it had already settled (the
    /// existing verdict stands).  This is the response ladder's retirement
    /// step: the old incarnation of a hot-swapped job is cancelled after
    /// its snapshot is taken, and a drift-cancelled job is cancelled
    /// outright.
    pub fn cancel(&self) -> bool {
        if !self.job.settle_as(JOB_CANCELLED) {
            return false;
        }
        if let Some(core) = self.core.upgrade() {
            core.deliver(&self.job);
        }
        // If the pool is already gone, its `Drop` has drained `live` and
        // delivered every job — the CAS above could not have succeeded.
        true
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("nodes", &self.job.tasks.len())
            .field("verdict", &self.verdict())
            .finish()
    }
}

struct PoolCore {
    /// Where queued tasks wait and idle workers park (see `sched.rs`).
    sched: Scheduler<TaskRef>,
    /// Each job's activity reference, until its activity ends (see
    /// [`TaskRef`]); drained on shutdown so every waiter gets a report.
    live: Mutex<Vec<Arc<JobState>>>,
    batch: u32,
    /// The pool-wide fault-injection schedule (`None` in production).
    faults: Option<Arc<FaultPlan>>,
    /// Monotonic job serial, the key [`FaultPlan::arm`] maps to a fault
    /// schedule.
    next_serial: AtomicU64,
    /// The flight recorder (`None` in production — every hook below is a
    /// never-taken branch then, leaving the hot path unchanged).
    telemetry: Option<TelemetryHandle>,
}

/// How a [`SharedPool`] is configured ([`SharedPool::with`]); the default
/// is [`SharedPool::new`]`(0)`.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads (`0` = one per available hardware thread).
    pub workers: usize,
    /// Acceptances a task makes per budget (clamped to ≥ 1): a slice runs
    /// until its task blocks, renewing the budget each time it is spent
    /// (see `sched.rs`), and a container carries at most one budget's
    /// messages (see [`crate::container`]).
    pub batch: u32,
    /// A deterministic fault-injection schedule (see [`crate::faults`]).
    /// `None` is the production configuration: jobs carry no arm and the
    /// hot path pays one predictable branch per task execution.
    pub faults: Option<Arc<FaultPlan>>,
    /// Create the flight recorder: one [`crate::telemetry`] lane per worker
    /// recording firing spans, steals, parks, blocked stalls, barrier
    /// alignments, faults, job spans and the scheduler's counters (retrieve
    /// it with [`SharedPool::telemetry_handle`]).  When false no recorder
    /// exists and every hook is a never-taken `None` branch.
    pub telemetry: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            workers: 0,
            batch: 64,
            faults: None,
            telemetry: false,
        }
    }
}

/// The long-lived multi-job work-stealing pool (see the module docs).
pub struct SharedPool {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool")
            .field("workers", &self.workers.len())
            .field("batch", &self.core.batch)
            .finish()
    }
}

impl SharedPool {
    /// Spawns a pool with `workers` worker threads (`0` = one per available
    /// hardware thread) and every other option at its default.
    pub fn new(workers: usize) -> Self {
        Self::with(PoolOptions {
            workers,
            ..PoolOptions::default()
        })
    }

    /// Spawns a pool configured by `options`.
    pub fn with(options: PoolOptions) -> Self {
        let workers = match options.workers {
            0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            workers => workers,
        };
        let telemetry = options.telemetry.then(|| TelemetryHandle::new(workers));
        let core = Arc::new(PoolCore {
            sched: Scheduler::new(workers, telemetry.clone()),
            live: Mutex::new(Vec::new()),
            batch: options.batch.max(1),
            faults: options.faults,
            next_serial: AtomicU64::new(0),
            telemetry,
        });
        let handles = (0..workers)
            .map(|w| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("fila-pool-{w}"))
                    .spawn(move || core.worker_loop(w))
                    .expect("spawn pool worker")
            })
            .collect();
        SharedPool {
            core,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The pool's flight recorder, if it was created with
    /// [`PoolOptions::telemetry`]; `None` on production pools.
    pub fn telemetry_handle(&self) -> Option<TelemetryHandle> {
        self.core.telemetry.clone()
    }

    /// Submits a job with deadlock avoidance disabled.
    pub fn submit(&self, program: &dyn Program, inputs: u64) -> JobHandle {
        self.submit_with(program, AvoidanceMode::Disabled, inputs)
    }

    /// Submits a job under the given avoidance mode.
    pub fn submit_with(&self, program: &dyn Program, mode: AvoidanceMode, inputs: u64) -> JobHandle {
        self.submit_program(program, mode, inputs, None)
    }

    /// [`SharedPool::submit_program`].  `_trigger` is read by nothing:
    /// `ledger/` passes it, which is the only reason it exists.
    pub fn submit_full(
        &self,
        program: &dyn Program,
        mode: AvoidanceMode,
        _trigger: PropagationTrigger,
        inputs: u64,
        on_settle: Option<SettleHook>,
    ) -> JobHandle {
        self.submit_program(program, mode, inputs, on_settle)
    }

    /// The full submission form: any [`Program`], read once here and not
    /// kept, the avoidance mode and an optional settle hook invoked exactly
    /// once (on a worker thread) when the job reaches its verdict.
    pub fn submit_program(
        &self,
        program: &dyn Program,
        mode: AvoidanceMode,
        inputs: u64,
        on_settle: Option<SettleHook>,
    ) -> JobHandle {
        let started = Instant::now();
        let tasks = TaskSlot::build(program, &mode, self.core.batch, true);
        self.core.launch(NewJob {
            program,
            mode: &mode,
            tasks,
            inputs,
            started,
            resumed_from: None,
            on_settle,
        })
    }

    /// Restores a [`JobSnapshot`] as a new job on this pool: the job picks
    /// up exactly where the snapshot was captured, and its report counts
    /// are **cumulative** — they include the pre-snapshot progress, so a
    /// killed-and-restored job's final report equals an uninterrupted
    /// run's.
    ///
    /// The snapshot is first re-validated against the topology and
    /// avoidance mode it is being resumed under; any drift (different
    /// labeled topology, different plan intervals, or a foreign/corrupted
    /// blob) is a [`RestoreError`] — a snapshot is never silently re-planned
    /// onto a different certification.  The one sanctioned plan change, an
    /// adaptive hot swap, rebases a copy of the snapshot onto the new plan
    /// first ([`JobSnapshot::rebase`]) and comes through here like any
    /// other restore.  The program is read here and not kept, as in
    /// [`SharedPool::submit_program`]; `_trigger` is read by nothing, as in
    /// [`SharedPool::submit_full`].
    pub fn resume_full(
        &self,
        program: &dyn Program,
        mode: AvoidanceMode,
        _trigger: PropagationTrigger,
        snapshot: &JobSnapshot,
        on_settle: Option<SettleHook>,
    ) -> Result<JobHandle, RestoreError> {
        snapshot.validate_for(program, &mode)?;
        let started = Instant::now();
        let mut tasks = TaskSlot::build(program, &mode, self.core.batch, false);
        for (slot, node) in tasks.iter_mut().zip(&snapshot.nodes) {
            lock(&slot.task).restore(node, snapshot)?;
        }
        // Done tasks retire themselves on their first run; a snapshot that
        // caught every node done settles synchronously.
        Ok(self.core.launch(NewJob {
            program,
            mode: &mode,
            tasks,
            inputs: snapshot.inputs,
            started,
            resumed_from: Some(snapshot.steps),
            on_settle,
        }))
    }
}

impl Helpers for SharedPool {
    fn offer(&self, table: &Arc<RunTable>) {
        self.core.sched.offer(table);
    }

    fn withdraw(&self, table: &Arc<RunTable>) {
        self.core.sched.withdraw(table);
    }
}

impl Drop for SharedPool {
    /// Stops the workers and settles every still-undelivered job with
    /// [`JobVerdict::Cancelled`], so no [`JobHandle::wait`] hangs.  Workers
    /// finish at most their current slice.
    fn drop(&mut self) {
        self.core.sched.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let live: Vec<Arc<JobState>> = lock(&self.core.live).drain(..).collect();
        for job in live {
            job.settle_as(JOB_CANCELLED);
            self.core.deliver(&job);
        }
    }
}

impl PoolCore {
    /// Draws the next job serial and maps it through the fault plan (if
    /// any) to the job's arm (`None` on production pools).  The serial is
    /// also the job's identity in the flight-recorder stream; it is drawn
    /// here and nowhere else, so the fault plan's serial→arm mapping stays
    /// bit-identical with or without telemetry.
    fn arm_next(&self) -> (u64, Option<Arc<FaultArm>>) {
        let serial = self.next_serial.fetch_add(1, Ordering::SeqCst);
        let arm = self.faults.as_ref().and_then(|plan| plan.arm(serial));
        (serial, arm)
    }

    /// Builds the job, registers it and queues its seeds — a fresh job's
    /// sources, a resumed job's every task ([`JobState::seeds`]) — in one
    /// injector batch with at most one unpark; from then on the job is
    /// scheduled purely by channel events.  Unless it has nothing to run:
    /// then it settles right here, synchronously, like any other job.
    fn launch(self: &Arc<Self>, new: NewJob<'_>) -> JobHandle {
        let job = Arc::new(JobState::new(self, new));
        if job.verdict.load(Ordering::SeqCst) == JOB_RUNNING {
            // The activity's reference, for `active`'s initial seed count.
            lock(&self.live).push(Arc::clone(&job));
            let ptr = NonNull::from(&*job);
            self.sched
                .inject(job.seeds().map(|node| TaskRef { job: ptr, node }));
        } else {
            self.deliver(&job);
        }
        JobHandle {
            job,
            core: Arc::downgrade(self),
        }
    }

    fn worker_loop(&self, worker: usize) {
        let mut local = self.sched.local(worker);
        let mut woken = Vec::new();
        while let Some((tref, stolen_from)) = self.sched.next(&mut local) {
            if let (Some(tele), Some(victim)) = (&self.telemetry, stolen_from) {
                tele.instant(
                    worker,
                    EventKind::Steal,
                    tref.job().serial,
                    tref.node,
                    victim as u64,
                );
            }
            self.execute(&mut local, &mut woken, tref);
        }
    }

    /// The channel-event wakeup for `job`'s node, issued by the running
    /// task: an idle task is marked queued and collected in `woken` for
    /// [`PoolCore::publish`], a running one is flagged for re-queueing.
    fn wake(job: &JobState, node: u32, woken: &mut Vec<u32>) {
        let state = &job.tasks[node as usize].state;
        let mut current = state.load(Ordering::Acquire);
        loop {
            let target = match current {
                IDLE => QUEUED,
                RUNNING => NOTIFIED,
                // Already queued or already flagged: nothing to do.
                _ => return,
            };
            match state.compare_exchange(current, target, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    if target == QUEUED {
                        woken.push(node);
                    }
                    return;
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Runs one slice of `tref`'s task, publishes what it woke (into the
    /// worker's reusable `woken`) and places the task by its outcome.
    fn execute(&self, local: &mut Local<TaskRef>, woken: &mut Vec<u32>, tref: TaskRef) {
        let worker = local.index();
        let job = tref.job();
        let node = tref.node as usize;
        let slot = &job.tasks[node];
        if job.verdict.load(Ordering::SeqCst) != JOB_RUNNING {
            // The job settled (failed or was cancelled) while this task sat
            // in a queue: drop it and retire its activity.
            slot.state.store(IDLE, Ordering::Release);
            drop(self.deactivate(job));
            return;
        }
        let home = job.home(worker);
        slot.state.store(RUNNING, Ordering::Release);
        enum Exec {
            Normal(Outcome, bool),
            Panicked,
        }
        let mut renewals = 0;
        let exec = {
            let mut task = lock(&slot.task);
            let was_done = task.done;
            let sink = JobSnapSink {
                job,
                node,
                telemetry: self.telemetry.as_ref(),
                worker,
            };
            if let Some(tele) = &self.telemetry {
                if task.last_worker != worker {
                    if task.last_worker != usize::MAX {
                        tele.count(worker, SchedCounter::Migration, 1);
                    }
                    task.last_worker = worker;
                }
            }
            // Ring-full probe doubles as the slice timestamp: when this
            // worker's lane has no room, every event below would be dropped
            // anyway, so the whole slice skips instrumentation for the
            // price of two atomic loads (see `TelemetryHandle::slice_start`).
            let slice_start = self
                .telemetry
                .as_ref()
                .and_then(|tele| tele.slice_start(worker))
                .map(|t0| (t0, task.firings, task.delivered()));
            let result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(arm) = &job.fault {
                    // Chaos: an armed firing crash panics here, exactly
                    // like a buggy node behaviour would.
                    arm.tick_execute();
                }
                task::run_task(
                    &mut task,
                    job.inputs,
                    self.batch,
                    &mut |n| Self::wake(job, n, woken),
                    &mut || self.sched.renew(worker, &mut renewals),
                    Some(&sink),
                )
            }));
            match result {
                Ok(outcome) => {
                    if let (Some(tele), Some((t0, fired_before, delivered_before))) =
                        (&self.telemetry, slice_start)
                    {
                        // The span arg is the *messages delivered* in the
                        // slice (data + dummies shipped into rings), so the
                        // firing spans of a trace sum to the job's total
                        // traffic regardless of container batching.
                        let fired = task.firings - fired_before;
                        let delivered = task.delivered() - delivered_before;
                        if fired > 0 || delivered > 0 {
                            tele.span(
                                worker,
                                EventKind::Firing,
                                job.serial,
                                tref.node,
                                t0,
                                delivered,
                            );
                        }
                        if matches!(outcome, Outcome::Blocked) {
                            if let Some(reason) = task.blocked_on() {
                                let (kind, edge) = match reason {
                                    BlockedReason::WaitingForSpace(e) => {
                                        (EventKind::BlockedSpace, e.index() as u64)
                                    }
                                    BlockedReason::WaitingForInput(e) => {
                                        (EventKind::BlockedInput, e.index() as u64)
                                    }
                                };
                                tele.instant(worker, kind, job.serial, tref.node, edge);
                            }
                        }
                    }
                    Exec::Normal(outcome, task.done && !was_done)
                }
                Err(_) => {
                    if let Some(tele) = &self.telemetry {
                        tele.instant(worker, EventKind::Fault, job.serial, tref.node, 0);
                    }
                    Exec::Panicked
                }
            }
        };
        match exec {
            Exec::Panicked => {
                // Record which node blew up (first panic wins) — the
                // provenance a partial restart re-runs downstream of.
                let _ = job.failed_node.compare_exchange(
                    u32::MAX,
                    tref.node,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                // The behaviour blew up: fail this job only.  Peer tasks of
                // the job wind down as they block (or get dropped from the
                // queues by the verdict check above, as are the tasks this
                // slice woke); every other job on the pool is untouched.
                job.settle_as(JOB_FAILED);
                slot.state.store(IDLE, Ordering::Release);
                drop(self.publish(local, job, home, woken, true));
            }
            Exec::Normal(outcome, newly_done) => {
                if newly_done {
                    job.quiescence.unfinished.fetch_sub(1, Ordering::SeqCst);
                }
                match outcome {
                    Outcome::Done => {
                        // Stale flag wakeups may still re-queue this task;
                        // it will no-op.
                        slot.state.store(IDLE, Ordering::Release);
                        drop(self.publish(local, job, home, woken, true));
                    }
                    Outcome::Yielded => {
                        slot.state.store(QUEUED, Ordering::Release);
                        self.publish(local, job, home, woken, false);
                        self.requeue(local, home, tref, false);
                    }
                    Outcome::Blocked => {
                        let idle = slot.state.compare_exchange(
                            RUNNING,
                            IDLE,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        if idle.is_err() {
                            // A wake arrived while we ran (state is
                            // NOTIFIED): the event may have landed before
                            // our final re-check, so the task must run
                            // again (it stays active).
                            slot.state.store(QUEUED, Ordering::Release);
                            self.publish(local, job, home, woken, false);
                            self.requeue(local, home, tref, true);
                        } else {
                            drop(self.publish(local, job, home, woken, true));
                        }
                    }
                }
            }
        }
    }

    /// Queues `tref`, which ran on `local`'s worker: on the job's `home`
    /// into the run-next slot (`next`) or behind the deque, from any other
    /// worker onto the home's deque.
    fn requeue(&self, local: &mut Local<TaskRef>, home: usize, tref: TaskRef, next: bool) {
        if home != local.index() {
            self.sched.send(local, home, [tref]);
        } else if next {
            self.sched.schedule(local, tref);
        } else {
            self.sched.defer(local, tref);
        }
    }

    /// Moves `job`'s activity count by the net of the slice's wakes and its
    /// runner's retirement — one write at most, none when one woken task
    /// takes over a retiring runner's unit (a hand-off) — and only then
    /// queues the woken tasks in wake order: on the job's `home` the last
    /// into the run-next slot, from any other worker all onto the home's
    /// deque.  Returns what [`PoolCore::deactivate`] returns.
    fn publish(
        &self,
        local: &mut Local<TaskRef>,
        job: &JobState,
        home: usize,
        woken: &mut Vec<u32>,
        retiring: bool,
    ) -> Option<Arc<JobState>> {
        match (woken.len(), retiring) {
            (0, true) => return self.deactivate(job),
            (0, false) => return None,
            (1, true) => {
                if let Some(tele) = &self.telemetry {
                    tele.count(local.index(), SchedCounter::Handoff, 1);
                }
            }
            (woke, _) => {
                let net = woke - usize::from(retiring);
                let before = job.quiescence.active.fetch_add(net, Ordering::SeqCst);
                debug_assert_ne!(before, 0, "a publication found no activity");
            }
        }
        if let Some(arm) = &job.fault {
            // Chaos: a bounded budget of delayed wakeups.
            woken.iter().for_each(|_| arm.delay_wake());
        }
        let ptr = NonNull::from(job);
        let tasks = woken.drain(..).map(|node| TaskRef { job: ptr, node });
        if home == local.index() {
            tasks.for_each(|tref| self.sched.schedule(local, tref));
        } else {
            self.sched.send(local, home, tasks);
        }
        None
    }

    /// Retires one unit of job activity; the task that drops the count to
    /// zero decides the verdict (see the module docs), delivers the report
    /// and returns the activity reference, to drop after its last use of `job`.
    fn deactivate(&self, job: &JobState) -> Option<Arc<JobState>> {
        let before = job.quiescence.active.fetch_sub(1, Ordering::SeqCst);
        debug_assert_ne!(before, 0, "an activity count went below zero");
        if before != 1 {
            return None;
        }
        debug_assert!(
            job.tasks
                .iter()
                .all(|slot| slot.state.load(Ordering::Acquire) == IDLE),
            "a job's activity ended with a task not idle"
        );
        let verdict = if job.quiescence.unfinished.load(Ordering::SeqCst) == 0 {
            JOB_COMPLETED
        } else {
            JOB_DEADLOCKED
        };
        // A Failed/Cancelled verdict set earlier wins; Completed/Deadlocked
        // only fills in a still-running slot.
        job.settle_as(verdict);
        self.deliver(job);
        let mut live = lock(&self.live);
        let at = live.iter().position(|j| std::ptr::eq(Arc::as_ptr(j), job));
        Some(live.swap_remove(at.expect("a job with activity is live")))
    }

    /// One-shot report assembly + waiter/hook notification.
    fn deliver(&self, job: &JobState) {
        if job.delivered.swap(true, Ordering::SeqCst) {
            return;
        }
        let verdict = job.settled().unwrap_or(JobVerdict::Cancelled);
        // A checkpoint still pending at settle time can never complete (no
        // task will ever contribute again); fulfil it with the verdict so
        // the checkpointer returns instead of hanging.
        if job.snap_pending.swap(0, Ordering::SeqCst) != 0 {
            let mut snap = lock(&job.snap);
            if snap.result.is_none() {
                snap.result = Some(Err(SnapshotError::Settled(verdict)));
            }
            job.snap_cv.notify_all();
        }
        // The job's whole-lifetime span; `deliver` may run on any thread
        // (worker, canceller, pool drop), so it goes to the control lane.
        if let Some(tele) = &self.telemetry {
            if job.serial != u64::MAX {
                let code = verdict as u64;
                tele.span(CONTROL_LANE, EventKind::Job, job.serial, u32::MAX, job.t_submit_ns, code);
            }
        }
        let mut report = task::assemble_report(
            job.tasks.iter().map(|slot| &slot.task),
            job.edge_count,
            job.inputs,
            verdict == JobVerdict::Deadlocked,
        );
        report.completed = verdict == JobVerdict::Completed;
        report.wall = job.started.elapsed();
        report.resumed_from = job.resumed_from;
        // The hook runs BEFORE the report is published, so a returning
        // `JobHandle::wait` implies the hook's effects (e.g. the service's
        // in-flight slot release) are visible — but a panicking hook is
        // caught and discarded: it must neither hang waiters nor unwind
        // through (and kill) a worker.
        let hook = lock(&job.slot).on_settle.take();
        if let Some(hook) = hook {
            let _ = catch_unwind(AssertUnwindSafe(|| hook(&report, verdict)));
        }
        let mut slot = lock(&job.slot);
        slot.report = Some(report);
        job.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::Predicate;
    use crate::Simulator;
    use fila_avoidance::{Algorithm, Planner};
    use fila_graph::{Graph, GraphBuilder};
    use std::sync::atomic::AtomicU32;

    fn fig2(buffer: u64) -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", buffer).unwrap();
        b.edge_with_capacity("B", "C", buffer).unwrap();
        b.edge_with_capacity("A", "C", buffer).unwrap();
        b.build().unwrap()
    }

    fn pipeline(n: usize) -> Graph {
        let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = GraphBuilder::new().default_capacity(4);
        b.chain(&refs).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shared_pool_matches_simulator_counts() {
        let pool = SharedPool::new(3);
        // Fig. 2 with A filtering most of A->C, under both protocols, and an
        // unfiltered 64-node chain of capacity-1 channels.
        let mut cases = vec![(fig2(4), Some(Algorithm::Propagation), 4, 400)];
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            cases.push((fig2(2), Some(algorithm), 5, 500));
        }
        let names: Vec<String> = (0..64).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = GraphBuilder::new();
        b.chain(&refs).unwrap();
        cases.push((b.build().unwrap(), None, 1, 10));
        for (g, algorithm, period, inputs) in cases {
            let mode = algorithm.map_or(AvoidanceMode::Disabled, |algorithm| {
                AvoidanceMode::plan(Planner::new(&g).algorithm(algorithm).plan().unwrap())
            });
            let mut topo = crate::Topology::from_graph(&g);
            if let Some(a) = g.node_by_name("A") {
                topo = topo.with(a, move || {
                    Predicate::new(move |seq, out| out == 0 || seq % period == 0)
                });
            }
            let sim = Simulator::new(&topo).avoidance(mode.clone()).run(inputs);
            let pooled = pool.submit_with(&topo, mode, inputs).wait();
            assert!(sim.completed && pooled.completed, "{algorithm:?}: {sim:?}");
            assert_eq!(sim.per_edge_data, pooled.per_edge_data, "{algorithm:?}");
            assert_eq!(sim.per_edge_dummies, pooled.per_edge_dummies, "{algorithm:?}");
            assert_eq!(sim.sink_firings, pooled.sink_firings, "{algorithm:?}");
        }
    }

    #[test]
    fn panicking_behaviour_fails_only_its_job() {
        let pool = SharedPool::new(2);
        let mut b = GraphBuilder::new();
        b.chain(&["s", "m", "t"]).unwrap();
        let g = b.build().unwrap();
        let m = g.node_by_name("m").unwrap();
        let bad = crate::Topology::from_graph(&g).with(m, || {
            Predicate::new(|seq, _out| {
                assert!(seq < 5, "behaviour blew up at seq {seq}");
                true
            })
        });
        let g2 = pipeline(16);
        let good = crate::Topology::from_graph(&g2);
        let h_bad = pool.submit(&bad, 100);
        let h_good = pool.submit(&good, 500);
        let r_bad = h_bad.wait();
        assert_eq!(h_bad.verdict(), Some(JobVerdict::Failed));
        assert!(!r_bad.completed && !r_bad.deadlocked);
        let r_good = h_good.wait();
        assert!(r_good.completed, "{r_good:?}");
        // Workers survived the panic: the pool accepts and finishes new work.
        let h3 = pool.submit(&good, 10);
        assert!(h3.wait().completed);
    }

    #[test]
    fn settle_hook_fires_exactly_once() {
        let pool = SharedPool::new(2);
        let g = pipeline(4);
        let topo = crate::Topology::from_graph(&g);
        let count = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&count);
        let h = pool.submit_full(
            &topo,
            AvoidanceMode::Disabled,
            PropagationTrigger::default(),
            25,
            Some(Box::new(move |report, verdict| {
                assert_eq!(verdict, JobVerdict::Completed);
                assert_eq!(report.sink_firings, 25);
                c.fetch_add(1, Ordering::SeqCst);
            })),
        );
        let _ = h.wait();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_settle_hook_neither_hangs_nor_kills_workers() {
        let pool = SharedPool::new(1);
        let g = pipeline(3);
        let topo = crate::Topology::from_graph(&g);
        let h = pool.submit_full(
            &topo,
            AvoidanceMode::Disabled,
            PropagationTrigger::default(),
            10,
            Some(Box::new(|_report, _verdict| panic!("hook blew up"))),
        );
        let r = h.wait(); // must not hang despite the panicking hook
        assert!(r.completed, "{r:?}");
        // The worker survived: new work still executes.
        let h2 = pool.submit(&topo, 5);
        assert!(h2.wait().completed);
    }

    #[test]
    fn empty_topology_settles_synchronously() {
        let pool = SharedPool::new(1);
        let topo = crate::Topology::from_graph(&Graph::new());
        let h = pool.submit(&topo, 7);
        assert!(h.is_settled());
        let r = h.wait();
        assert!(r.completed);
        assert_eq!(r.inputs_offered, 7);
    }

    #[test]
    fn dropping_the_pool_cancels_unfinished_jobs() {
        let g = pipeline(2);
        let src = g.single_source().unwrap();
        // A slow source: each firing sleeps, so the job cannot finish
        // before the pool is dropped.
        let topo = crate::Topology::from_graph(&g).with(src, || {
            Predicate::new(|_seq, _out| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                true
            })
        });
        let handle = {
            let pool = SharedPool::with(PoolOptions {
                workers: 1,
                batch: 1,
                ..PoolOptions::default()
            });
            let h = pool.submit(&topo, 10_000);
            // `pool` dropped here: shutdown, join, cancel.
            h
        };
        let r = handle.wait();
        assert_eq!(handle.verdict(), Some(JobVerdict::Cancelled));
        assert!(!r.completed && !r.deadlocked);
    }

    #[test]
    fn a_jobs_memory_is_released_however_it_ends() {
        // The activity's reference goes right after `deliver`, so poll a
        // little past `wait`.
        let released = |what: &str, handle: &JobHandle| {
            let started = Instant::now();
            while Arc::strong_count(&handle.job) != 1 {
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(30),
                    "{what}: the job still has {} owners",
                    Arc::strong_count(&handle.job)
                );
                std::thread::yield_now();
            }
        };
        let pool = SharedPool::new(2);

        let completed = pool.submit(&crate::Topology::from_graph(&pipeline(4)), 50);
        assert!(completed.wait().completed);
        released("completed", &completed);

        let g = fig2(1);
        let a = g.node_by_name("A").unwrap();
        let wedged =
            crate::Topology::from_graph(&g).with(a, || Predicate::new(|_, out| out == 0));
        let deadlocked = pool.submit(&wedged, 100);
        assert!(deadlocked.wait().deadlocked);
        released("deadlocked", &deadlocked);

        let g = pipeline(3);
        let m = g.node_by_name("n1").unwrap();
        let bad = crate::Topology::from_graph(&g).with(m, || {
            Predicate::new(|seq, _| seq < 5 || panic!("blew up at {seq}"))
        });
        let failed = pool.submit(&bad, 100);
        failed.wait();
        assert_eq!(failed.verdict(), Some(JobVerdict::Failed));
        released("failed", &failed);

        // Cancelled with every task still queued behind a slice that waits
        // for the test to open the gate.
        let pool = SharedPool::new(1);
        let gate = Arc::new(Mutex::new(()));
        let entered = Arc::new(AtomicBool::new(false));
        let closed = lock(&gate);
        let g = pipeline(2);
        let source = g.single_source().unwrap();
        let (gate_in, entered_in) = (Arc::clone(&gate), Arc::clone(&entered));
        let slow = crate::Topology::from_graph(&g).with(source, move || {
            let (gate, entered) = (Arc::clone(&gate_in), Arc::clone(&entered_in));
            Predicate::new(move |_, _| {
                entered.store(true, Ordering::SeqCst);
                drop(lock(&gate));
                true
            })
        });
        let slow = pool.submit(&slow, 3);
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let cancelled = pool.submit(&crate::Topology::from_graph(&pipeline(4)), 50);
        assert!(cancelled.cancel());
        assert_eq!(
            Arc::strong_count(&cancelled.job),
            2,
            "queued tasks keep the activity"
        );
        drop(closed);
        assert!(slow.wait().completed);
        released("cancelled", &cancelled);

        // The pool dropped while a slow job is live: no wait, no poll.
        let g = pipeline(2);
        let source = g.single_source().unwrap();
        let slow = crate::Topology::from_graph(&g).with(source, || {
            Predicate::new(|_, _| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                true
            })
        });
        let live = {
            let pool = SharedPool::new(1);
            pool.submit(&slow, 10_000)
        };
        assert_eq!(live.verdict(), Some(JobVerdict::Cancelled));
        assert_eq!(Arc::strong_count(&live.job), 1, "pool dropped");
    }
}
