//! The pooled engine for **one** run: a facade over [`crate::SharedPool`].
//!
//! One OS thread per node caps an engine at a few thousand nodes (and leaves
//! most of those threads blocked in the kernel at any instant).  The pool
//! decouples *workers* from *operators* the way shared-memory streaming
//! engines do: `N` workers (default [`std::thread::available_parallelism`])
//! drive every node as a cooperatively scheduled task.  `PooledExecutor` is
//! the builder-style,
//! run-to-a-report front of that engine: [`PooledExecutor::run`] spawns a
//! [`SharedPool`], submits the topology as its only job, waits for the
//! verdict and tears the pool down.  Scheduling, wakeups and the run loops
//! are the pool's (see its module docs); nothing is duplicated here.
//!
//! ## Exact deadlock detection
//!
//! The verdict is the pool's per-job quiescence rule: every task that *can*
//! progress is queued, running, or has a waiting flag registered on the
//! channel that will next enable it, so the job's active-task count
//! reaching zero with unfinished nodes **is** a deadlock — the same "ready
//! set empty" argument as the simulator, exact and immediate; no
//! quiet-period watchdog is involved.
//!
//! The per-node semantics (acceptance rule, dummy wrappers, per-channel
//! independent delivery) are identical to [`crate::Simulator`]'s, and a
//! property test (`tests/engine_equivalence.rs`) pins the two engines to the
//! same completion/deadlock verdicts and per-edge message counts.

use std::num::NonZeroUsize;
use std::sync::Arc;

use fila_avoidance::AvoidancePlan;

use crate::container::Batching;
use crate::report::ExecutionReport;
use crate::shared_pool::{JobVerdict, PoolOptions, SharedPool};
use crate::topology::Topology;
use crate::wrapper::{AvoidanceMode, PropagationTrigger};

/// Pooled work-stealing execution engine.
#[derive(Debug, Clone)]
pub struct PooledExecutor<'t> {
    topology: &'t Topology,
    mode: AvoidanceMode,
    trigger: PropagationTrigger,
    workers: Option<NonZeroUsize>,
    batch: u32,
    batching: Batching,
}

impl<'t> PooledExecutor<'t> {
    /// Creates an executor with deadlock avoidance disabled, one worker per
    /// available hardware thread, a firing batch of 64 per task wake, and
    /// message batching on (the [`Batching`] default).
    pub fn new(topology: &'t Topology) -> Self {
        PooledExecutor {
            topology,
            mode: AvoidanceMode::Disabled,
            trigger: PropagationTrigger::default(),
            workers: None,
            batch: 64,
            batching: Batching::default(),
        }
    }

    /// Enables deadlock avoidance following `plan`.
    pub fn with_plan(mut self, plan: &AvoidancePlan) -> Self {
        self.mode = AvoidanceMode::plan(plan.clone());
        self
    }

    /// Enables deadlock avoidance following an already-shared plan without
    /// copying the interval table.
    pub fn with_shared_plan(mut self, plan: Arc<AvoidancePlan>) -> Self {
        self.mode = AvoidanceMode::Plan(plan);
        self
    }

    /// Sets the avoidance mode explicitly.
    pub fn avoidance(mut self, mode: AvoidanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the Propagation-protocol trigger (see
    /// [`PropagationTrigger`]); the default is the paper's literal trigger.
    pub fn propagation_trigger(mut self, trigger: PropagationTrigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Sets the worker-pool size explicitly; passing `0` restores the
    /// default ([`std::thread::available_parallelism`]).  The pool never
    /// spawns more workers than the graph has nodes.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = NonZeroUsize::new(workers);
        self
    }

    /// Sets how many firings a woken task may drain before it yields its
    /// worker (clamped to ≥ 1).  Larger batches amortise scheduling costs;
    /// smaller ones interleave nodes more finely.
    pub fn batch(mut self, batch: u32) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Selects how messages are grouped into containers on the rings (see
    /// [`Batching`]; the default batches 64 messages per container).
    /// [`Batching::Scalar`] restores the one-message-per-slot engine bit
    /// for bit; by confluence every mode produces identical reports.
    pub fn batching(mut self, batching: Batching) -> Self {
        self.batching = batching;
        self
    }

    /// Runs the application, offering `inputs` sequence numbers at every
    /// source node, and returns the execution report.  The deadlock verdict
    /// is exact (the job went quiescent with unfinished nodes), never
    /// inferred from a timeout.
    ///
    /// # Panics
    ///
    /// If a node behaviour panics, like [`crate::Simulator::run`] does (the
    /// pool contains the panic to the job; this re-raises it for the one
    /// caller there is).
    pub fn run(&self, inputs: u64) -> ExecutionReport {
        let node_count = self.topology.graph().node_count();
        let workers = self
            .workers
            .map(NonZeroUsize::get)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .clamp(1, node_count.max(1));
        let pool = SharedPool::with(PoolOptions {
            workers,
            batch: self.batch,
            batching: self.batching,
            ..PoolOptions::default()
        });
        let job = pool.submit_full(self.topology, self.mode.clone(), self.trigger, inputs, None);
        let report = job.wait();
        if job.verdict() == Some(JobVerdict::Failed) {
            match job.failed_node() {
                Some(node) => panic!("the behaviour of node {node} panicked"),
                None => panic!("a node behaviour panicked"),
            }
        }
        report
    }
}
