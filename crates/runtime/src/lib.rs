//! # fila-runtime
//!
//! A streaming runtime for the filtering dataflow model of Buhler et al.
//! (PPoPP 2012): compute nodes connected by finite-buffer FIFO channels,
//! where each input carries a monotonically increasing sequence number and a
//! node may *filter* (send no output for) any input on any subset of its
//! output channels.
//!
//! With finite buffers such applications can deadlock even though the graph
//! is acyclic (Fig. 2 of the paper).  This crate implements the two
//! deadlock-avoidance protocols the paper's compile-time analysis
//! parameterises — the **Propagation** and **Non-Propagation** dummy-message
//! algorithms — as wrappers around the user's node behaviours, plus two
//! execution engines:
//!
//! * [`Simulator`] — a deterministic, single-threaded driver of the scalar
//!   model ([`fila_avoidance::model`], where the firing rule, the messages
//!   and the dummy wrapper are defined once and re-exported here as
//!   [`message`] and [`wrapper`]) with *exact* deadlock detection, used as
//!   the reference by the tests and benchmarks;
//! * [`SharedPool`] — the scalable concurrent engine: a *long-lived*
//!   locality-first work-stealing pool drives every node as a cooperatively
//!   scheduled task over lock-free SPSC rings ([`spsc`]); the node-tasks of
//!   many independent jobs coexist on it, with exact per-job
//!   completion/deadlock verdicts decided by per-job quiescence (no global
//!   idleness needed).
//!
//! The deliberate pairing lets every experiment be run both exactly and
//! under real concurrency: the pool's batched run loops are the one other
//! implementation of the firing rule, and a property test pins them to the
//! simulator's verdicts and per-edge counts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod container;
pub mod faults;
pub mod filters;
pub mod node;
pub mod report;
mod sched;
pub mod shared_pool;
pub mod simulator;
pub mod spsc;
mod task;
pub mod telemetry;
pub mod topology;

pub use fila_avoidance::model::{message, wrapper};

pub use checkpoint::{
    CheckpointOutcome, JobSnapshot, NodeSnapshot, RestoreError, SnapshotError, SpliceDivergence,
};
pub use container::{Batch, Container, Run, Single};
pub use faults::{CrashSite, FaultArm, FaultPlan, SnapshotDamage};
pub use filters::{Bernoulli, Broadcast, ModuloFilter};
pub use message::{Message, Payload};
pub use node::{DataRun, FireInput, NodeBehavior};
pub use report::{BlockedInfo, BlockedReason, ExecutionReport};
pub use shared_pool::{
    FilterObservation, JobHandle, JobVerdict, PoolOptions, SettleHook, SharedPool,
};
pub use simulator::Simulator;
pub use telemetry::{chrome_trace, EventKind, SchedCounter, TelemetryHandle, TraceEvent};
pub use topology::{Periodic, Program, Topology};
pub use wrapper::{AvoidanceMode, DummyWrapper, PropagationTrigger, RunDummies};
