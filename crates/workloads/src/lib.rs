//! # fila-workloads
//!
//! Workloads for exercising and evaluating the deadlock-avoidance stack:
//!
//! * [`figures`] — the exact graphs drawn in the paper (Figs. 1–6), with the
//!   buffer capacities used in the worked examples;
//! * [`generators`] — seeded random topology generators (SP-DAGs by
//!   recursive composition, SP-ladders with a configurable rung count,
//!   parallel-chain stress graphs for the exponential baseline, and layered
//!   general DAGs);
//! * [`apps`] — runnable application topologies modelled on the paper's
//!   motivating examples (an object-recognition split/join with data
//!   dependent recognisers and a cross-coupled monitor on a CS4 ladder),
//!   expressed as [`fila_runtime::Topology`] values ready to execute;
//! * [`jobs`] — mixed job-service workloads: streams of heterogeneous
//!   submissions (pipelines, SP DAGs, ladders, unplannable and
//!   deliberately deadlocking shapes) for exercising the multi-tenant
//!   service layer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod figures;
pub mod generators;
pub mod jobs;

pub use generators::{GeneratorConfig, LadderConfig};
pub use jobs::{job_mix, job_mix_with_drift, JobKind, JobShape};
