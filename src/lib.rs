//! # fila — filtering-aware deadlock avoidance for streaming computation
//!
//! `fila` is a reproduction of *"Efficient Deadlock Avoidance for Streaming
//! Computation with Filtering"* (Buhler, Agrawal, Li, Chamberlain; PPoPP
//! 2012).  It provides:
//!
//! * a directed acyclic multigraph model of streaming applications with
//!   finite channel buffers ([`graph`]),
//! * series-parallel decomposition ([`spdag`]),
//! * the paper's compile-time **dummy-interval** algorithms for the
//!   Propagation and Non-Propagation deadlock-avoidance protocols on
//!   SP-DAGs, CS4 DAGs (SP-ladders) and, via an exponential baseline,
//!   general DAGs ([`avoidance`]),
//! * a streaming runtime with data-dependent filtering, bounded channels,
//!   dummy-message wrappers and deadlock detection ([`runtime`]),
//! * a multi-tenant job service — plan cache, admission control and
//!   shared-pool execution of many concurrent dataflows ([`service`]), and
//! * workload generators and the exact graphs of the paper's figures
//!   ([`workloads`]).
//!
//! ## Quickstart
//!
//! ```
//! use fila::prelude::*;
//!
//! // Fig. 3 of the paper: a two-branch cycle with known dummy intervals.
//! let g = fila::workloads::figures::fig3_cycle();
//! let plan = Planner::new(&g)
//!     .algorithm(Algorithm::Propagation)
//!     .plan()
//!     .expect("fig3 is series-parallel");
//! let ab = g.edge_by_names("a", "b").unwrap();
//! assert_eq!(plan.interval(ab), DummyInterval::Finite(6));
//! ```

pub use fila_avoidance as avoidance;
pub use fila_graph as graph;
pub use fila_runtime as runtime;
pub use fila_service as service;
pub use fila_spdag as spdag;
pub use fila_workloads as workloads;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use fila_avoidance::{
        classify, Algorithm, DummyInterval, GraphClass, PlanCache, Planner, Rounding,
    };
    pub use fila_graph::{EdgeId, Fingerprint, Graph, GraphBuilder, NodeId};
    pub use fila_runtime::{
        AvoidanceMode, CheckpointOutcome, ExecutionReport, JobSnapshot, JobVerdict, Periodic,
        PoolOptions, Program, RestoreError, SharedPool, Simulator, SnapshotError, Topology,
    };
    pub use fila_service::{
        AdaptiveOutcome, AvoidanceChoice, DriftPolicy, FilterSpec, JobService, JobSpec,
        RejectReason, ServiceConfig, ServiceStats, SwapReport,
    };
    pub use fila_spdag::{recognize, SpDecomposition, SpSpec};
}
