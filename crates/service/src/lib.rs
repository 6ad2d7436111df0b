//! # fila-service
//!
//! The multi-tenant **job service** layer of the `fila` workspace: where
//! every other crate handles *one* topology end to end, this crate serves a
//! *stream of jobs* from many clients on shared resources — the production
//! shape of filtering-aware deadlock avoidance.
//!
//! The life of a submission ([`JobSpec`]: graph + declarative
//! [`FilterSpec`] + input count + [`AvoidanceChoice`]):
//!
//! 1. **Validate** — global graph invariants (non-empty, acyclic,
//!    connected) and filter-spec fit; failures reject with
//!    [`RejectReason::Invalid`].
//! 2. **Admit** — a graph-size cap ([`RejectReason::TooLarge`]) and a
//!    bounded in-flight window ([`RejectReason::Saturated`]) protect the
//!    pool *and* the planner: a saturated service sheds load before
//!    spending any planning CPU on it.
//! 3. **Plan and certify, amortised** — deadlock-avoidance intervals come
//!    from a structural [`PlanCache`](fila_avoidance::PlanCache) keyed by
//!    the canonical topology fingerprint of `fila-graph`, so a million
//!    submissions of the same shape plan exactly once and share one
//!    `Arc`-wrapped plan.  By default every planned admission is also
//!    **certified**: the plan is model-checked against the job's declared
//!    [`FilterSpec`] and its worst-case interior-filtering escalations,
//!    falling back automatically (requested protocol → the other →
//!    forced-exhaustive) when a candidate fails — so *admitted ⇒
//!    deadlock-free* for what the client declared, and a plan's safety can
//!    never silently depend on the filter pattern (the E17 postmortem).
//!    Certification verdicts are cached per `(fingerprint, filter
//!    signature)`, making the fallback a once-per-shape decision.  Graphs
//!    whose planning exceeds the service's cycle budget reject with
//!    [`RejectReason::Unplannable`]; plannable graphs no candidate
//!    certifies reject with [`RejectReason::Uncertifiable`].  Both are
//!    verdicts like any other: a repeat of a rejected shape is a cache
//!    probe, not a second walk.
//! 4. **Execute** — admitted jobs run *concurrently* on one shared
//!    [`SharedPool`](fila_runtime::SharedPool): the node-tasks of every
//!    in-flight job coexist in the same work-stealing run queues, and each
//!    job gets an exact per-job completion/deadlock verdict and its own
//!    [`ExecutionReport`](fila_runtime::ExecutionReport).
//! 5. **Report** — [`JobTicket::wait`] yields the per-job [`JobOutcome`];
//!    [`JobService::stats`] aggregates everything into [`ServiceStats`]
//!    (admissions, rejections by reason, verdicts, cache hit rate,
//!    messages/sec) with hand-rolled JSON for dashboards and CI.
//!
//! ```
//! use fila_service::{JobService, JobSpec, FilterSpec};
//! use fila_graph::GraphBuilder;
//!
//! let service = JobService::default();
//! let mut b = GraphBuilder::new();
//! b.edge_with_capacity("a", "b", 2).unwrap();
//! b.edge_with_capacity("b", "c", 2).unwrap();
//! b.edge_with_capacity("a", "c", 2).unwrap();
//! let graph = b.build().unwrap();
//!
//! // A filtering fork on a two-path cycle: unprotected this deadlocks;
//! // the service plans avoidance (cached for every later submission of
//! // the same shape) and the job completes.
//! let ticket = service
//!     .submit(JobSpec::new(graph, FilterSpec::Fork(2), 200))
//!     .expect("admitted");
//! let outcome = ticket.wait();
//! assert!(outcome.report.completed);
//! assert_eq!(outcome.cache_hit, Some(false)); // first of its shape
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod drift;
pub mod metrics;
pub mod recovery;
pub mod service;
pub mod spec;
pub mod stats;

pub use drift::{DriftDetector, DriftOffender, DriftPolicy};
pub use metrics::{
    IntervalTraffic, LatencyHistogram, LatencySummary, ServiceMetrics, TenantSummary,
};
pub use recovery::{
    CheckpointPolicy, RecoveryMode, RecoveryOutcome, RecoveryPolicy, RecoveryReport,
};
pub use service::{
    AdaptiveOutcome, JobOutcome, JobService, JobTicket, RejectReason, ServiceConfig, SwapReport,
};
pub use spec::{AvoidanceChoice, FilterSpec, JobSpec};
pub use stats::ServiceStats;
