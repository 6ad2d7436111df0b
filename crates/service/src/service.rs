//! The job service: validate → recognise/plan (cached) → admit → execute on
//! the shared pool → per-job outcome + aggregate stats.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fila_avoidance::{
    filter_signature, observed_periods, Algorithm, CertifiedPlan, CertifyError, GraphIdentity,
    PlanCache, Rounding,
};
use fila_graph::Fingerprint;
use fila_runtime::telemetry::{EventKind, TelemetryHandle, CONTROL_LANE};
use fila_runtime::{
    AvoidanceMode, ExecutionReport, FaultPlan, JobHandle, JobSnapshot, JobVerdict, PoolOptions,
    PropagationTrigger, RestoreError, SettleHook, SharedPool, SnapshotError,
};

use crate::drift::{DriftDetector, DriftOffender, DriftPolicy};
use crate::metrics::{ServiceMetrics, INTERVAL_NONE};
use crate::spec::{AvoidanceChoice, JobSpec};
use crate::stats::{Counters, ServiceStats};

/// Configuration of a [`JobService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the shared pool (`0` = one per hardware thread).
    pub workers: usize,
    /// Maximum jobs admitted but not yet settled; submissions beyond it are
    /// rejected as saturated (clamped to ≥ 1).
    pub max_in_flight: usize,
    /// Maximum graph size (`nodes + edges`) accepted.
    pub max_graph_size: usize,
    /// Certification verdicts (certified plans and rejections) kept in
    /// the service's [`PlanCache`], oldest evicted first.
    pub plan_cache_capacity: usize,
    /// Undirected-cycle budget for the exhaustive planner on general
    /// graphs; submissions whose planning exceeds it are rejected as
    /// unplannable.
    pub cycle_bound: usize,
    /// Read by nothing: `ledger/` sets it, which is the only reason it
    /// exists.
    pub rounding: Rounding,
    /// Read by nothing: `ledger/` sets it, which is the only reason it
    /// exists.  The Propagation trigger has one reading.
    pub trigger: PropagationTrigger,
    /// Deterministic fault-injection plan wired into the shared pool and
    /// the checkpoint codec (`None` — the default — compiles the hooks
    /// down to a skipped `Option` load; the hot path is untouched).  Set
    /// by the chaos harness (`fila storm --chaos SEED`) to exercise the
    /// supervised-recovery ladder.
    pub faults: Option<Arc<FaultPlan>>,
    /// Enable the flight recorder: the shared pool records per-worker
    /// trace events ([`fila_runtime::telemetry`]) and the service
    /// aggregates them into [`ServiceMetrics`] (latency histograms,
    /// per-tenant percentiles, the dummy-traffic profiler) surfaced in
    /// stats schema v6.  `false` — the default — is the zero-cost
    /// production path: no recorder exists and the pool hot path is
    /// byte-identical to a telemetry-less build.
    pub telemetry: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            max_in_flight: 256,
            max_graph_size: 1 << 16,
            plan_cache_capacity: 1024,
            cycle_bound: 512,
            rounding: Rounding::Ceil,
            trigger: PropagationTrigger::default(),
            faults: None,
            telemetry: false,
        }
    }
}

/// Why a submission was rejected (admission control / planning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The graph or filter spec failed validation.
    Invalid(String),
    /// The graph exceeds the configured size limit.
    TooLarge {
        /// `nodes + edges` of the submitted graph.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The in-flight bound is reached; retry after jobs settle.
    Saturated {
        /// The configured in-flight limit.
        limit: usize,
    },
    /// No deadlock-avoidance plan could be computed within the service's
    /// planning budget (general graph, too many cycles, …).
    Unplannable(String),
    /// Plans were computed, but none passed certification for the job's
    /// declared filter spec (after the full Non-Prop → Propagation →
    /// exhaustive fallback chain).  Admitting the job could deadlock it.
    Uncertifiable(String),
    /// A [`JobService::resume_job`] snapshot does not match the submitted
    /// spec: drifted workload identity (topology or filters), a plan that
    /// differs from the one the snapshot was certified and captured under,
    /// or a corrupted blob.  A mismatched resume is always rejected —
    /// never silently re-planned onto a different certification.
    RestoreMismatch(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Invalid(why) => write!(f, "invalid submission: {why}"),
            RejectReason::TooLarge { size, limit } => {
                write!(f, "graph too large: size {size} exceeds limit {limit}")
            }
            RejectReason::Saturated { limit } => {
                write!(f, "service saturated: {limit} jobs already in flight")
            }
            RejectReason::Unplannable(why) => write!(f, "unplannable: {why}"),
            RejectReason::Uncertifiable(why) => write!(f, "uncertifiable: {why}"),
            RejectReason::RestoreMismatch(why) => write!(f, "restore mismatch: {why}"),
        }
    }
}

/// A settled job: the runtime report plus the service-level context.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The execution report (per-edge counts, wall time, …).
    pub report: ExecutionReport,
    /// How the job ended.
    pub verdict: JobVerdict,
    /// `Some(true)` if the plan came from the cache, `Some(false)` if it
    /// was freshly computed, `None` for unplanned jobs.
    pub cache_hit: Option<bool>,
    /// The protocol the job actually ran under (`None` for unplanned jobs;
    /// differs from the requested one after a certification fallback).
    pub algorithm: Option<Algorithm>,
    /// True if certification replaced the requested plan with a fallback.
    pub fell_back: bool,
    /// `Some(progress)` if the job was admitted via
    /// [`JobService::resume_job`]: the firing count of the snapshot it
    /// resumed from.  The report's counts are cumulative across both
    /// incarnations.
    pub resumed_from: Option<u64>,
}

/// A handle to one admitted job.
#[derive(Debug)]
pub struct JobTicket {
    pub(crate) handle: JobHandle,
    /// The canonical *structural* fingerprint of the submitted graph (the
    /// verdict cache's bucket; the filter spec is not folded in — use
    /// [`JobSpec::fingerprint`] for the filter-salted job identity).
    pub fingerprint: Fingerprint,
    /// Plan provenance: `Some(true)` cache hit, `Some(false)` fresh plan,
    /// `None` unplanned.  For certified admissions this is the
    /// certification-verdict cache.
    pub cache_hit: Option<bool>,
    /// The protocol the job runs under (`None` for unplanned jobs).
    pub algorithm: Option<Algorithm>,
    /// True if certification fell back from the requested plan (protocol
    /// switch and/or exhaustive escalation).
    pub fell_back: bool,
    /// Time spent planning this submission (zero on hits and unplanned).
    pub plan_time: Duration,
    /// Time spent certifying this submission (zero on hits and unplanned
    /// admissions).
    pub certify_time: Duration,
    /// Canonical signature of the job's declared filter profile; stamped
    /// into snapshots so resumes can verify the workload identity.
    pub filter_signature: u64,
    /// `Some(progress)` if this ticket came from [`JobService::resume_job`].
    pub resumed_from: Option<u64>,
}

impl JobTicket {
    /// Blocks until the job settles.
    pub fn wait(&self) -> JobOutcome {
        let report = self.handle.wait();
        JobOutcome {
            report,
            verdict: self.handle.verdict().expect("settled job has a verdict"),
            cache_hit: self.cache_hit,
            algorithm: self.algorithm,
            fell_back: self.fell_back,
            resumed_from: self.resumed_from,
        }
    }

    /// The verdict, or `None` while the job is in flight.
    pub fn verdict(&self) -> Option<JobVerdict> {
        self.handle.verdict()
    }

    /// True once [`JobTicket::wait`] will not block.
    pub fn is_settled(&self) -> bool {
        self.handle.is_settled()
    }

    /// Samples the job's cumulative filter counters (cheap, non-blocking;
    /// see [`JobHandle::observe`]).  This is the feed for an external
    /// [`DriftDetector`] when the caller runs its own supervision loop
    /// instead of [`JobService::supervise`].
    pub fn observe(&self) -> fila_runtime::FilterObservation {
        self.handle.observe()
    }
}

/// Provenance of one successful plan hot-swap (or quarantine replan):
/// what drifted, what the observed profile was, and how long the
/// detect → re-certify → snapshot → resume pipeline took.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// The nodes the drift detector convicted.
    pub offenders: Vec<DriftOffender>,
    /// The per-node filter profile estimated from the live counter sample
    /// taken at the drift verdict (node-id aligned; never looser than the
    /// declaration).  The swapped-in plan is certified against *this*
    /// profile.
    pub observed_periods: Vec<u64>,
    /// Firing count of the barrier snapshot the job migrated through.
    pub snapshot_steps: u64,
    /// Protocol of the swapped-in plan (after any certification fallback).
    pub algorithm: Algorithm,
    /// True if certification fell back from the requested protocol.
    pub fell_back: bool,
    /// True if the observed profile's certification verdict was already
    /// cached — the hot-swap fast path.
    pub cache_hit: bool,
    /// Wall time from the drift verdict to the new incarnation running on
    /// the pool (snapshot + re-certification + resume; excludes the time
    /// the detector spent accumulating evidence).
    pub latency: Duration,
}

/// How a supervised job ([`JobService::supervise`]) ended: either it
/// settled before any drift verdict, or the response ladder ran.  The
/// rungs, in order of preference:
///
/// 1. **Hot-swap** ([`AdaptiveOutcome::HotSwapped`]) — re-certify the
///    job's *observed* filter profile through the plan cache while the
///    job keeps running, then barrier-snapshot it, retire the old
///    incarnation and resume the snapshot under the new plan.  The pool
///    and every co-tenant keep running throughout.  Certification runs
///    *before* the snapshot on purpose: the consistent cut of a job
///    whose sources raced far ahead only completes near end-of-stream,
///    so a plan must already be in hand when the barrier is paid for.
/// 2. **Quarantine + replan** ([`AdaptiveOutcome::Replanned`]) — the
///    standard-budget certification failed, so the job is marked
///    quarantined and a dedicated escalated-budget certification attempt
///    runs; on success the snapshot-and-resume proceeds exactly as in
///    rung 1.  The job is retired the moment the ladder knows its fate:
///    swapped out on success, cancelled on failure — stopping it any
///    earlier would buy nothing, because without a certified plan there
///    is no resumable state to preserve.
/// 3. **Cancel** ([`AdaptiveOutcome::DriftCancelled`]) — no certifiable
///    plan exists for the observed profile; the job is cancelled
///    mid-flight and the verdict carries the offending nodes and their
///    observed rates.
#[derive(Debug)]
pub enum AdaptiveOutcome {
    /// The job settled (by any verdict) before drift triggered.
    Settled(JobOutcome),
    /// Rung 1: the job finished under a plan certified for its observed
    /// profile, migrated live through a barrier snapshot.
    HotSwapped {
        /// The final outcome of the swapped incarnation (cumulative
        /// counts across both incarnations).
        outcome: JobOutcome,
        /// Swap provenance.
        swap: SwapReport,
    },
    /// Rung 2: as [`AdaptiveOutcome::HotSwapped`], but the job was
    /// quarantined (stopped) during the escalated replan.
    Replanned {
        /// The final outcome of the replanned incarnation.
        outcome: JobOutcome,
        /// Swap provenance (its `latency` includes the quarantined gap).
        swap: SwapReport,
    },
    /// Rung 3: drift was detected but no plan certifies the observed
    /// profile; the job was cancelled.
    DriftCancelled {
        /// The nodes the detector convicted.
        offenders: Vec<DriftOffender>,
        /// The observed per-node profile re-certification was attempted
        /// against.
        observed_periods: Vec<u64>,
        /// Why the ladder exhausted (last certification/restore error).
        reason: String,
        /// The cancelled incarnation's outcome (its verdict is
        /// [`JobVerdict::Cancelled`] unless the job settled on its own in
        /// the race window).
        outcome: JobOutcome,
    },
}

impl AdaptiveOutcome {
    /// The underlying job outcome, whichever rung produced it.
    pub fn outcome(&self) -> &JobOutcome {
        match self {
            AdaptiveOutcome::Settled(outcome) => outcome,
            AdaptiveOutcome::HotSwapped { outcome, .. } => outcome,
            AdaptiveOutcome::Replanned { outcome, .. } => outcome,
            AdaptiveOutcome::DriftCancelled { outcome, .. } => outcome,
        }
    }

    /// True for the rungs that resumed the job under a new certified plan.
    pub fn swapped(&self) -> bool {
        matches!(
            self,
            AdaptiveOutcome::HotSwapped { .. } | AdaptiveOutcome::Replanned { .. }
        )
    }
}

/// Where the tasks of an incarnation come from ([`JobService::start`]).
pub(crate) enum Origin<'a> {
    /// The spec alone.  Carries the door timestamp of the settle-latency
    /// histogram (`None` with telemetry off).
    Fresh(Option<Instant>),
    /// A snapshot, under the plan it was captured under.
    Restore(&'a JobSnapshot),
    /// A snapshot rebased onto a different plan (hot-swap, partial restart).
    Swap(&'a JobSnapshot),
}

/// One reserved in-flight slot.  Dropping it releases the slot, so no path
/// between [`JobService::reserve_slot`] and a failed start can leak one; a
/// started job's settle hook takes the release over (`start` forgets this).
pub(crate) struct Slot<'a> {
    in_flight: &'a AtomicU64,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The multi-tenant job service (see the crate docs for the life of a
/// submission).
pub struct JobService {
    pool: SharedPool,
    cache: PlanCache,
    pub(crate) counters: Arc<Counters>,
    in_flight: Arc<AtomicU64>,
    pub(crate) config: ServiceConfig,
    /// The pool's flight recorder (`None` unless
    /// [`ServiceConfig::telemetry`]).
    pub(crate) telemetry: Option<TelemetryHandle>,
    /// Aggregated histograms/profiler fed by settle hooks (`None` unless
    /// [`ServiceConfig::telemetry`]).
    pub(crate) metrics: Option<Arc<ServiceMetrics>>,
    started: Instant,
}

impl fmt::Debug for JobService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobService")
            .field("workers", &self.pool.workers())
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .field("cache", &self.cache)
            .finish()
    }
}

impl Default for JobService {
    fn default() -> Self {
        JobService::new(ServiceConfig::default())
    }
}

impl JobService {
    /// Starts the service: spawns the shared worker pool and an empty plan
    /// cache.
    pub fn new(config: ServiceConfig) -> Self {
        let pool = SharedPool::with(PoolOptions {
            workers: config.workers,
            faults: config.faults.clone(),
            telemetry: config.telemetry,
            ..PoolOptions::default()
        });
        let telemetry = pool.telemetry_handle();
        let metrics = telemetry.is_some().then(|| Arc::new(ServiceMetrics::new()));
        JobService {
            pool,
            cache: PlanCache::new(config.plan_cache_capacity),
            counters: Arc::new(Counters::default()),
            in_flight: Arc::new(AtomicU64::new(0)),
            config,
            telemetry,
            metrics,
            started: Instant::now(),
        }
    }

    /// The pool's flight recorder, when [`ServiceConfig::telemetry`] is on
    /// — drain it (or call
    /// [`all_events`](TelemetryHandle::all_events)) to export a Chrome
    /// trace of everything the service ran.
    pub fn telemetry(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    /// The aggregated service metrics (latency histograms, per-tenant
    /// percentiles, dummy-traffic profiler), when
    /// [`ServiceConfig::telemetry`] is on.
    pub fn metrics(&self) -> Option<&Arc<ServiceMetrics>> {
        self.metrics.as_ref()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The certification verdict cache (hit/miss counters, current size).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Submits a job.  On success the job is already executing on the
    /// shared pool; the returned ticket observes it.  On rejection nothing
    /// was scheduled and the reason says why.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, RejectReason> {
        Counters::bump(&self.counters.submitted);
        // Admission timestamp for the settle-latency histogram: taken at the
        // door so planning and certification time count against the tenant's
        // latency, exactly as a client experiences it.
        let admitted_at = self.metrics.is_some().then(Instant::now);

        // 1–2. Validation + size cap.
        let periods = self.validate(&spec)?;
        self.admit(&spec, &periods, None, Origin::Fresh(admitted_at))
    }

    /// Steps 3–5 of admission, the same for a fresh job and a resumed one.
    /// `hashed` is the graph's identity if the caller already computed it.
    fn admit(
        &self,
        spec: &JobSpec,
        periods: &[u64],
        hashed: Option<GraphIdentity>,
        origin: Origin<'_>,
    ) -> Result<JobTicket, RejectReason> {
        // 3. Admission: reserve an in-flight slot BEFORE planning, so a
        // saturated service sheds load without paying planner CPU for
        // submissions it would bounce anyway.  The slot is released by the
        // pool's settle hook (or by the guard, on a planning failure) —
        // never by the client, so abandoned tickets cannot leak slots.
        let slot = self.reserve_slot()?;

        // 4. Planning — and, by default, certification — of a planned job,
        // on one hash of the graph: a resume already made it for its
        // identity gate.
        let (planned, structural) = match spec.avoidance {
            AvoidanceChoice::Planned(algorithm) => {
                let identity = hashed.unwrap_or_else(|| GraphIdentity::of(&spec.graph));
                let planned = self.plan_admission(spec, periods, algorithm, &identity)?;
                (Some(planned), Some(identity.fingerprint))
            }
            AvoidanceChoice::Disabled => (None, hashed.map(|identity| identity.fingerprint)),
        };

        // 5. Execute on the shared pool.
        let identity = (structural, filter_signature(periods));
        // A failed start (a resume's, never a fresh job's): the plan this
        // service certifies for the spec differs from the one the snapshot
        // was captured under, or the blob is inconsistent.
        self.start(spec, planned.as_ref(), identity, origin, slot)
            .map_err(|e| self.restore_mismatch(e.to_string()))
    }

    /// Puts one incarnation of `spec` on the pool under `plan` (`None` =
    /// bare): the only caller of the pool's entry points, and the only place
    /// a reserved slot changes hands, `admitted`/`restores` move and a
    /// [`JobTicket`] is built — so a ticket reports what the incarnation
    /// runs under, whichever rung decided it.  `identity` is the job's
    /// declared `(structural fingerprint, filter signature)`, constant
    /// across a lineage (the profile `plan` was certified against is not);
    /// the fingerprint is `None` if nobody computed it yet.  On `Err`
    /// nothing was scheduled and the slot is released.
    pub(crate) fn start(
        &self,
        spec: &JobSpec,
        plan: Option<&CertifiedPlan>,
        (hashed, filter_signature): (Option<Fingerprint>, u64),
        origin: Origin<'_>,
        slot: Slot<'_>,
    ) -> Result<JobTicket, RestoreError> {
        let mode = plan.map_or(AvoidanceMode::Disabled, |c| {
            AvoidanceMode::Plan(Arc::clone(&c.plan))
        });
        let (program, trigger) = (spec.program(), PropagationTrigger::default());
        let (started, resumed_from) = match origin {
            Origin::Fresh(admitted_at) => {
                // Dummy-traffic profiler key: each edge's certified interval
                // (dense, aligned with edge ids; `INTERVAL_NONE` for
                // never-dummied edges).  Unplanned jobs have no intervals to
                // attribute traffic to.
                let edge_intervals = plan.filter(|_| self.metrics.is_some()).map(|c| {
                    let interval = |e| c.plan.interval(e).finite().unwrap_or(INTERVAL_NONE);
                    spec.graph.edge_ids().map(interval).collect()
                });
                let hook = self.settle_hook(spec.tenant.clone(), admitted_at, edge_intervals);
                let handle = self
                    .pool
                    .submit_program(&program, mode, spec.inputs, Some(hook));
                (Ok(handle), None)
            }
            Origin::Restore(snapshot) => {
                let hook = self.settle_hook(None, None, None);
                let resumed = self
                    .pool
                    .resume_full(&program, mode, trigger, snapshot, Some(hook));
                (resumed, Some(snapshot.steps))
            }
            Origin::Swap(snapshot) => {
                // A plan swap is the restore above, of a copy rebased onto
                // the new plan.
                let mut rebased = snapshot.clone();
                let resumed = rebased.rebase(&program, &mode).and_then(|()| {
                    let hook = self.settle_hook(None, None, None);
                    self.pool
                        .resume_full(&program, mode, trigger, &rebased, Some(hook))
                });
                (resumed, Some(snapshot.steps))
            }
        };
        // The error path: the pool dropped the hook unrun, so `?` dropping
        // the guard is the slot's one release.
        let handle = started?;
        // From here the job's settle hook releases the slot.
        std::mem::forget(slot);
        Counters::bump(&self.counters.admitted);
        if resumed_from.is_some() {
            Counters::bump(&self.counters.restores);
        }
        // Planned jobs were hashed for their certification; only unplanned
        // jobs nobody hashed yet hash here — off the job's critical path:
        // it is already running.
        let fingerprint =
            hashed.unwrap_or_else(|| fila_graph::fingerprint::fingerprint(&spec.graph));
        Ok(JobTicket {
            handle,
            fingerprint,
            cache_hit: plan.map(|c| c.hit),
            algorithm: plan.map(|c| c.used),
            fell_back: plan.is_some_and(|c| c.fell_back),
            plan_time: plan.map_or(Duration::ZERO, |c| c.plan_time),
            certify_time: plan.map_or(Duration::ZERO, |c| c.certify_time),
            filter_signature,
            resumed_from,
        })
    }

    /// Captures a barrier snapshot of a running job without stopping it
    /// (or any other job on the pool — see
    /// [`SharedPool`]'s module docs), stamped with the
    /// job's workload identity (structural fingerprint + filter
    /// signature) so [`JobService::resume_job`] can verify a later resume
    /// against it.  Counted in [`ServiceStats::snapshots`].
    ///
    /// Returns [`SnapshotError::Settled`] if the job reached its verdict
    /// first (nothing left to checkpoint) and [`SnapshotError::InProgress`]
    /// if another checkpoint of the same job is still collecting.
    pub fn checkpoint_job(&self, ticket: &JobTicket) -> Result<JobSnapshot, SnapshotError> {
        let mut snapshot = ticket.handle.checkpoint()?;
        snapshot.fingerprint = Some(ticket.fingerprint.0);
        snapshot.filter_signature = Some(ticket.filter_signature);
        Counters::bump(&self.counters.snapshots);
        Ok(snapshot)
    }

    /// Resumes a checkpointed job as a new admission: the spec passes the
    /// exact same validation, admission control and (certified) planning
    /// as [`JobService::submit`], the snapshot's stamped identity and
    /// captured plan are verified against the outcome, and the job
    /// continues on the shared pool reporting **cumulative** counts.
    ///
    /// Any drift between snapshot and spec — a different workload shape or
    /// filter profile, a plan whose certified intervals differ from the
    /// ones the snapshot ran under, a corrupted blob — is
    /// [`RejectReason::RestoreMismatch`]: a snapshot is never silently
    /// re-planned onto a different certification.
    pub fn resume_job(
        &self,
        spec: JobSpec,
        snapshot: &JobSnapshot,
    ) -> Result<JobTicket, RejectReason> {
        Counters::bump(&self.counters.submitted);
        let periods = self.validate(&spec)?;

        // Cheap identity gate before burning an in-flight slot or any
        // planner CPU: the snapshot must carry the stamp of
        // [`JobService::checkpoint_job`] and it must match this spec.
        let signature = filter_signature(&periods);
        let identity = GraphIdentity::of(&spec.graph);
        let structural = identity.fingerprint;
        if snapshot.fingerprint != Some(structural.0)
            || snapshot.filter_signature != Some(signature)
        {
            return Err(self.restore_mismatch(format!(
                "snapshot identity {:016x}/{:016x} does not match the submitted spec \
                 {:016x}/{:016x}",
                snapshot.fingerprint.unwrap_or(0),
                snapshot.filter_signature.unwrap_or(0),
                structural.0,
                signature,
            )));
        }

        self.admit(&spec, &periods, Some(identity), Origin::Restore(snapshot))
    }

    /// Counts and wraps a [`RejectReason::RestoreMismatch`].
    fn restore_mismatch(&self, why: String) -> RejectReason {
        Counters::bump(&self.counters.rejected_restore_mismatch);
        RejectReason::RestoreMismatch(why)
    }

    /// Supervises a running job for filter drift, blocking until it
    /// settles: polls the job's cumulative counters (one cheap
    /// [`observe`](fila_runtime::JobHandle) per [`DriftPolicy::poll`],
    /// nothing on the firing hot path), feeds them to a [`DriftDetector`],
    /// and — if the hysteresis convicts — runs the graceful-degradation
    /// response ladder documented on [`AdaptiveOutcome`].
    ///
    /// `spec` must be the spec the ticket was admitted from; the detector
    /// tracks the *declared* profile (what certification attested to),
    /// which is exactly what a drifting job violates.
    pub fn supervise(
        &self,
        spec: &JobSpec,
        ticket: JobTicket,
        policy: &DriftPolicy,
    ) -> AdaptiveOutcome {
        let declared = spec.filters.periods(&spec.graph);
        let mut detector = DriftDetector::new(&spec.graph, &declared, policy);
        loop {
            if ticket.is_settled() {
                return AdaptiveOutcome::Settled(ticket.wait());
            }
            let obs = ticket.handle.observe();
            if let Some(offenders) = detector.ingest(&obs.per_node_firings, &obs.per_edge_data) {
                Counters::bump(&self.counters.drift_detected);
                return self.respond_to_drift(spec, &ticket, &declared, offenders);
            }
            std::thread::sleep(policy.poll);
        }
    }

    /// The response ladder (see [`AdaptiveOutcome`]): hot-swap →
    /// quarantine + replan → cancel.  Runs once per supervised job, after
    /// the detector latched its one-shot verdict.
    fn respond_to_drift(
        &self,
        spec: &JobSpec,
        ticket: &JobTicket,
        declared: &[u64],
        offenders: Vec<DriftOffender>,
    ) -> AdaptiveOutcome {
        let detected = Instant::now();
        // Flight-recorder anchor for the DriftSwap span: detection → swap
        // landed, on the control lane (the supervisor is not a worker).
        let detected_ns = self.telemetry.as_ref().map(TelemetryHandle::now_ns);

        // Estimate the observed profile from a cheap live counter sample —
        // deliberately NOT from a snapshot.  The barrier of a consistent
        // cut sits at the maximum source cursor, so for a job whose
        // sources raced far ahead of its sinks (deep buffers, no
        // back-pressure) the cut only completes near end-of-stream;
        // certifying first keeps the whole deliberation off the job's
        // critical path and leaves the cancel rung able to land while the
        // drifter is still mid-flight.
        let obs = ticket.handle.observe();
        let observed = observed_periods(
            &spec.graph,
            declared,
            &obs.per_node_firings,
            &obs.per_edge_data,
        );
        let requested = match spec.avoidance {
            AvoidanceChoice::Planned(algorithm) => algorithm,
            // A bare job gets its rescue attempt under the protocol that
            // protects arbitrary filtering.
            AvoidanceChoice::Disabled => Algorithm::NonPropagation,
        };

        // Rung 1: re-certify the observed profile while the job keeps
        // running (a cached verdict makes this the fast path).
        let cycle_bound = self.config.cycle_bound;
        let (certified, hot) = match self.recertify(spec, requested, cycle_bound, &observed) {
            Ok(certified) => (certified, true),
            Err(first) => {
                // Rung 2: quarantine + replan — one dedicated
                // escalated-budget certification attempt.  The job keeps
                // running meanwhile: without a certified plan there is no
                // resumable state worth preserving, so the only thing an
                // early stop could achieve is turning a still-rescuable
                // job into a dead one.
                Counters::bump(&self.counters.quarantined);
                match self.recertify(spec, requested, cycle_bound.saturating_mul(4), &observed) {
                    Ok(certified) => (certified, false),
                    // Rung 3: nothing certifies the observed profile.
                    Err(_) => {
                        return self.drift_cancel(ticket, offenders, observed, first.to_string())
                    }
                }
            }
        };

        // A plan covers the observed profile — now pay for the consistent
        // cut to migrate through.  If the job settled in the race window
        // there is nothing left to swap; `InProgress` (a concurrent
        // checkpoint, impossible from this single supervisor) degrades the
        // same way.
        let snapshot = match self.checkpoint_job(ticket) {
            Ok(snapshot) => snapshot,
            Err(_) => return AdaptiveOutcome::Settled(ticket.wait()),
        };

        // Retire the old incarnation.  Its settle hook runs inline during
        // cancellation, releasing the in-flight slot the resume below
        // re-reserves.
        if !ticket.handle.cancel() {
            // The job settled on its own while we certified: its verdict
            // stands and no swap happened.
            return AdaptiveOutcome::Settled(ticket.wait());
        }
        let Ok(slot) = self.reserve_slot() else {
            // Saturated inside the swap window: degrade to a cancel
            // rather than wedge the ladder waiting for capacity.
            let reason = "service saturated mid-swap".to_string();
            return self.drift_cancel(ticket, offenders, observed, reason);
        };
        let identity = (Some(ticket.fingerprint), ticket.filter_signature);
        let origin = Origin::Swap(&snapshot);
        let swapped = match self.start(spec, Some(&certified), identity, origin, slot) {
            Ok(swapped) => swapped,
            Err(e) => return self.drift_cancel(ticket, offenders, observed, e.to_string()),
        };
        let latency = detected.elapsed();
        if hot {
            Counters::bump(&self.counters.hot_swapped);
        }
        // 0 = hot-swap, 1 = quarantine + replan
        self.control_span(EventKind::DriftSwap, detected_ns, u64::from(!hot));
        let outcome = swapped.wait();
        let swap = SwapReport {
            offenders,
            observed_periods: observed,
            snapshot_steps: snapshot.steps,
            algorithm: certified.used,
            fell_back: certified.fell_back,
            cache_hit: certified.hit,
            latency,
        };
        if hot {
            AdaptiveOutcome::HotSwapped { outcome, swap }
        } else {
            AdaptiveOutcome::Replanned { outcome, swap }
        }
    }

    /// Closes a supervisor-side span opened at `t0` (a
    /// [`TelemetryHandle::now_ns`]; `None` with telemetry off) on the
    /// control lane: the supervisor is not a pool worker, and its spans
    /// belong to no one pool serial.
    pub(crate) fn control_span(&self, kind: EventKind, t0: Option<u64>, arg: u64) {
        if let (Some(telemetry), Some(t0)) = (self.telemetry.as_ref(), t0) {
            telemetry.span(CONTROL_LANE, kind, u64::MAX, u32::MAX, t0, arg);
        }
    }

    /// Certifies `requested` (with its fallback chain) for a job's
    /// *observed* filter profile — the re-certification a hot-swap and a
    /// partial restart both stage their next incarnation under — and counts
    /// it in `certified`/`fell_back` like any admission's.
    pub(crate) fn recertify(
        &self,
        spec: &JobSpec,
        requested: Algorithm,
        cycle_bound: usize,
        observed: &[u64],
    ) -> Result<CertifiedPlan, CertifyError> {
        let identity = GraphIdentity::of(&spec.graph);
        let certified = self.cache.certify_identified(
            &spec.graph,
            &identity,
            requested,
            cycle_bound,
            observed,
            Some(&self.pool),
        )?;
        self.count_certified(&certified);
        Ok(certified)
    }

    fn count_certified(&self, certified: &CertifiedPlan) {
        Counters::bump(&self.counters.certified);
        if certified.fell_back {
            Counters::bump(&self.counters.fell_back);
        }
    }

    /// The ladder's last rung: cancel the job (idempotent if an earlier
    /// rung already retired it) and package the drift evidence with the
    /// cancelled incarnation's outcome.  If the job beat the ladder to a
    /// verdict of its own — it completed or deadlocked before the cancel
    /// landed — that verdict stands and the outcome degrades to
    /// [`AdaptiveOutcome::Settled`]: the detector's verdict was real, but
    /// no response was applied.
    fn drift_cancel(
        &self,
        ticket: &JobTicket,
        offenders: Vec<DriftOffender>,
        observed_periods: Vec<u64>,
        reason: String,
    ) -> AdaptiveOutcome {
        let cancelled_now = ticket.handle.cancel();
        let outcome = ticket.wait();
        if !cancelled_now && outcome.verdict != JobVerdict::Cancelled {
            return AdaptiveOutcome::Settled(outcome);
        }
        Counters::bump(&self.counters.drift_cancelled);
        if let Some(telemetry) = self.telemetry.as_ref() {
            // 2 = the ladder's last rung: nothing certified, job cancelled.
            telemetry.instant(CONTROL_LANE, EventKind::DriftSwap, u64::MAX, u32::MAX, 2);
        }
        AdaptiveOutcome::DriftCancelled {
            offenders,
            observed_periods,
            reason,
            outcome,
        }
    }

    /// Steps 1–2 of admission (shared by [`JobService::submit`] and
    /// [`JobService::resume_job`]): graph invariants, filter-spec fit and
    /// the size cap.  Returns the per-node filter periods on success so
    /// callers hash/plan without recomputing them.
    pub(crate) fn validate(&self, spec: &JobSpec) -> Result<Vec<u64>, RejectReason> {
        if let Err(e) = spec.graph.validate() {
            Counters::bump(&self.counters.rejected_invalid);
            return Err(RejectReason::Invalid(e.to_string()));
        }
        if let Err(why) = spec.filters.check(&spec.graph) {
            Counters::bump(&self.counters.rejected_invalid);
            return Err(RejectReason::Invalid(why));
        }
        if let Some(actual) = &spec.actual {
            if let Err(why) = actual.check(&spec.graph) {
                Counters::bump(&self.counters.rejected_invalid);
                return Err(RejectReason::Invalid(format!(
                    "actual filter profile: {why}"
                )));
            }
        }
        let size = spec.graph.size();
        if size > self.config.max_graph_size {
            Counters::bump(&self.counters.rejected_too_large);
            return Err(RejectReason::TooLarge {
                size,
                limit: self.config.max_graph_size,
            });
        }
        Ok(spec.filters.periods(&spec.graph))
    }

    /// Reserves one in-flight slot or rejects as saturated.
    pub(crate) fn reserve_slot(&self) -> Result<Slot<'_>, RejectReason> {
        let limit = self.config.max_in_flight.max(1) as u64;
        if self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < limit).then_some(n + 1)
            })
            .is_err()
        {
            Counters::bump(&self.counters.rejected_saturated);
            return Err(RejectReason::Saturated {
                limit: self.config.max_in_flight.max(1),
            });
        }
        Ok(Slot {
            in_flight: &self.in_flight,
        })
    }

    /// Step 4 of admission: planning and **certification**: the plan (with
    /// its automatic fallback chain) is model-checked against the job's
    /// declared filter spec before admission, so an admitted planned job is
    /// certified deadlock-free for what it declared.  Certification
    /// verdicts — rejections of either kind included — are amortised
    /// through the verdict cache.
    ///
    /// Bumps the planning/certification counters itself.
    fn plan_admission(
        &self,
        spec: &JobSpec,
        periods: &[u64],
        algorithm: Algorithm,
        identity: &GraphIdentity,
    ) -> Result<CertifiedPlan, RejectReason> {
        match self.cache.certify_identified(
            &spec.graph,
            identity,
            algorithm,
            self.config.cycle_bound,
            periods,
            Some(&self.pool),
        ) {
            Ok(certified) => {
                self.count_certified(&certified);
                Ok(certified)
            }
            Err(CertifyError::Unplannable(e)) => {
                Counters::bump(&self.counters.rejected_unplannable);
                Err(RejectReason::Unplannable(e.to_string()))
            }
            Err(e @ CertifyError::Uncertifiable { .. }) => {
                Counters::bump(&self.counters.rejected_uncertifiable);
                Err(RejectReason::Uncertifiable(e.to_string()))
            }
        }
    }

    /// The settle hook every incarnation runs on a worker when it reaches
    /// its verdict: releases the in-flight slot and feeds the
    /// verdict/message counters.  A fresh admission passes its tenant, door
    /// timestamp and edge intervals, and then, when telemetry is on, the
    /// hook also does metrics attribution — the tenant-keyed
    /// admission→settle latency histogram and the per-interval
    /// dummy-traffic profiler; with or without them it drains the flight
    /// recorder so firing/blocked-time histograms stay fresh without
    /// anyone polling.
    fn settle_hook(
        &self,
        tenant: Option<String>,
        admitted: Option<Instant>,
        edge_intervals: Option<Vec<u64>>,
    ) -> SettleHook {
        let counters = Arc::clone(&self.counters);
        let in_flight = Arc::clone(&self.in_flight);
        let metrics = self.metrics.clone();
        let telemetry = self.telemetry.clone();
        Box::new(move |report: &ExecutionReport, verdict| {
            in_flight.fetch_sub(1, Ordering::SeqCst);
            let counter = match verdict {
                JobVerdict::Completed => &counters.completed,
                JobVerdict::Deadlocked => &counters.deadlocked,
                JobVerdict::Failed => &counters.failed,
                JobVerdict::Cancelled => &counters.cancelled,
            };
            Counters::bump(counter);
            counters
                .messages
                .fetch_add(report.total_messages(), Ordering::Relaxed);
            if let Some(metrics) = metrics.as_ref() {
                if let Some(admitted) = admitted {
                    metrics.record_job(
                        tenant.as_deref(),
                        admitted.elapsed(),
                        report,
                        edge_intervals.as_deref(),
                    );
                }
                if let Some(telemetry) = telemetry.as_ref() {
                    metrics.ingest(&telemetry.drain_new());
                }
            }
        })
    }

    /// A point-in-time snapshot of the aggregate statistics.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServiceStats {
            submitted: load(&c.submitted),
            admitted: load(&c.admitted),
            rejected_invalid: load(&c.rejected_invalid),
            rejected_too_large: load(&c.rejected_too_large),
            rejected_saturated: load(&c.rejected_saturated),
            rejected_unplannable: load(&c.rejected_unplannable),
            rejected_uncertifiable: load(&c.rejected_uncertifiable),
            rejected_restore_mismatch: load(&c.rejected_restore_mismatch),
            certified: load(&c.certified),
            fell_back: load(&c.fell_back),
            completed: load(&c.completed),
            deadlocked: load(&c.deadlocked),
            failed: load(&c.failed),
            cancelled: load(&c.cancelled),
            in_flight: self.in_flight.load(Ordering::SeqCst),
            cert_cache_hits: self.cache.cert_hits(),
            cert_cache_misses: self.cache.cert_misses(),
            messages: load(&c.messages),
            snapshots: load(&c.snapshots),
            restores: load(&c.restores),
            drift_detected: load(&c.drift_detected),
            hot_swapped: load(&c.hot_swapped),
            quarantined: load(&c.quarantined),
            drift_cancelled: load(&c.drift_cancelled),
            recovered: load(&c.recovered),
            recovery_attempts: load(&c.recovery_attempts),
            partial_restarts: load(&c.partial_restarts),
            recovery_exhausted: load(&c.recovery_exhausted),
            snapshots_corrupted: load(&c.snapshots_corrupted),
            approx_recovered: load(&c.approx_recovered),
            latency_settle: self
                .metrics
                .as_ref()
                .map(|m| m.settle_summary())
                .unwrap_or_default(),
            latency_firing: self
                .metrics
                .as_ref()
                .map(|m| m.firing_summary())
                .unwrap_or_default(),
            latency_blocked: self
                .metrics
                .as_ref()
                .map(|m| m.blocked_summary())
                .unwrap_or_default(),
            tenants: self
                .metrics
                .as_ref()
                .map(|m| m.tenant_summaries())
                .unwrap_or_default(),
            uptime: self.started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FilterSpec;
    use fila_avoidance::Algorithm;
    use fila_graph::{Graph, GraphBuilder};

    fn pipeline(n: usize, cap: u64) -> Graph {
        let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = GraphBuilder::new().default_capacity(cap);
        b.chain(&refs).unwrap();
        b.build().unwrap()
    }

    fn small_service(max_in_flight: usize) -> JobService {
        JobService::new(ServiceConfig {
            workers: 2,
            max_in_flight,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn submit_wait_complete() {
        let svc = small_service(16);
        let spec = JobSpec::new(pipeline(5, 4), FilterSpec::Broadcast, 100).unplanned();
        let ticket = svc.submit(spec).unwrap();
        let outcome = ticket.wait();
        assert_eq!(outcome.verdict, JobVerdict::Completed);
        assert!(outcome.report.completed);
        assert_eq!(outcome.report.data_messages, 400);
        assert_eq!(outcome.cache_hit, None);
        let stats = svc.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.messages >= 400);
    }

    #[test]
    fn planned_jobs_share_cached_plans() {
        let svc = small_service(16);
        let g = {
            let mut b = GraphBuilder::new();
            b.edge_with_capacity("a", "b", 2).unwrap();
            b.edge_with_capacity("b", "c", 2).unwrap();
            b.edge_with_capacity("a", "c", 2).unwrap();
            b.build().unwrap()
        };
        let spec = |g: &Graph| {
            JobSpec::new(g.clone(), FilterSpec::Fork(2), 200)
                .avoidance(AvoidanceChoice::Planned(Algorithm::NonPropagation))
        };
        let t1 = svc.submit(spec(&g)).unwrap();
        assert_eq!(t1.cache_hit, Some(false));
        assert_eq!(t1.algorithm, Some(Algorithm::NonPropagation));
        assert!(!t1.fell_back);
        let t2 = svc.submit(spec(&g)).unwrap();
        assert_eq!(t2.cache_hit, Some(true));
        assert_eq!(t2.plan_time, Duration::ZERO);
        assert_eq!(t2.certify_time, Duration::ZERO);
        assert_eq!(t1.fingerprint, t2.fingerprint);
        assert_eq!(t1.fingerprint, fila_graph::fingerprint::fingerprint(&g));
        for t in [t1, t2] {
            let o = t.wait();
            assert_eq!(o.verdict, JobVerdict::Completed, "{o:?}");
        }
        let stats = svc.stats();
        // The repeat submission hits the certification-verdict cache, so
        // the fallback chain is walked exactly once.
        assert_eq!(stats.cert_cache_hits, 1);
        assert_eq!(stats.cert_cache_misses, 1);
        assert_eq!(stats.certified, 2);
        assert_eq!(stats.fell_back, 0);
        assert!((stats.cert_cache_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_graphs_are_rejected() {
        let svc = small_service(16);
        // Disconnected graph.
        let mut g = pipeline(3, 2);
        let _ = g.add_node("lonely");
        let r = svc.submit(JobSpec::new(g, FilterSpec::Broadcast, 10));
        assert!(matches!(r, Err(RejectReason::Invalid(_))), "{r:?}");
        // Mis-sized per-node filter spec.
        let r = svc.submit(JobSpec::new(
            pipeline(3, 2),
            FilterSpec::PerNode(vec![1]),
            10,
        ));
        assert!(matches!(r, Err(RejectReason::Invalid(_))), "{r:?}");
        let stats = svc.stats();
        assert_eq!(stats.rejected_invalid, 2);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn oversized_graphs_are_rejected() {
        let svc = JobService::new(ServiceConfig {
            workers: 1,
            max_graph_size: 8,
            ..ServiceConfig::default()
        });
        let r = svc.submit(JobSpec::new(pipeline(10, 2), FilterSpec::Broadcast, 1).unplanned());
        assert!(
            matches!(r, Err(RejectReason::TooLarge { size: 19, limit: 8 })),
            "{r:?}"
        );
        assert_eq!(svc.stats().rejected_too_large, 1);
    }

    #[test]
    fn unplannable_graphs_are_rejected_with_reason() {
        let svc = JobService::new(ServiceConfig {
            workers: 1,
            cycle_bound: 16,
            ..ServiceConfig::default()
        });
        // Dense general bipartite core: far beyond 16 undirected cycles.
        let mut b = GraphBuilder::new().default_capacity(2);
        for l in 0..3 {
            b.edge("x", &format!("l{l}")).unwrap();
            for r in 0..6 {
                b.edge(&format!("l{l}"), &format!("r{r}")).unwrap();
            }
        }
        for r in 0..6 {
            b.edge(&format!("r{r}"), "y").unwrap();
        }
        let g = b.build().unwrap();
        let r = svc.submit(JobSpec::new(g, FilterSpec::Fork(2), 10));
        match r {
            Err(RejectReason::Unplannable(why)) => assert!(!why.is_empty()),
            other => panic!("expected Unplannable, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.rejected_unplannable, 1);
        // The in-flight slot reserved before planning was released.
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn saturation_bounds_in_flight_jobs() {
        // One worker, jobs that take a while: the second submission must
        // bounce while the first is still running.
        let svc = JobService::new(ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            ..ServiceConfig::default()
        });
        let big = JobSpec::new(pipeline(64, 2), FilterSpec::Broadcast, 20_000).unplanned();
        let small = JobSpec::new(pipeline(3, 2), FilterSpec::Broadcast, 1).unplanned();
        let t1 = svc.submit(big).unwrap();
        let rejected = svc.submit(small.clone());
        assert!(
            matches!(rejected, Err(RejectReason::Saturated { limit: 1 })),
            "{rejected:?}"
        );
        let o1 = t1.wait();
        assert_eq!(o1.verdict, JobVerdict::Completed);
        // Slot released: the same submission is now admitted.
        let t2 = svc.submit(small).unwrap();
        assert_eq!(t2.wait().verdict, JobVerdict::Completed);
        let stats = svc.stats();
        assert_eq!(stats.rejected_saturated, 1);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn deadlock_verdicts_show_up_in_stats() {
        let svc = small_service(16);
        let (g, periods) = fila_workloads::jobs::underprovisioned_sp(1, 2);
        let ticket = svc
            .submit(JobSpec::new(g, FilterSpec::PerNode(periods), 256).unplanned())
            .unwrap();
        let outcome = ticket.wait();
        assert_eq!(outcome.verdict, JobVerdict::Deadlocked);
        assert!(outcome.report.deadlocked);
        assert!(!outcome.report.blocked.is_empty());
        assert_eq!(svc.stats().deadlocked, 1);
    }

    #[test]
    fn stats_json_roundtrip_shape() {
        let svc = small_service(4);
        let t = svc
            .submit(JobSpec::new(pipeline(4, 2), FilterSpec::Broadcast, 10).unplanned())
            .unwrap();
        let _ = t.wait();
        let json = svc.stats().to_json();
        assert!(json.contains("\"schema_version\": 7"));
        assert!(json.contains("\"completed\": 1"));
        // Telemetry off: v6 fields present but empty.
        assert!(json.contains("\"latency\": {\"settle\": {\"count\": 0"));
        assert!(json.contains("\"tenants\": []"));
        assert!(json.contains("\"uncertified_nonprop\": 0"));
        assert!(json.contains("\"snapshots\": 0"));
        assert!(json.contains("\"restores\": 0"));
        assert!(json.contains("\"rejected_restore_mismatch\": 0"));
        assert!(json.contains("\"drift_detected\": 0"));
        assert!(json.contains("\"hot_swapped\": 0"));
        assert!(json.contains("\"quarantined\": 0"));
        assert!(json.contains("\"drift_cancelled\": 0"));
        assert!(json.contains("\"recovered\": 0"));
        assert!(json.contains("\"recovery_exhausted\": 0"));
    }

    #[test]
    fn interior_filtering_admission_falls_back_and_completes() {
        // A Propagation-requested job whose declared spec lets interior
        // nodes filter: certification rejects the Propagation plan (the
        // literal trigger cannot protect interior filtering) and admits
        // the job under the Non-Propagation fallback instead.
        let svc = small_service(16);
        let g = {
            let mut b = GraphBuilder::new().default_capacity(4);
            b.edge("split", "left").unwrap();
            b.edge("split", "right").unwrap();
            b.edge("left", "join").unwrap();
            b.edge("right", "join").unwrap();
            b.build().unwrap()
        };
        let mut periods = vec![1u64; g.node_count()];
        periods[g.node_by_name("left").unwrap().index()] = 3;
        periods[g.node_by_name("right").unwrap().index()] = 5;
        let spec = JobSpec::new(g, FilterSpec::PerNode(periods), 400)
            .avoidance(AvoidanceChoice::Planned(Algorithm::Propagation));
        let ticket = svc.submit(spec).unwrap();
        assert!(ticket.fell_back);
        assert_eq!(ticket.algorithm, Some(Algorithm::NonPropagation));
        let outcome = ticket.wait();
        assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
        assert!(outcome.fell_back);
        let stats = svc.stats();
        assert_eq!(stats.certified, 1);
        assert_eq!(stats.fell_back, 1);
    }

    #[test]
    fn service_checkpoint_resume_roundtrip() {
        let svc = small_service(16);
        // Big enough that a checkpoint issued right after submission
        // overwhelmingly lands mid-run; the settled race stays legal.
        let spec = || JobSpec::new(pipeline(24, 4), FilterSpec::Broadcast, 10_000).unplanned();
        let ticket = svc.submit(spec()).unwrap();
        let identity = (ticket.fingerprint, ticket.filter_signature);
        let snapshot = svc.checkpoint_job(&ticket);
        let original = ticket.wait();
        assert_eq!(original.verdict, JobVerdict::Completed);
        assert!(original.resumed_from.is_none());
        match snapshot {
            Ok(snapshot) => {
                // The snapshot carries the job's workload identity.
                assert_eq!(snapshot.fingerprint, Some(identity.0 .0));
                assert_eq!(snapshot.filter_signature, Some(identity.1));
                let resumed = svc.resume_job(spec(), &snapshot).unwrap();
                assert_eq!(resumed.resumed_from, Some(snapshot.steps));
                let outcome = resumed.wait();
                assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
                assert_eq!(outcome.resumed_from, Some(snapshot.steps));
                // Cumulative counts equal the uninterrupted run's.
                assert_eq!(outcome.report.per_edge_data, original.report.per_edge_data);
                assert_eq!(outcome.report.sink_firings, original.report.sink_firings);
                let stats = svc.stats();
                assert_eq!(stats.snapshots, 1);
                assert_eq!(stats.restores, 1);
                assert_eq!(stats.admitted, 2);
                assert_eq!(stats.in_flight, 0);
            }
            Err(SnapshotError::Settled(JobVerdict::Completed)) => {
                assert_eq!(svc.stats().snapshots, 0);
            }
            Err(e) => panic!("unexpected checkpoint failure: {e:?}"),
        }
    }

    #[test]
    fn resume_rejects_identity_and_plan_drift() {
        use fila_runtime::{CheckpointOutcome, Simulator};
        let svc = small_service(4);
        let spec = || JobSpec::new(pipeline(5, 4), FilterSpec::Broadcast, 200).unplanned();
        let probe = spec();
        let program = probe.program();
        let sim = Simulator::new(&program);
        let reference = sim.run(200);
        let CheckpointOutcome::Killed(mut snapshot) = sim.run_with_checkpoint(200, 5) else {
            panic!("kill point 5 must interrupt a 200-input run");
        };

        // An unstamped snapshot (not from `checkpoint_job`) has no
        // identity to verify against: rejected.
        let r = svc.resume_job(spec(), &snapshot);
        assert!(matches!(r, Err(RejectReason::RestoreMismatch(_))), "{r:?}");

        snapshot.fingerprint = Some(fila_graph::fingerprint::fingerprint(&probe.graph).0);
        snapshot.filter_signature = Some(filter_signature(&probe.filters.periods(&probe.graph)));

        // Filter drift: same graph shape, different declared filter
        // profile.
        let drifted = JobSpec::new(
            pipeline(5, 4),
            FilterSpec::PerNode(vec![1, 2, 1, 1, 1]),
            200,
        )
        .unplanned();
        let r = svc.resume_job(drifted, &snapshot);
        assert!(matches!(r, Err(RejectReason::RestoreMismatch(_))), "{r:?}");

        // Plan drift: the snapshot ran unplanned; asking the service to
        // resume it under a certified plan is a mismatch, not a re-plan.
        let planned = JobSpec::new(pipeline(5, 4), FilterSpec::Broadcast, 200)
            .avoidance(AvoidanceChoice::Planned(Algorithm::NonPropagation));
        let r = svc.resume_job(planned, &snapshot);
        assert!(matches!(r, Err(RejectReason::RestoreMismatch(_))), "{r:?}");

        let stats = svc.stats();
        assert_eq!(stats.rejected_restore_mismatch, 3);
        assert_eq!(stats.restores, 0);
        // Every rejected resume released its in-flight slot (if it got
        // that far).
        assert_eq!(stats.in_flight, 0);

        // The matching spec resumes fine and finishes with the reference
        // counts.
        let outcome = svc.resume_job(spec(), &snapshot).unwrap().wait();
        assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
        assert_eq!(outcome.resumed_from, Some(snapshot.steps));
        assert_eq!(outcome.report.per_edge_data, reference.per_edge_data);
        assert_eq!(outcome.report.sink_firings, reference.sink_firings);
        let stats = svc.stats();
        assert_eq!(stats.restores, 1);
        assert_eq!(stats.admitted, 1);
    }
}
