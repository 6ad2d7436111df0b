//! Supervised auto-checkpoint and typed recovery: the self-healing layer
//! on top of [`JobService`].
//!
//! [`JobService::run_recoverable`] owns a job from submission to a
//! *genuine* verdict.  While the job runs it captures barrier snapshots on
//! a [`CheckpointPolicy`] cadence (serialised — a snapshot only counts if
//! its bytes survive, which is exactly what the chaos harness attacks).
//! When an incarnation fails ([`JobVerdict::Failed`] — an injected or real
//! worker panic, including one *during* barrier alignment), the recovery
//! ladder runs with bounded exponential backoff:
//!
//! 1. **Full restore** — decode the newest stored snapshot (torn or
//!    bit-flipped blobs are skipped and counted, never trusted) and resume
//!    it through the exact same certified-admission gauntlet as any other
//!    resume, falling back snapshot-by-snapshot to older cuts.
//! 2. **Partial restart** — salvage the *wreck* (the verbatim state the
//!    job died in), roll back only the failed node's downstream cone to
//!    the newest consistent cut, and splice the two
//!    ([`JobSnapshot::splice_downstream`]): the untouched upstream keeps
//!    every message it already produced, with the cut's per-edge
//!    cumulative counts as replay cursors.  The spliced cut is
//!    **re-certified against the observed filter profile** before any
//!    task is staged — a restart that the avoidance analysis cannot vouch
//!    for is refused, never staged hopefully.
//!    [`RecoveryMode::Exact`] refuses any frontier divergence;
//!    [`RecoveryMode::Approximate`] accepts a bounded data deficit (Cheng
//!    et al.'s approximate-fault-tolerance trade) and reports the bound.
//! 3. **Genesis** — resubmit from scratch (always exact, at the price of
//!    recomputation).
//!
//! Exact mode prefers rung 1 (bit-exact by construction); approximate
//! mode prefers rung 2 (cheapest wall-clock).  Every attempt, backoff and
//! skipped snapshot lands in the [`RecoveryReport`]; if the whole ladder
//! exhausts, the caller gets [`RecoveryOutcome::Exhausted`] with that
//! provenance — never a silent hang or a fabricated verdict.

use std::collections::VecDeque;
use std::time::Duration;

use fila_avoidance::observed_periods;
use fila_graph::topo::reachable_from;
use fila_graph::NodeId;
use fila_runtime::telemetry::{EventKind, TelemetryHandle};
use fila_runtime::{JobSnapshot, JobVerdict, SnapshotError, SpliceDivergence};

use crate::service::{JobOutcome, JobService, JobTicket, Origin, RejectReason};
use crate::spec::{AvoidanceChoice, JobSpec};
use crate::stats::Counters;

/// When the supervisor pays for a consistent cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Capture a barrier snapshot every time the job's slowest source has
    /// emitted this many further inputs (clamped to ≥ 1).
    pub every_n_inputs: u64,
    /// Snapshots retained, oldest evicted first (clamped to ≥ 1).  More
    /// snapshots mean more rungs for the full-restore ladder.
    pub max_snapshots: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_n_inputs: 64,
            max_snapshots: 4,
        }
    }
}

/// What a recovery is allowed to give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Bit-exact or nothing: every rung must reproduce the uninterrupted
    /// run's verdict and per-edge counts.  A partial restart is admitted
    /// only when its frontier divergence is zero (no message consumed
    /// past the cut was lost).
    Exact,
    /// Accept partial restarts while the lineage's total frontier data
    /// deficit — summed over every splice — stays at most `max_divergence`
    /// messages; the accepted total is reported in
    /// [`RecoveryReport::divergence`].  Every per-edge data count and
    /// sink count of the recovered run then trails the uninterrupted
    /// reference by at most that many messages (a lost input suppresses
    /// at most one message per downstream edge).  Lost *dummies* are not
    /// counted against the bound: they carry no payload, and the frontier
    /// producers' preserved gap counters keep emitting future dummies on
    /// the certified cadence.
    Approximate {
        /// Maximum tolerated frontier data deficit of a lineage, in
        /// messages.
        max_divergence: u64,
    },
}

/// Retry/backoff envelope of the recovery ladder.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Total restore/restart attempts across the whole ladder and every
    /// incarnation (clamped to ≥ 1); exceeding it yields
    /// [`RecoveryOutcome::Exhausted`].
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// What the ladder may give up (see [`RecoveryMode`]).
    pub mode: RecoveryMode,
    /// Supervision poll interval (settle check + checkpoint cadence).
    pub poll: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            mode: RecoveryMode::Exact,
            poll: Duration::from_micros(200),
        }
    }
}

/// Provenance of one supervised-recovery run: what failed, what was
/// tried, and what it cost.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Incarnations that ended in [`JobVerdict::Failed`] (injected or
    /// real panics).
    pub crashes: u32,
    /// Restore/restart attempts made (each retry of each snapshot
    /// counts).
    pub attempts: u32,
    /// Distinct snapshots the full-restore rung tried to decode.
    pub snapshots_tried: u32,
    /// Stored snapshots whose bytes failed decode (torn / bit-flipped);
    /// skipped with a typed error, never trusted.
    pub corrupted_snapshots: u32,
    /// The backoff actually slept before each attempt, in ladder order.
    pub backoff_schedule: Vec<Duration>,
    /// True if a rung recovered the job via a partial (downstream-cone)
    /// restart rather than a full restore.
    pub partial_restart: bool,
    /// True if at least one crash happened *during barrier alignment*
    /// (the fault latched mid-snapshot) — the hardest timing the ladder
    /// handles.
    pub midbarrier_crash: bool,
    /// Frontier data deficit accepted by the lineage's approximate partial
    /// restarts, summed over every splice (0 for exact recoveries): the
    /// recovered run's per-edge data and sink counts trail the
    /// uninterrupted reference by at most this.
    pub divergence: u64,
    /// True if the ladder fell through to a from-scratch resubmission.
    pub genesis_restart: bool,
}

/// How a [`JobService::run_recoverable`] job ended.
#[derive(Debug)]
pub enum RecoveryOutcome {
    /// No incarnation failed; the outcome is the ordinary one.
    Uninterrupted(JobOutcome),
    /// At least one crash, but the ladder brought the job back to a
    /// genuine verdict.  Exact-mode and genesis recoveries reproduce the
    /// uninterrupted counts; approximate recoveries trail them by at most
    /// [`RecoveryReport::divergence`].
    Recovered {
        /// The recovered job's final outcome (cumulative counts).
        outcome: JobOutcome,
        /// Full ladder provenance.
        report: RecoveryReport,
    },
    /// Every rung failed within the attempt budget.  The job has no
    /// verdict; the report says exactly what was tried.
    Exhausted {
        /// Ladder provenance up to exhaustion.
        report: RecoveryReport,
        /// The last rung's error.
        last_error: String,
    },
}

impl RecoveryOutcome {
    /// The final job outcome, if the job reached a verdict.
    pub fn outcome(&self) -> Option<&JobOutcome> {
        match self {
            RecoveryOutcome::Uninterrupted(outcome) => Some(outcome),
            RecoveryOutcome::Recovered { outcome, .. } => Some(outcome),
            RecoveryOutcome::Exhausted { .. } => None,
        }
    }

    /// The ladder provenance (`None` for uninterrupted runs).
    pub fn report(&self) -> Option<&RecoveryReport> {
        match self {
            RecoveryOutcome::Uninterrupted(_) => None,
            RecoveryOutcome::Recovered { report, .. } => Some(report),
            RecoveryOutcome::Exhausted { report, .. } => Some(report),
        }
    }
}

impl JobService {
    /// Runs `spec` under supervision until it reaches a genuine verdict,
    /// auto-checkpointing on `checkpoints`'s cadence and driving the
    /// recovery ladder documented in the [module docs](self) whenever an
    /// incarnation fails.  Returns `Err` only if the *initial* submission
    /// is rejected; after that every path ends in a [`RecoveryOutcome`].
    pub fn run_recoverable(
        &self,
        spec: &JobSpec,
        checkpoints: &CheckpointPolicy,
        policy: &RecoveryPolicy,
    ) -> Result<RecoveryOutcome, RejectReason> {
        let every_n = checkpoints.every_n_inputs.max(1);
        let max_snapshots = checkpoints.max_snapshots.max(1);
        let sources: Vec<usize> = spec.graph.sources().iter().map(|n| n.index()).collect();

        let mut ticket = self.submit(spec.clone())?;
        let mut stored: VecDeque<Vec<u8>> = VecDeque::new();
        let mut generation: u64 = 0;
        let mut report = RecoveryReport::default();
        let mut recovered = false;

        'incarnation: loop {
            // ---- supervision: poll + auto-checkpoint until settle ----
            let mut next_mark = source_progress(&ticket, &sources) + every_n;
            while !ticket.is_settled() {
                if source_progress(&ticket, &sources) >= next_mark {
                    match self.checkpoint_job(&ticket) {
                        Ok(snapshot) => {
                            generation += 1;
                            let mut bytes = snapshot.to_bytes();
                            // The codec-level fault: an armed job may hand
                            // back torn or bit-flipped bytes.  Stored
                            // anyway — the ladder must *discover* the
                            // damage at decode time, like a real torn
                            // write.
                            if let Some(arm) = ticket.handle.fault_arm() {
                                let _ = arm.corrupt_encoded(generation, &mut bytes);
                            }
                            stored.push_back(bytes);
                            if stored.len() > max_snapshots {
                                stored.pop_front();
                            }
                            next_mark = source_progress(&ticket, &sources) + every_n;
                        }
                        // Settled in the race window: the outer loop
                        // handles the verdict.
                        Err(SnapshotError::Settled(_)) => break,
                        // A concurrent checkpoint (impossible from this
                        // single supervisor) — just retry next poll.
                        Err(SnapshotError::InProgress) => {}
                    }
                } else {
                    std::thread::sleep(policy.poll);
                }
            }

            let outcome = ticket.wait();
            if outcome.verdict != JobVerdict::Failed {
                // A genuine verdict (completed / deadlocked / cancelled):
                // supervision is done.
                return Ok(if recovered {
                    Counters::bump(&self.counters.recovered);
                    if report.divergence > 0 {
                        Counters::bump(&self.counters.approx_recovered);
                    }
                    RecoveryOutcome::Recovered { outcome, report }
                } else {
                    RecoveryOutcome::Uninterrupted(outcome)
                });
            }

            // ---- the incarnation crashed: capture provenance ----
            report.crashes += 1;
            if let Some(arm) = ticket.handle.fault_arm() {
                if arm.alignment_tripped() {
                    report.midbarrier_crash = true;
                }
            }
            let wreck = ticket.handle.salvage().ok();
            let restore_corrupted = ticket
                .handle
                .fault_arm()
                .is_some_and(|arm| arm.take_restore_corruption());

            // ---- the ladder ----
            let rungs: [Rung; 3] = match policy.mode {
                RecoveryMode::Exact => [Rung::Full, Rung::Partial, Rung::Genesis],
                RecoveryMode::Approximate { .. } => [Rung::Partial, Rung::Full, Rung::Genesis],
            };
            let mut last_error = String::from("job failed with no snapshot to restore");
            for rung in rungs {
                // Flight-recorder span for this rung attempt; its arg is
                // the rung's code.
                let rung_t0 = self.telemetry.as_ref().map(TelemetryHandle::now_ns);
                let attempt = match rung {
                    Rung::Full => self.rung_full_restore(
                        spec,
                        &mut stored,
                        restore_corrupted,
                        policy,
                        &mut report,
                    ),
                    Rung::Partial => self.rung_partial_restart(
                        spec,
                        &stored,
                        &ticket,
                        wreck.as_ref(),
                        policy,
                        &mut report,
                    ),
                    Rung::Genesis => self.rung_genesis(spec, policy, &mut report),
                };
                self.control_span(EventKind::RecoveryRung, rung_t0, rung as u64);
                match attempt {
                    Ok(Some(new_ticket)) => {
                        recovered = true;
                        if rung == Rung::Partial {
                            report.partial_restart = true;
                            Counters::bump(&self.counters.partial_restarts);
                        }
                        if rung == Rung::Genesis {
                            report.genesis_restart = true;
                            // A genesis restart replays from the start:
                            // stored cuts of the dead lineage would
                            // double-count against it, and none of its
                            // splices' deficits carries over.
                            stored.clear();
                            generation = 0;
                            report.divergence = 0;
                        }
                        ticket = new_ticket;
                        continue 'incarnation;
                    }
                    Ok(None) => {} // rung not applicable / refused: next rung
                    Err(exhausted) => {
                        Counters::bump(&self.counters.recovery_exhausted);
                        return Ok(RecoveryOutcome::Exhausted {
                            report,
                            last_error: exhausted,
                        });
                    }
                }
                last_error = format!("{rung:?} rung refused or failed");
            }
            Counters::bump(&self.counters.recovery_exhausted);
            return Ok(RecoveryOutcome::Exhausted { report, last_error });
        }
    }

    /// One ladder attempt's bookkeeping: backoff (exponential in the
    /// global attempt number, capped), count it, and check the budget.
    /// Returns `false` if the budget is exhausted.
    fn pay_for_attempt(&self, policy: &RecoveryPolicy, report: &mut RecoveryReport) -> bool {
        if report.attempts >= policy.max_attempts.max(1) {
            return false;
        }
        let exp = report.attempts.min(16);
        let backoff = policy
            .initial_backoff
            .saturating_mul(1u32 << exp)
            .min(policy.max_backoff);
        std::thread::sleep(backoff);
        report.backoff_schedule.push(backoff);
        report.attempts += 1;
        Counters::bump(&self.counters.recovery_attempts);
        true
    }

    /// Rung: full restore, newest stored snapshot first.  Undecodable
    /// blobs are skipped (and counted); each valid snapshot gets up to two
    /// admission attempts (a resume can fail transiently — saturation —
    /// or permanently — plan drift).  `Ok(Some)` = job resumed; `Ok(None)`
    /// = rung exhausted its snapshots; `Err` = attempt budget exhausted.
    fn rung_full_restore(
        &self,
        spec: &JobSpec,
        stored: &mut VecDeque<Vec<u8>>,
        mut doctor_prefill: bool,
        policy: &RecoveryPolicy,
        report: &mut RecoveryReport,
    ) -> Result<Option<JobTicket>, String> {
        // Newest first; decode failures drop the blob for good.
        for idx in (0..stored.len()).rev() {
            report.snapshots_tried += 1;
            let mut snapshot = match JobSnapshot::from_bytes(&stored[idx]) {
                Ok(snapshot) => snapshot,
                Err(_) => {
                    report.corrupted_snapshots += 1;
                    Counters::bump(&self.counters.snapshots_corrupted);
                    stored.remove(idx);
                    continue;
                }
            };
            if doctor_prefill && !snapshot.channels.is_empty() {
                // Restore-time ring-prefill corruption (injected): the
                // doctored cut must be *rejected by validation*, never
                // staged.  One-shot — the next snapshot restores clean.
                doctor_prefill = false;
                let over = spec.graph.capacity(fila_graph::EdgeId::from_raw(0)) + 1;
                snapshot.channels[0] =
                    (0..over).map(|s| fila_runtime::Message::Dummy { seq: s }).collect();
            }
            for _ in 0..2 {
                if !self.pay_for_attempt(policy, report) {
                    return Err("attempt budget exhausted during full restore".into());
                }
                match self.resume_job(spec.clone(), &snapshot) {
                    Ok(ticket) => return Ok(Some(ticket)),
                    Err(RejectReason::Saturated { .. }) => continue, // retry helps
                    Err(_) => break, // deterministic failure: older snapshot
                }
            }
        }
        Ok(None)
    }

    /// Rung: partial restart — splice the failed node's downstream cone
    /// (rolled back to the newest consistent cut) against the salvaged
    /// wreck, gate on the mode's divergence budget, re-certify the
    /// *observed* filter profile, and stage through the swap-token resume.
    /// `dead` is the crashed incarnation's ticket.
    fn rung_partial_restart(
        &self,
        spec: &JobSpec,
        stored: &VecDeque<Vec<u8>>,
        dead: &JobTicket,
        wreck: Option<&JobSnapshot>,
        policy: &RecoveryPolicy,
        report: &mut RecoveryReport,
    ) -> Result<Option<JobTicket>, String> {
        let (Some(failed), Some(wreck)) = (dead.handle.failed_node(), wreck) else {
            return Ok(None);
        };
        // Newest decodable cut is the rollback base.
        let Some(base) = stored
            .iter()
            .rev()
            .find_map(|bytes| JobSnapshot::from_bytes(bytes).ok())
        else {
            return Ok(None);
        };

        // The cone: the failed node plus everything downstream of it
        // (downstream-closed by construction).
        let g = &spec.graph;
        let cone = reachable_from(g, NodeId::from_raw(failed));
        let cone_edges: Vec<(bool, bool)> = g
            .edge_ids()
            .map(|e| (cone[g.tail(e).index()], cone[g.head(e).index()]))
            .collect();

        let (spliced, divergence) =
            match JobSnapshot::splice_downstream(&base, wreck, &cone, &cone_edges) {
                Ok(spliced) => spliced,
                Err(_) => return Ok(None),
            };
        let Some(lineage_divergence) = add_splice(report.divergence, divergence, policy.mode)
        else {
            return Ok(None);
        };

        // Re-certify the spliced cut against the *observed* profile (the
        // wreck's counters — what the upstream actually filtered), not the
        // declaration: the restart must be provably gap-safe for the
        // traffic it resumes into.
        let declared = spec.filters.periods(g);
        let per_node_firings: Vec<u64> = wreck.nodes.iter().map(|n| n.firings).collect();
        let observed = observed_periods(g, &declared, &per_node_firings, &wreck.per_edge_data);
        let certified = match spec.avoidance {
            AvoidanceChoice::Disabled => None,
            AvoidanceChoice::Planned(requested) => {
                match self.recertify(spec, requested, self.config.cycle_bound, &observed) {
                    Ok(certified) => Some(certified),
                    Err(_) => return Ok(None), // nothing certifies: refuse
                }
            }
        };

        if !self.pay_for_attempt(policy, report) {
            return Err("attempt budget exhausted during partial restart".into());
        }
        let Ok(slot) = self.reserve_slot() else {
            return Ok(None);
        };
        let identity = (Some(dead.fingerprint), dead.filter_signature);
        let origin = Origin::Swap(&spliced);
        let Ok(ticket) = self.start(spec, certified.as_ref(), identity, origin, slot) else {
            return Ok(None);
        };
        report.divergence = lineage_divergence;
        Ok(Some(ticket))
    }

    /// Rung: resubmit from scratch.  Always exact; always loses the dead
    /// lineage's progress.
    fn rung_genesis(
        &self,
        spec: &JobSpec,
        policy: &RecoveryPolicy,
        report: &mut RecoveryReport,
    ) -> Result<Option<JobTicket>, String> {
        loop {
            if !self.pay_for_attempt(policy, report) {
                return Err("attempt budget exhausted during genesis resubmission".into());
            }
            match self.submit(spec.clone()) {
                Ok(ticket) => return Ok(Some(ticket)),
                Err(RejectReason::Saturated { .. }) => continue,
                Err(e) => return Err(format!("genesis resubmission rejected: {e}")),
            }
        }
    }
}

/// The three rungs of the ladder (order depends on [`RecoveryMode`]), each
/// with the code its flight-recorder span carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Full = 0,
    Partial = 1,
    Genesis = 2,
}

/// The lineage's data deficit after one more splice, or `None` when `mode`
/// refuses the splice.  Deficits add up: a lineage restarted twice trails
/// its reference by both splices' losses, so an approximate recovery
/// budgets the *sum* (saturating) against `max_divergence`.  Exact mode
/// refuses any deficit, data or dummies.
fn add_splice(lineage: u64, splice: SpliceDivergence, mode: RecoveryMode) -> Option<u64> {
    match mode {
        RecoveryMode::Exact => (splice == SpliceDivergence::default()).then_some(lineage),
        RecoveryMode::Approximate { max_divergence } => {
            Some(lineage.saturating_add(splice.data)).filter(|&sum| sum <= max_divergence)
        }
    }
}

/// The job's slowest-source emission count — the auto-checkpoint clock.
fn source_progress(ticket: &JobTicket, sources: &[usize]) -> u64 {
    let obs = ticket.observe();
    sources
        .iter()
        .map(|&s| obs.per_node_firings[s])
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FilterSpec;
    use crate::ServiceConfig;
    use fila_avoidance::Algorithm;
    use fila_graph::GraphBuilder;
    use fila_runtime::FaultPlan;
    use std::sync::Arc;

    fn pipeline(n: usize, cap: u64) -> fila_graph::Graph {
        let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = GraphBuilder::new().default_capacity(cap);
        b.chain(&refs).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn splice_deficits_add_up_against_the_budget() {
        let splice = |data| SpliceDivergence { data, dummies: 3 };
        let budget = |max_divergence| RecoveryMode::Approximate { max_divergence };
        let first = add_splice(0, splice(20), budget(30));
        assert_eq!(first, Some(20));
        assert_eq!(add_splice(20, splice(15), budget(30)), None, "35 > 30");
        assert_eq!(add_splice(20, splice(15), budget(256)), Some(35));
        let saturated = add_splice(u64::MAX, splice(1), budget(u64::MAX));
        assert_eq!(saturated, Some(u64::MAX));
        // Exact mode refuses any deficit, a dummy-only one included.
        let exact = |splice| add_splice(0, splice, RecoveryMode::Exact);
        assert_eq!(exact(SpliceDivergence::default()), Some(0));
        assert_eq!(exact(splice(0)), None);
    }

    #[test]
    fn uninterrupted_runs_report_no_recovery() {
        let svc = JobService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let spec = JobSpec::new(pipeline(6, 4), FilterSpec::Broadcast, 2_000).unplanned();
        let outcome = svc
            .run_recoverable(&spec, &CheckpointPolicy::default(), &RecoveryPolicy::default())
            .unwrap();
        match outcome {
            RecoveryOutcome::Uninterrupted(o) => {
                assert_eq!(o.verdict, JobVerdict::Completed);
                assert_eq!(o.report.sink_firings, 2_000);
            }
            other => panic!("expected uninterrupted, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.recovery_attempts, 0);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn injected_crashes_recover_to_reference_counts() {
        let reference = {
            let spec = JobSpec::new(pipeline(5, 4), FilterSpec::Broadcast, 600).unplanned();
            fila_runtime::Simulator::new(&spec.program()).run(600)
        };
        // Seed 66 at kill-rate 0.3 deterministically arms the *first* job
        // serial with a Firing(47) crash while leaving the next several
        // serials unarmed: the original incarnation always dies mid-run
        // and the recovery incarnation always survives.
        let svc = JobService::new(ServiceConfig {
            workers: 2,
            faults: Some(Arc::new(FaultPlan::seeded(66).kill_rate(0.3))),
            ..ServiceConfig::default()
        });
        let spec = JobSpec::new(pipeline(5, 4), FilterSpec::Broadcast, 600).unplanned();
        let policy = RecoveryPolicy {
            max_attempts: 32,
            ..RecoveryPolicy::default()
        };
        let checkpoints = CheckpointPolicy {
            every_n_inputs: 50,
            max_snapshots: 4,
        };
        let outcome = svc.run_recoverable(&spec, &checkpoints, &policy).unwrap();
        match outcome {
            RecoveryOutcome::Recovered { outcome, report } => {
                assert!(report.crashes >= 1);
                let stats = svc.stats();
                assert!(stats.failed >= 1);
                assert!(stats.recovered >= 1);
                assert!(report.attempts >= 1);
                assert_eq!(report.divergence, 0, "exact mode admits no deficit");
                assert_eq!(outcome.verdict, JobVerdict::Completed, "{outcome:?}");
                assert_eq!(outcome.report.per_edge_data, reference.per_edge_data);
                assert_eq!(outcome.report.sink_firings, reference.sink_firings);
            }
            RecoveryOutcome::Uninterrupted(o) => {
                panic!("serial 0 is armed with a deterministic Firing crash: {o:?}");
            }
            RecoveryOutcome::Exhausted { report, last_error } => {
                panic!("ladder exhausted: {last_error} ({report:?})");
            }
        }
    }
    #[test]
    fn a_partial_restart_reports_the_plan_it_runs_under() {
        // Propagation requested, admitted under the Non-Propagation
        // fallback (interior recognisers filter).  A partial restart
        // re-certifies and runs that fallback again, and its ticket must
        // say so — not echo the request.
        let (g, periods) = fila_workloads::jobs::interior_filtered_fallback(7);
        let spec = JobSpec::new(g, FilterSpec::PerNode(periods), 3_000)
            .avoidance(AvoidanceChoice::Planned(Algorithm::Propagation));
        let policy = RecoveryPolicy {
            max_attempts: 32,
            mode: RecoveryMode::Approximate {
                max_divergence: 1_000_000,
            },
            ..RecoveryPolicy::default()
        };
        let checkpoints = CheckpointPolicy {
            every_n_inputs: 50,
            max_snapshots: 4,
        };
        // Which job serial a seed arms, and whether the crash lands after a
        // first checkpoint, is the plan's business: take the first seed
        // whose ladder recovered through the partial rung alone.
        for seed in 0..200 {
            let svc = JobService::new(ServiceConfig {
                workers: 2,
                faults: Some(Arc::new(FaultPlan::seeded(seed).kill_rate(0.5))),
                ..ServiceConfig::default()
            });
            let Ok(RecoveryOutcome::Recovered { outcome, report }) =
                svc.run_recoverable(&spec, &checkpoints, &policy)
            else {
                continue;
            };
            if !report.partial_restart || report.genesis_restart {
                continue;
            }
            assert_eq!(
                outcome.algorithm,
                Some(Algorithm::NonPropagation),
                "seed {seed}"
            );
            assert!(outcome.fell_back, "seed {seed}");
            assert!(outcome.cache_hit.is_some(), "seed {seed}");
            // The admission and every re-certification counted, each as
            // the fallback it was.
            let stats = svc.stats();
            assert!(stats.certified >= 2, "seed {seed}: {stats:?}");
            assert_eq!(stats.fell_back, stats.certified, "seed {seed}: {stats:?}");
            return;
        }
        panic!("no chaos seed in 0..200 recovered through a partial restart");
    }
}
