//! Aggregate service statistics, with hand-rolled JSON serialisation
//! (following the `BENCH_*` record precedent: no serde in this workspace).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::metrics::{LatencySummary, TenantSummary};

/// Lock-free counters the service mutates on its hot paths; snapshotted
/// into a [`ServiceStats`] on demand.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub rejected_invalid: AtomicU64,
    pub rejected_too_large: AtomicU64,
    pub rejected_saturated: AtomicU64,
    pub rejected_unplannable: AtomicU64,
    pub rejected_uncertifiable: AtomicU64,
    pub rejected_restore_mismatch: AtomicU64,
    pub certified: AtomicU64,
    pub fell_back: AtomicU64,
    pub completed: AtomicU64,
    pub deadlocked: AtomicU64,
    pub failed: AtomicU64,
    pub cancelled: AtomicU64,
    pub messages: AtomicU64,
    pub snapshots: AtomicU64,
    pub restores: AtomicU64,
    pub drift_detected: AtomicU64,
    pub hot_swapped: AtomicU64,
    pub quarantined: AtomicU64,
    pub drift_cancelled: AtomicU64,
    pub recovered: AtomicU64,
    pub recovery_attempts: AtomicU64,
    pub partial_restarts: AtomicU64,
    pub recovery_exhausted: AtomicU64,
    pub snapshots_corrupted: AtomicU64,
    pub approx_recovered: AtomicU64,
}

impl Counters {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of everything the service has done.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Jobs submitted (admitted + rejected).
    pub submitted: u64,
    /// Jobs that passed admission control and reached the pool.
    pub admitted: u64,
    /// Rejections: graph or filter-spec validation failed.
    pub rejected_invalid: u64,
    /// Rejections: graph size above the configured limit.
    pub rejected_too_large: u64,
    /// Rejections: in-flight bound reached.
    pub rejected_saturated: u64,
    /// Rejections: no deadlock-avoidance plan within the planning budget.
    pub rejected_unplannable: u64,
    /// Rejections: plans were computed but none certified for the job's
    /// declared filter spec (fallback chain exhausted).
    pub rejected_uncertifiable: u64,
    /// Rejections: a [`JobService::resume_job`](crate::JobService::resume_job)
    /// submission whose snapshot does not match the spec's workload
    /// identity or certified plan (drifted topology, filters, plan
    /// intervals, or a corrupted blob).  A mismatched resume is always
    /// rejected — never silently re-planned.
    pub rejected_restore_mismatch: u64,
    /// Planned admissions whose plan passed filtering-aware certification.
    pub certified: u64,
    /// Certified admissions whose plan was a fallback (protocol switch
    /// and/or exhaustive escalation) from the requested one.
    pub fell_back: u64,
    /// Settled jobs whose every node reached end-of-stream.
    pub completed: u64,
    /// Settled jobs with an exact runtime deadlock verdict.
    pub deadlocked: u64,
    /// Settled jobs whose behaviour panicked.
    pub failed: u64,
    /// Jobs cancelled by service shutdown.
    pub cancelled: u64,
    /// Jobs admitted but not yet settled.
    pub in_flight: u64,
    /// Certification lookups served from the verdict cache (repeat
    /// submissions of a known shape + filter signature skip the whole
    /// model check and fallback chain).
    pub cert_cache_hits: u64,
    /// Certification lookups that walked the fallback chain.
    pub cert_cache_misses: u64,
    /// Messages (data + dummies) delivered by settled jobs.
    pub messages: u64,
    /// Barrier snapshots captured via
    /// [`JobService::checkpoint_job`](crate::JobService::checkpoint_job).
    pub snapshots: u64,
    /// Jobs admitted as resumes of a snapshot via
    /// [`JobService::resume_job`](crate::JobService::resume_job)
    /// (counted in `admitted` too).
    pub restores: u64,
    /// Supervised jobs whose observed filter profile breached the declared
    /// one for the configured number of consecutive windows (see
    /// [`DriftPolicy`](crate::DriftPolicy)); every detection takes exactly
    /// one of the three ladder exits below.
    pub drift_detected: u64,
    /// Drift responses resolved by the ladder's first rung: snapshot,
    /// re-certify the observed profile (cached verdicts are the fast
    /// path), and resume under the new plan without stopping the pool.
    pub hot_swapped: u64,
    /// Drift responses that fell past the first rung: the job was
    /// quarantined (its running incarnation cancelled) while a dedicated
    /// escalated-budget replan ran.
    pub quarantined: u64,
    /// Quarantined jobs whose escalated replan also failed: retired with
    /// the offending nodes and observed rates
    /// ([`AdaptiveOutcome::DriftCancelled`](crate::AdaptiveOutcome)).
    pub drift_cancelled: u64,
    /// Supervised-recovery jobs ([`JobService::run_recoverable`](crate::JobService::run_recoverable))
    /// that failed mid-run and were brought back to a genuine verdict by
    /// the recovery ladder (full restore, partial restart or genesis
    /// resubmission).
    pub recovered: u64,
    /// Individual restore/restart attempts made by the recovery ladder
    /// (each retry of each snapshot counts; ≥ `recovered`).
    pub recovery_attempts: u64,
    /// Recoveries that went through a **partial restart**: only the
    /// subgraph downstream of the failed node was rolled back to the last
    /// consistent cut, spliced against the salvaged wreck.
    pub partial_restarts: u64,
    /// Supervised-recovery jobs whose entire ladder (every snapshot, the
    /// partial restart, the genesis resubmission) failed: reported as
    /// [`RecoveryOutcome::Exhausted`](crate::RecoveryOutcome) with full
    /// provenance, never silently dropped.
    pub recovery_exhausted: u64,
    /// Auto-checkpoint snapshots that failed decode at recovery time
    /// (torn/bit-flipped blobs skipped by the ladder).
    pub snapshots_corrupted: u64,
    /// Recoveries admitted under
    /// [`RecoveryMode::Approximate`](crate::RecoveryMode) with a non-zero
    /// reported divergence bound.
    pub approx_recovered: u64,
    /// Admission→settle latency percentiles over all settled jobs (all
    /// zeros unless [`ServiceConfig::telemetry`](crate::ServiceConfig) is
    /// on).
    pub latency_settle: LatencySummary,
    /// Per-node firing-slice duration percentiles from the flight
    /// recorder (all zeros unless telemetry is on).
    pub latency_firing: LatencySummary,
    /// Blocked-stall duration percentiles — time from a task reporting
    /// Blocked to its next firing (all zeros unless telemetry is on).
    pub latency_blocked: LatencySummary,
    /// Per-tenant settle-latency percentiles and job/message counts,
    /// sorted by tenant tag (empty unless telemetry is on).
    pub tenants: Vec<TenantSummary>,
    /// Time since the service started.
    pub uptime: Duration,
}

impl ServiceStats {
    /// Total rejections, over all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_invalid
            + self.rejected_too_large
            + self.rejected_saturated
            + self.rejected_unplannable
            + self.rejected_uncertifiable
            + self.rejected_restore_mismatch
    }

    /// Fraction of certification lookups served from the verdict cache
    /// (0.0 before any).
    pub fn cert_cache_hit_rate(&self) -> f64 {
        let total = self.cert_cache_hits + self.cert_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cert_cache_hits as f64 / total as f64
        }
    }

    /// Messages delivered per second of service uptime.
    pub fn msgs_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.messages as f64 / secs
        }
    }

    /// Settled jobs per second of service uptime.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        let settled = self.completed + self.deadlocked + self.failed + self.cancelled;
        if secs <= 0.0 {
            0.0
        } else {
            settled as f64 / secs
        }
    }

    /// Hand-rolled JSON rendering (stable key order, schema-versioned; no
    /// serde anywhere in this workspace).  Schema version 2 added the
    /// certification fields (`rejected_uncertifiable`, `certified`,
    /// `fell_back`, `uncertified_nonprop`); version 3 added the
    /// checkpoint/restore fields (`rejected_restore_mismatch`,
    /// `snapshots`, `restores`); version 4 added the adaptive-runtime
    /// fields (`drift_detected`, `hot_swapped`, `quarantined`,
    /// `drift_cancelled`); version 5 added the self-healing fields
    /// (`recovered`, `recovery_attempts`, `partial_restarts`,
    /// `recovery_exhausted`, `snapshots_corrupted`, `approx_recovered`);
    /// version 6 added the telemetry fields — the nested `"latency"`
    /// object (`settle`/`firing`/`blocked` percentile summaries) and the
    /// `"tenants"` array (all-zero/empty when telemetry is off); version 7
    /// removed the four plan-table fields (its hit, miss and entry counts
    /// and its hit rate) with the table: the cache holds certification
    /// verdicts only.
    ///
    /// `uncertified_nonprop` — planned admissions executed without
    /// certification — is a literal 0: every planned admission is certified
    /// by construction.
    pub fn to_json(&self) -> String {
        let tenants = self
            .tenants
            .iter()
            .map(TenantSummary::to_json)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            concat!(
                "{{\"schema_version\": 7, ",
                "\"submitted\": {}, \"admitted\": {}, ",
                "\"rejected_invalid\": {}, \"rejected_too_large\": {}, ",
                "\"rejected_saturated\": {}, \"rejected_unplannable\": {}, ",
                "\"rejected_uncertifiable\": {}, ",
                "\"rejected_restore_mismatch\": {}, ",
                "\"certified\": {}, \"fell_back\": {}, ",
                "\"uncertified_nonprop\": 0, ",
                "\"completed\": {}, \"deadlocked\": {}, \"failed\": {}, ",
                "\"cancelled\": {}, \"in_flight\": {}, ",
                "\"cert_cache_hits\": {}, \"cert_cache_misses\": {}, ",
                "\"cert_cache_hit_rate\": {:.4}, ",
                "\"messages\": {}, \"snapshots\": {}, \"restores\": {}, ",
                "\"drift_detected\": {}, \"hot_swapped\": {}, ",
                "\"quarantined\": {}, \"drift_cancelled\": {}, ",
                "\"recovered\": {}, \"recovery_attempts\": {}, ",
                "\"partial_restarts\": {}, \"recovery_exhausted\": {}, ",
                "\"snapshots_corrupted\": {}, \"approx_recovered\": {}, ",
                "\"latency\": {{\"settle\": {}, \"firing\": {}, \"blocked\": {}}}, ",
                "\"tenants\": [{}], ",
                "\"uptime_ms\": {:.3}, ",
                "\"msgs_per_sec\": {:.1}, \"jobs_per_sec\": {:.2}}}"
            ),
            self.submitted,
            self.admitted,
            self.rejected_invalid,
            self.rejected_too_large,
            self.rejected_saturated,
            self.rejected_unplannable,
            self.rejected_uncertifiable,
            self.rejected_restore_mismatch,
            self.certified,
            self.fell_back,
            self.completed,
            self.deadlocked,
            self.failed,
            self.cancelled,
            self.in_flight,
            self.cert_cache_hits,
            self.cert_cache_misses,
            self.cert_cache_hit_rate(),
            self.messages,
            self.snapshots,
            self.restores,
            self.drift_detected,
            self.hot_swapped,
            self.quarantined,
            self.drift_cancelled,
            self.recovered,
            self.recovery_attempts,
            self.partial_restarts,
            self.recovery_exhausted,
            self.snapshots_corrupted,
            self.approx_recovered,
            self.latency_settle.to_json(),
            self.latency_firing.to_json(),
            self.latency_blocked.to_json(),
            tenants,
            self.uptime.as_secs_f64() * 1e3,
            self.msgs_per_sec(),
            self.jobs_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceStats {
        ServiceStats {
            submitted: 10,
            admitted: 7,
            rejected_invalid: 1,
            rejected_too_large: 0,
            rejected_saturated: 1,
            rejected_unplannable: 1,
            rejected_uncertifiable: 0,
            rejected_restore_mismatch: 1,
            certified: 4,
            fell_back: 1,
            completed: 5,
            deadlocked: 1,
            failed: 0,
            cancelled: 0,
            in_flight: 1,
            cert_cache_hits: 3,
            cert_cache_misses: 1,
            messages: 1000,
            snapshots: 2,
            restores: 1,
            drift_detected: 2,
            hot_swapped: 1,
            quarantined: 1,
            drift_cancelled: 1,
            recovered: 2,
            recovery_attempts: 5,
            partial_restarts: 1,
            recovery_exhausted: 1,
            snapshots_corrupted: 1,
            approx_recovered: 1,
            latency_settle: LatencySummary {
                count: 6,
                p50_ns: 1023,
                p90_ns: 2047,
                p99_ns: 4095,
                p999_ns: 4095,
                max_ns: 3500,
            },
            latency_firing: LatencySummary::default(),
            latency_blocked: LatencySummary::default(),
            tenants: vec![TenantSummary {
                tenant: "acme".to_string(),
                jobs: 4,
                messages: 800,
                latency: LatencySummary {
                    count: 4,
                    p50_ns: 1023,
                    p90_ns: 1023,
                    p99_ns: 2047,
                    p999_ns: 2047,
                    max_ns: 1800,
                },
            }],
            uptime: Duration::from_millis(500),
        }
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert_eq!(s.rejected(), 4);
        assert!((s.cert_cache_hit_rate() - 0.75).abs() < 1e-9);
        assert!((s.msgs_per_sec() - 2000.0).abs() < 1e-6);
        assert!((s.jobs_per_sec() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn json_is_parsable_shape() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"schema_version\": 7, "));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"admitted\": 7"));
        assert!(json.contains("\"certified\": 4"));
        assert!(json.contains("\"fell_back\": 1"));
        assert!(json.contains("\"uncertified_nonprop\": 0"));
        assert!(json.contains("\"rejected_uncertifiable\": 0"));
        assert!(json.contains("\"rejected_restore_mismatch\": 1"));
        assert!(json.contains("\"snapshots\": 2"));
        assert!(json.contains("\"restores\": 1"));
        assert!(json.contains("\"drift_detected\": 2"));
        assert!(json.contains("\"hot_swapped\": 1"));
        assert!(json.contains("\"quarantined\": 1"));
        assert!(json.contains("\"drift_cancelled\": 1"));
        assert!(json.contains("\"recovered\": 2"));
        assert!(json.contains("\"recovery_attempts\": 5"));
        assert!(json.contains("\"partial_restarts\": 1"));
        assert!(json.contains("\"recovery_exhausted\": 1"));
        assert!(json.contains("\"snapshots_corrupted\": 1"));
        assert!(json.contains("\"approx_recovered\": 1"));
        assert!(json.contains("\"cert_cache_hit_rate\": 0.7500"));
        assert!(!json.contains("plan_cache"));
        assert!(json.contains("\"msgs_per_sec\": 2000.0"));
        // Schema v6 nested telemetry objects.
        assert!(json.contains("\"latency\": {\"settle\": {\"count\": 6, \"p50_ns\": 1023"));
        assert!(json.contains("\"firing\": {\"count\": 0"));
        assert!(json.contains("\"tenants\": [{\"tenant\": \"acme\", \"jobs\": 4"));
        assert!(json.contains("\"p99_ns\": 2047"));
        // Braces balance and no trailing comma sloppiness.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",}"));
        assert!(!json.contains(",]"));
    }

    #[test]
    fn empty_tenants_render_as_empty_array() {
        let mut s = sample();
        s.tenants.clear();
        let json = s.to_json();
        assert!(json.contains("\"tenants\": [], "));
    }

    #[test]
    fn zero_uptime_yields_zero_rates() {
        let mut s = sample();
        s.uptime = Duration::ZERO;
        assert_eq!(s.msgs_per_sec(), 0.0);
        assert_eq!(s.jobs_per_sec(), 0.0);
    }
}
