//! Deterministic, seeded fault injection — the chaos harness the
//! self-healing service is tested against.
//!
//! A [`FaultPlan`] is handed to [`SharedPool`](crate::SharedPool) at
//! construction ([`crate::PoolOptions::faults`]).  Every submitted or
//! resumed job draws a monotonically increasing serial; the plan maps that
//! serial — via the same splitmix64 finaliser the workload generators use —
//! to an optional [`FaultArm`]: the complete, pre-decided fault schedule of
//! that one job.  Identical `(seed, kill-rate)` pairs therefore produce
//! identical fault timelines run after run, which is what lets the chaos
//! oracle (`fila storm --chaos`) cross-check every recovered job against an
//! uninterrupted reference execution.
//!
//! ## Injectable faults
//!
//! * **Worker-thread panic at firing N** — the armed job's Nth task
//!   execution panics inside the worker's `catch_unwind` region, exactly
//!   like a buggy node behaviour ([`FaultArm::tick_execute`]).
//! * **Panic during barrier alignment** — the first task of the job to
//!   contribute to a barrier of checkpoint epoch ≥ 2 panics *mid-alignment*,
//!   tearing the in-flight snapshot and failing the job while a checkpoint
//!   is being collected ([`FaultArm::trip_alignment`]).  Epoch 1 is spared
//!   on purpose: a mid-barrier crash is only interesting to recovery when a
//!   previous complete cut exists to restart from.
//! * **Delayed wakeups** — a bounded budget of channel-event wakeups each
//!   eat a short sleep before enqueueing, perturbing scheduling order
//!   without changing semantics ([`FaultArm::delay_wake`]).
//! * **Snapshot truncation / bit-flips on encode** — a deterministic subset
//!   of the job's encoded checkpoints are torn after serialisation
//!   ([`FaultArm::corrupt_encoded`]); the damage is discovered only when
//!   recovery decodes the blob, exercising the snapshot-by-snapshot
//!   fallback.
//! * **Restore-time ring-prefill corruption** — one restore attempt gets
//!   its snapshot doctored with an over-capacity channel prefill
//!   ([`FaultArm::take_restore_corruption`]), which the restore validator
//!   must refuse with a typed error (never a panic), forcing a retry.
//!
//! ## Zero cost when disabled
//!
//! A pool built without a plan stores `None` per job; the hot path pays one
//! predictable `Option` branch per task execution and per wakeup — nothing
//! per firing, no atomics, no allocation.  All per-firing bookkeeping lives
//! inside the armed job's own `FaultArm`.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where an armed job's injected crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// The job's `n`th task execution panics on its worker thread.
    Firing(u64),
    /// The job's first barrier-alignment contribution of checkpoint epoch
    /// ≥ 2 panics mid-alignment.
    Alignment,
}

/// What [`FaultArm::corrupt_encoded`] did to an encoded snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDamage {
    /// The blob was truncated to this many bytes.
    Truncated(usize),
    /// One bit of the header was flipped (byte index recorded).
    BitFlipped(usize),
}

/// The pre-decided fault schedule of one armed job (see the module docs).
/// All methods are cheap and thread-safe; the one-shot crash sites latch
/// atomically so retries and re-executions never double-fire.
#[derive(Debug)]
pub struct FaultArm {
    seed: u64,
    crash: Option<CrashSite>,
    crash_fired: AtomicBool,
    /// Set (before the panic) when the alignment crash actually tripped —
    /// the recovery report uses it to tell a mid-barrier crash from a plain
    /// worker crash.
    alignment_tripped: AtomicBool,
    ticks: AtomicU64,
    wake_delays: AtomicU32,
    corrupt_encode: bool,
    corrupt_restore: AtomicBool,
}

impl FaultArm {
    /// True once the injected crash actually fired.
    pub fn crashed(&self) -> bool {
        self.crash_fired.load(Ordering::SeqCst)
    }

    /// True once the alignment crash tripped — i.e. the job was killed
    /// *during* barrier alignment, mid-checkpoint.
    pub fn alignment_tripped(&self) -> bool {
        self.alignment_tripped.load(Ordering::SeqCst)
    }

    /// Called by the pool once per task execution of the armed job, inside
    /// the worker's `catch_unwind` region.  Panics on the scheduled firing.
    pub fn tick_execute(&self) {
        if let Some(CrashSite::Firing(n)) = self.crash {
            let tick = self.ticks.fetch_add(1, Ordering::SeqCst) + 1;
            if tick >= n && !self.crash_fired.swap(true, Ordering::SeqCst) {
                panic!("injected: worker panic at task execution {n}");
            }
        }
    }

    /// Called by the pool's snapshot sink right before a task contributes
    /// its aligned state to checkpoint `epoch`.  Panics mid-alignment (once,
    /// on epochs ≥ 2) if this arm carries the alignment crash.
    pub fn trip_alignment(&self, epoch: u64) {
        if self.crash == Some(CrashSite::Alignment)
            && epoch >= 2
            && !self.crash_fired.swap(true, Ordering::SeqCst)
        {
            self.alignment_tripped.store(true, Ordering::SeqCst);
            panic!("injected: panic during barrier alignment (epoch {epoch})");
        }
    }

    /// Called by the pool before enqueueing a wakeup of the armed job;
    /// sleeps briefly while the delay budget lasts.
    pub fn delay_wake(&self) {
        let mut left = self.wake_delays.load(Ordering::Relaxed);
        while left > 0 {
            match self.wake_delays.compare_exchange_weak(
                left,
                left - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    std::thread::sleep(Duration::from_micros(20));
                    return;
                }
                Err(observed) => left = observed,
            }
        }
    }

    /// Deterministically tears a deterministic subset of the job's encoded
    /// snapshots (roughly every other generation): either truncates the
    /// blob or flips one header bit.  Both damages are guaranteed to
    /// surface as a **typed** decode error, never as silently wrong state —
    /// the snapshot-bytes fuzz suite pins that property for arbitrary
    /// corruption.  Returns what was done, or `None` if this generation is
    /// spared (or the arm does not corrupt encodes).
    pub fn corrupt_encoded(&self, generation: u64, bytes: &mut Vec<u8>) -> Option<SnapshotDamage> {
        if !self.corrupt_encode || bytes.len() < 16 {
            return None;
        }
        let h = mix(self.seed ^ generation.wrapping_mul(0x9E37_79B9));
        if h % 2 != 0 {
            return None;
        }
        if (h >> 1) % 2 == 0 {
            let keep = 1 + (h >> 2) as usize % (bytes.len() - 1);
            bytes.truncate(keep);
            Some(SnapshotDamage::Truncated(keep))
        } else {
            // Flip a bit in the magic/version header: always a typed
            // `Corrupted`/`VersionMismatch`, never a misread payload.
            let byte = (h >> 2) as usize % 12;
            bytes[byte] ^= 1 << ((h >> 8) % 8);
            Some(SnapshotDamage::BitFlipped(byte))
        }
    }

    /// One-shot: true exactly once if this arm doctors a restore attempt
    /// (the caller then corrupts the ring prefill of the snapshot it is
    /// about to restore, and the restore validator must refuse it).
    pub fn take_restore_corruption(&self) -> bool {
        self.corrupt_restore.swap(false, Ordering::SeqCst)
    }
}

/// A deterministic, seeded fault-injection schedule for a whole pool (see
/// the module docs).  Cloneable via `Arc`; all state lives in the per-job
/// [`FaultArm`]s it hands out.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    kill_rate: f64,
}

impl FaultPlan {
    /// A plan deriving every decision from `seed` (same seed + same
    /// submission order ⇒ same faults), with a default kill-rate of 0.25.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            kill_rate: 0.25,
        }
    }

    /// Sets the fraction of jobs that get a crash injected (clamped to
    /// `[0, 1]`).  The secondary faults (snapshot corruption, restore
    /// doctoring, delayed wakeups) are derived per armed job.
    pub fn kill_rate(mut self, rate: f64) -> Self {
        self.kill_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides the fault schedule of the job with this pool serial.
    /// Deterministic: the same `(seed, kill-rate, serial)` always yields the
    /// same arm.  Returns `None` (the common case) for unarmed jobs.
    pub fn arm(&self, serial: u64) -> Option<Arc<FaultArm>> {
        let h = mix(self.seed ^ serial.wrapping_mul(0xA24B_AED4_963E_E407));
        let armed = (h as f64) < self.kill_rate * (u64::MAX as f64);
        let d = mix(self.seed ^ serial.wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ 0xDE1A);
        let delays = if (d as f64) < self.kill_rate * (u64::MAX as f64) {
            32
        } else {
            0
        };
        if !armed && delays == 0 {
            return None;
        }
        let h2 = mix(h ^ 0xC4A5);
        let crash = armed.then(|| {
            if h2 % 2 == 0 {
                CrashSite::Firing(1 + (h2 >> 1) % 48)
            } else {
                CrashSite::Alignment
            }
        });
        Some(Arc::new(FaultArm {
            seed: mix(self.seed ^ serial),
            crash,
            crash_fired: AtomicBool::new(false),
            alignment_tripped: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            wake_delays: AtomicU32::new(delays),
            corrupt_encode: armed && (h2 >> 8) % 4 == 0,
            corrupt_restore: AtomicBool::new(armed && (h2 >> 10) % 4 == 0),
        }))
    }
}

/// splitmix64 finaliser — the same mixer the workload generators and the
/// storm CLI use for deterministic per-index decisions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::seeded(0xF11A).kill_rate(0.3);
        let again = FaultPlan::seeded(0xF11A).kill_rate(0.3);
        let mut crashes = 0;
        for serial in 0..1000u64 {
            let a = plan.arm(serial);
            let b = again.arm(serial);
            assert_eq!(a.is_some(), b.is_some(), "serial {serial}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.crash, b.crash, "serial {serial}");
                if a.crash.is_some() {
                    crashes += 1;
                }
            }
        }
        // 30% of 1000 with generous slack.
        assert!((200..=400).contains(&crashes), "{crashes} crashes armed");
    }

    #[test]
    fn zero_kill_rate_arms_nothing() {
        let plan = FaultPlan::seeded(7).kill_rate(0.0);
        assert!((0..500).all(|s| plan.arm(s).is_none()));
    }

    #[test]
    fn firing_crash_fires_exactly_once() {
        let plan = FaultPlan::seeded(1).kill_rate(1.0);
        let arm = (0..64)
            .filter_map(|s| plan.arm(s))
            .find(|a| matches!(a.crash, Some(CrashSite::Firing(_))))
            .expect("some serial draws a firing crash at kill-rate 1");
        let Some(CrashSite::Firing(n)) = arm.crash else {
            unreachable!()
        };
        for _ in 1..n {
            arm.tick_execute(); // must not panic before the scheduled tick
        }
        assert!(!arm.crashed());
        let err = std::panic::catch_unwind(|| arm.tick_execute());
        assert!(err.is_err(), "tick {n} must panic");
        assert!(arm.crashed());
        arm.tick_execute(); // latched: never fires twice
    }

    #[test]
    fn alignment_crash_spares_epoch_one_and_latches() {
        let plan = FaultPlan::seeded(2).kill_rate(1.0);
        let arm = (0..64)
            .filter_map(|s| plan.arm(s))
            .find(|a| a.crash == Some(CrashSite::Alignment))
            .expect("some serial draws an alignment crash at kill-rate 1");
        arm.trip_alignment(1); // epoch 1 spared
        assert!(!arm.crashed());
        assert!(std::panic::catch_unwind(|| arm.trip_alignment(2)).is_err());
        assert!(arm.alignment_tripped());
        arm.trip_alignment(3); // latched
    }

    #[test]
    fn encode_corruption_is_typed_damage_and_deterministic() {
        let plan = FaultPlan::seeded(3).kill_rate(1.0);
        let arm = (0..256)
            .filter_map(|s| plan.arm(s))
            .find(|a| a.corrupt_encode)
            .expect("some serial draws encode corruption at kill-rate 1");
        let original: Vec<u8> = (0..200u8).collect();
        let mut damaged_any = false;
        for generation in 0..16u64 {
            let mut a = original.clone();
            let mut b = original.clone();
            let da = arm.corrupt_encoded(generation, &mut a);
            let db = arm.corrupt_encoded(generation, &mut b);
            assert_eq!(da, db, "generation {generation}");
            assert_eq!(a, b);
            if da.is_some() {
                damaged_any = true;
                assert_ne!(a, original);
            }
        }
        assert!(damaged_any, "no generation was ever corrupted");
    }

    #[test]
    fn restore_corruption_is_one_shot() {
        let plan = FaultPlan::seeded(4).kill_rate(1.0);
        let arm = (0..256)
            .filter_map(|s| plan.arm(s))
            .find(|a| a.corrupt_restore.load(Ordering::SeqCst))
            .expect("some serial draws restore corruption at kill-rate 1");
        assert!(arm.take_restore_corruption());
        assert!(!arm.take_restore_corruption());
    }

    #[test]
    fn wake_delay_budget_is_bounded() {
        let plan = FaultPlan::seeded(5).kill_rate(1.0);
        let arm = plan.arm(0).expect("kill-rate 1 arms serial 0");
        for _ in 0..100 {
            arm.delay_wake();
        }
        assert_eq!(arm.wake_delays.load(Ordering::Relaxed), 0);
    }
}
