//! The host probe: how slow this shared host's memory is right now.
//!
//! The machine the benchmark runs on is a few cores of a shared host, and
//! its memory system has phases lasting minutes: the latency of a load that
//! misses the core's own caches moves by ±20 % with what the neighbours do,
//! while arithmetic does not move at all.  The two admission-bound workloads
//! (`storm_warm`, `admit_cold`) follow that latency one for one — over
//! twenty runs of one seed each, the run's rate against the run's probe gave
//! a slope of −0.96 and −0.99 (r = −0.91, −0.97), and dividing it out took
//! the spread between identical runs from 11–16 % to 3–4 %.  The two
//! engine-bound workloads do not follow it (r = −0.29, −0.18: `pipe_hop`'s
//! 235 MB of rings live or die by last-level-cache *capacity*, `sp_tight` by
//! wake-ups), so they are reported as measured.
//!
//! The probe is this file's own code, not the program's, so a gain or a
//! regression of the program shows in full.

use std::hint::black_box;
use std::time::Instant;

use crate::rng::SplitMix64;

/// Slots of the chase table: 4 MB of `u32` — more than the core's own
/// caches hold, little enough to stay in the shared last-level cache, so
/// what is timed is mostly that cache's latency.
const SLOTS: usize = 1 << 20;

/// Dependent loads per probe (5–12 ms).
const STEPS: usize = 100_000;

/// Nanoseconds per load that count as slowdown 1: the middle of what this
/// host showed while the benchmark was written (deciles 75–122 ns).
pub const NOMINAL_NS: f64 = 100.0;

/// A pointer chase through one random cycle over the whole table, so every
/// load depends on the one before and prefetching cannot help.
pub struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut rng = SplitMix64::new(0x4057);
        for i in (1..SLOTS).rev() {
            next.swap(i, rng.range(0, i as u64 - 1) as usize);
        }
        HostProbe { next }
    }

    /// Nanoseconds per dependent load, now.  It is read between rounds, and
    /// a full-size round (0.2 s and more of work over tens of megabytes)
    /// displaces the table from the core's own caches, so the loads go to
    /// the shared cache whatever the program did; a `--smoke` round is too
    /// small for that and reads about half.  A table that does not depend
    /// on this (16 MB, each probe resuming where the last stopped) times
    /// main memory instead, and dividing it out of ten one-seed runs took
    /// the two workloads' spread only from 11 % to 9 % and from 9 % to 7 %.
    pub fn ns_per_load(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        started.elapsed().as_nanos() as f64 / STEPS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_over_every_slot() {
        let probe = HostProbe::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = probe.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, SLOTS);
        assert!(probe.ns_per_load() > 0.0);
    }
}
