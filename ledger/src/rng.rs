//! The ledger's own random stream: splitmix64.
//!
//! The harness owns its randomness so that the traffic a seed produces does
//! not move when the workspace's `rand` stand-in does (the generators it
//! calls take plain `u64` seeds, which this stream supplies).

/// A splitmix64 stream (Steele, Lea & Flood, "Fast splittable pseudorandom
/// number generators").
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (the modulo bias is below 2^-50 for the small
    /// ranges the workloads draw from).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.next_u64() % span,
            None => self.next_u64(),
        }
    }

    /// An independent stream for one named part of a workload, so adding a
    /// draw to one part never shifts the draws of another.
    pub fn fork(&self, salt: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_reference_stream() {
        // First outputs of splitmix64 seeded with 1234567 (the vector in
        // Vigna's reference implementation's test suite).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let root = SplitMix64::new(7);
        let (mut x, mut y) = (root.fork(1), root.fork(2));
        assert_ne!(x.next_u64(), y.next_u64());
        let mut again = root.fork(1);
        let mut first = root.fork(1);
        assert_eq!(again.next_u64(), first.next_u64());
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut rng = SplitMix64::new(99);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = rng.range(3, 6);
            assert!((3..=6).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.range(5, 5), 5);
        let _ = rng.range(0, u64::MAX);
    }
}
