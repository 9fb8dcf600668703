//! Deterministic pseudo-random number generation.
//!
//! Workload models use small amounts of randomness (iteration-cost jitter,
//! access-pattern offsets). To keep runs reproducible the simulator uses a
//! fixed-seed SplitMix64 generator — fast, tiny state, well-distributed,
//! and trivially portable.

/// A SplitMix64 pseudo-random generator.
///
/// # Example
///
/// ```
/// use cedar_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded generation (Lemire); bias is negligible
        // for the workload-jitter use case.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range {lo}..={hi}");
        lo + self.next_below(hi - lo + 1)
    }

    /// Splits off an independent generator (for per-component streams).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn next_range_is_inclusive() {
        let mut r = SplitMix64::new(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.next_range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi, "range endpoints should both occur");
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = SplitMix64::new(123);
        let mut child = root.split();
        // The child stream should not equal the continuation of the root.
        let diverged = (0..10).any(|_| root.next_u64() != child.next_u64());
        assert!(diverged);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
