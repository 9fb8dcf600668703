//! Statistics helpers: time-weighted averages, duration accumulators
//! and histograms.
//!
//! The measurement facilities in `cedar-trace` (the `statfx` concurrency
//! monitor and the `Q` utilization facility) are built on these primitives.

use std::fmt;

use crate::time::{Cycles, SimTime};

/// Accumulates the time integral of a piecewise-constant signal, e.g. the
/// number of busy processors over time — exactly what the paper's `statfx`
/// monitor reports as *average concurrency*.
///
/// # Example
///
/// ```
/// use cedar_sim::{Cycles, stats::TimeWeighted};
///
/// let mut tw = TimeWeighted::new(Cycles::ZERO, 0.0);
/// tw.update(Cycles(10), 4.0); // signal was 0.0 during [0, 10)
/// tw.update(Cycles(30), 0.0); // signal was 4.0 during [10, 30)
/// assert!((tw.average(Cycles(30)) - (4.0 * 20.0 / 30.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Starts integrating from `start` with initial signal `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: value,
            integral: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update (time runs forward).
    pub fn update(&mut self, now: SimTime, value: f64) {
        assert!(
            now >= self.last_time,
            "time went backwards: {} < {}",
            now,
            self.last_time
        );
        self.integral += self.last_value * (now - self.last_time).0 as f64;
        self.last_time = now;
        self.last_value = value;
    }

    /// Current signal value.
    pub fn value(&self) -> f64 {
        self.last_value
    }

    /// Time average of the signal over `[start, end)`, assuming
    /// construction at `start` and the signal holding its last value up to
    /// `end`. Returns 0.0 for an empty interval.
    pub fn average(&self, end: SimTime) -> f64 {
        let total = end.0 as f64;
        if total == 0.0 {
            return 0.0;
        }
        let tail = self.last_value * end.saturating_sub(self.last_time).0 as f64;
        (self.integral + tail) / total
    }
}

/// Accumulates durations into named buckets; the backbone of every
/// time-breakdown table in the reproduction.
#[derive(Debug, Clone)]
pub struct DurationAccum {
    total: Cycles,
    samples: u64,
    max: Cycles,
}

impl DurationAccum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        DurationAccum {
            total: Cycles::ZERO,
            samples: 0,
            max: Cycles::ZERO,
        }
    }

    /// Adds one observed duration.
    pub fn add(&mut self, d: Cycles) {
        self.total += d;
        self.samples += 1;
        if d > self.max {
            self.max = d;
        }
    }

    /// Reconstitutes an accumulator from its observable parts — the
    /// inverse of reading `total`/`samples`/`max`, used by the run cache
    /// to round-trip accounting tables exactly.
    pub fn from_parts(total: Cycles, samples: u64, max: Cycles) -> Self {
        DurationAccum {
            total,
            samples,
            max,
        }
    }

    /// Sum of all observed durations.
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Number of observations.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Largest single observation.
    pub fn max(&self) -> Cycles {
        self.max
    }

    /// Mean duration, or zero if nothing was observed.
    pub fn mean(&self) -> Cycles {
        if self.samples == 0 {
            Cycles::ZERO
        } else {
            self.total / self.samples
        }
    }
}

impl Default for DurationAccum {
    fn default() -> Self {
        DurationAccum::new()
    }
}

impl fmt::Display for DurationAccum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total={} n={} mean={} max={}",
            self.total,
            self.samples,
            self.mean(),
            self.max
        )
    }
}

/// A fixed-bucket latency histogram (power-of-two bucket edges).
///
/// Used by the network model to report packet-latency distributions in the
/// hot-spot ablation experiments.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: u64,
}

impl LatencyHistogram {
    /// Creates a histogram with `n` power-of-two buckets:
    /// `[0,1), [1,2), [2,4), [4,8), ...`.
    pub fn new(n: usize) -> Self {
        LatencyHistogram {
            buckets: vec![0; n],
            overflow: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Cycles) {
        let idx = if latency.0 == 0 {
            0
        } else {
            (64 - latency.0.leading_zeros()) as usize
        };
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Reconstitutes a histogram from its bucket counts — the inverse
    /// of reading [`bucket`](Self::bucket)/[`overflow`](Self::overflow),
    /// used by the run cache to round-trip distributions exactly.
    pub fn from_parts(buckets: Vec<u64>, overflow: u64) -> Self {
        LatencyHistogram { buckets, overflow }
    }

    /// Number of buckets (the `n` the histogram was created with).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Observations exceeding the largest bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Smallest upper bound `b` such that at least `q` (0..=1) of the
    /// observations fall below `b`. Returns `None` when empty.
    pub fn quantile_bound(&self, q: f64) -> Option<Cycles> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(Cycles(if i == 0 { 1 } else { 1 << i }));
            }
        }
        Some(Cycles::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_average_of_step_signal() {
        let mut tw = TimeWeighted::new(Cycles::ZERO, 1.0);
        tw.update(Cycles(50), 3.0);
        // [0,50): 1.0; [50,100): 3.0 -> average 2.0
        assert!((tw.average(Cycles(100)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_tracks_current_value() {
        let mut tw = TimeWeighted::new(Cycles::ZERO, 0.0);
        tw.update(Cycles(5), 7.5);
        assert_eq!(tw.value(), 7.5);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_backwards_time() {
        let mut tw = TimeWeighted::new(Cycles(10), 0.0);
        tw.update(Cycles(5), 1.0);
    }

    #[test]
    fn duration_accum_mean_and_max() {
        let mut a = DurationAccum::new();
        a.add(Cycles(10));
        a.add(Cycles(30));
        assert_eq!(a.total(), Cycles(40));
        assert_eq!(a.mean(), Cycles(20));
        assert_eq!(a.max(), Cycles(30));
        assert_eq!(a.samples(), 2);
    }

    #[test]
    fn duration_accum_empty_mean_is_zero() {
        assert_eq!(DurationAccum::new().mean(), Cycles::ZERO);
    }

    #[test]
    fn histogram_buckets_power_of_two() {
        let mut h = LatencyHistogram::new(8);
        h.record(Cycles(0)); // bucket 0
        h.record(Cycles(1)); // bucket 1
        h.record(Cycles(2)); // bucket 2
        h.record(Cycles(3)); // bucket 2
        h.record(Cycles(4)); // bucket 3
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_overflow() {
        let mut h = LatencyHistogram::new(3);
        h.record(Cycles(1000));
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_quantile_bound() {
        let mut h = LatencyHistogram::new(10);
        for _ in 0..90 {
            h.record(Cycles(2));
        }
        for _ in 0..10 {
            h.record(Cycles(100));
        }
        assert_eq!(h.quantile_bound(0.5), Some(Cycles(4)));
        assert!(h.quantile_bound(0.99).unwrap() >= Cycles(64));
        assert_eq!(LatencyHistogram::new(4).quantile_bound(0.5), None);
    }
}
