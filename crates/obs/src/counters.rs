//! Counters and per-run rollups.
//!
//! The conventions are deliberately simple so every layer of the
//! workspace can feed the same rollup:
//!
//! * counter names are dotted paths (`"queue.scheduled"`,
//!   `"events.gmem"`), and
//! * names ending in `.peak` are high-water marks — merging two rollups
//!   takes their maximum instead of their sum.

use std::collections::BTreeMap;

/// Named monotonic counters with deterministic (sorted) iteration order.
///
/// # Example
///
/// ```
/// use cedar_obs::Counters;
///
/// let mut c = Counters::new();
/// c.add("queue.scheduled", 10);
/// c.add("queue.scheduled", 5);
/// c.record_max("queue.pending.peak", 7);
/// c.record_max("queue.pending.peak", 3);
/// assert_eq!(c.get("queue.scheduled"), 15);
/// assert_eq!(c.get("queue.pending.peak"), 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.map.entry(name).or_insert(0) += n;
    }

    /// Raises the high-water mark `name` to at least `v`. By convention
    /// such names end in `.peak` so [`merge`](Self::merge) combines them
    /// with `max` rather than `+`.
    pub fn record_max(&mut self, name: &'static str, v: u64) {
        let slot = self.map.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// The current value of `name` (zero when never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`: sums ordinary counters, maxes the
    /// `.peak` high-water marks.
    pub fn merge(&mut self, other: &Counters) {
        for (&name, &v) in &other.map {
            if name.ends_with(".peak") {
                self.record_max(name, v);
            } else {
                self.add(name, v);
            }
        }
    }

    /// Iterates `(name, value)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Per-run self-telemetry: where one experiment's wall-clock went, plus
/// the run's counter rollup (event classes, queue statistics, outbox
/// reuse). Attached to every `RunResult`; collection is cheap enough to
/// be always-on — the counters are plain integer fields in the hot
/// structures, snapshotted once at end of run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Wall-clock nanoseconds building the machine (`Machine::new`).
    pub setup_ns: u64,
    /// Wall-clock nanoseconds in the event loop.
    pub run_ns: u64,
    /// Wall-clock nanoseconds assembling breakdowns and results.
    pub breakdown_ns: u64,
    /// The run's counter rollup. Deterministic for a fixed configuration
    /// — no wall-clock quantities live here.
    pub counters: Counters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_peak() {
        let mut a = Counters::new();
        a.add("x", 2);
        a.record_max("p.peak", 10);
        let mut b = Counters::new();
        b.add("x", 3);
        b.record_max("p.peak", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("p.peak"), 10, "peaks merge by max, not sum");
    }

    #[test]
    fn iteration_is_sorted() {
        let mut c = Counters::new();
        c.add("zz", 1);
        c.add("aa", 1);
        c.add("mm", 1);
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }
}
