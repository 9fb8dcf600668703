//! Fixed-capacity scratch counters for simulation hot loops.
//!
//! The event loop processes hundreds of millions of events per campaign;
//! routing each tally through a name-keyed [`Counters`] map (a B-tree
//! probe per event) would perturb exactly the thing the simulator is
//! trying to measure. A [`ScratchCounters`] block is the batching layer:
//! a flat `[u64; N]` the hot loop bumps by compile-time index, paired
//! with a static name table, flushed into the run's [`Counters`] rollup
//! once at a phase boundary (end of run) instead of per event.

use crate::counters::Counters;

/// A flat block of `N` counters addressed by index on the hot path and
/// by name only at flush time.
///
/// # Example
///
/// ```
/// use cedar_obs::{Counters, ScratchCounters};
///
/// let mut s = ScratchCounters::new(["events.total", "events.gmem"]);
/// s.bump(0);
/// s.bump(0);
/// s.bump(1);
/// let mut rollup = Counters::new();
/// s.flush_into(&mut rollup);
/// assert_eq!(rollup.get("events.total"), 2);
/// assert_eq!(rollup.get("events.gmem"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ScratchCounters<const N: usize> {
    slots: [u64; N],
    names: [&'static str; N],
}

impl<const N: usize> ScratchCounters<N> {
    /// Creates a zeroed block whose slot `i` flushes under `names[i]`.
    pub fn new(names: [&'static str; N]) -> Self {
        ScratchCounters {
            slots: [0; N],
            names,
        }
    }

    /// Increments slot `idx` by one.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N`.
    #[inline]
    pub fn bump(&mut self, idx: usize) {
        self.slots[idx] += 1;
    }

    /// Adds `n` to slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N`.
    #[inline]
    pub fn add(&mut self, idx: usize, n: u64) {
        self.slots[idx] += n;
    }

    /// Current value of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N`.
    pub fn get(&self, idx: usize) -> u64 {
        self.slots[idx]
    }

    /// Folds every slot into `counters` under its flush name. Zero slots
    /// are flushed too, so a counter's presence in the rollup does not
    /// depend on traffic.
    pub fn flush_into(&self, counters: &mut Counters) {
        for (name, &v) in self.names.iter().zip(&self.slots) {
            counters.add(name, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_add_get_roundtrip() {
        let mut s = ScratchCounters::new(["a", "b", "c"]);
        s.bump(0);
        s.add(1, 41);
        s.bump(1);
        assert_eq!((s.get(0), s.get(1), s.get(2)), (1, 42, 0));
    }

    #[test]
    fn flush_reports_zero_slots_too() {
        let mut s = ScratchCounters::new(["hot", "cold"]);
        s.add(0, 7);
        let mut c = Counters::new();
        s.flush_into(&mut c);
        assert_eq!(c.get("hot"), 7);
        assert_eq!(c.get("cold"), 0);
        assert_eq!(c.len(), 2, "cold counter still present in the rollup");
    }

    #[test]
    fn flush_accumulates_into_existing_counters() {
        let mut s = ScratchCounters::new(["x"]);
        s.add(0, 5);
        let mut c = Counters::new();
        c.add("x", 10);
        s.flush_into(&mut c);
        assert_eq!(c.get("x"), 15);
    }

    #[test]
    #[should_panic]
    fn out_of_range_bump_panics() {
        let mut s = ScratchCounters::new(["only"]);
        s.bump(1);
    }
}
