//! The cluster concurrency control bus.
//!
//! Each Cedar cluster has a dedicated bus enabling "fast cluster-level
//! parallel loop distribution, and fast synchronization of processors
//! within a cluster" (§2). The inner `cdoall` loop of the hierarchical
//! construct is distributed over this bus, and the CEs of a cluster
//! synchronize on it at the end of an `xdoall` before one of them
//! re-enters the runtime library (§2) — all without generating any
//! network traffic, which is precisely why the paper concludes
//! clustering helps (§6).
//!
//! Only the barrier needs state; the bus's dispatch cost is the fixed
//! [`ClusterConfig::cbus_dispatch`](crate::config::ClusterConfig::cbus_dispatch)
//! the machine adds when it fans a loop out.

use cedar_sim::{Cycles, SimTime};

/// An intra-cluster barrier tracked on the concurrency bus.
///
/// CEs call [`arrive`](CbusBarrier::arrive); the call that completes the
/// barrier returns the release time (last arrival + bus release cost),
/// at which every participating CE resumes.
///
/// # Example
///
/// ```
/// use cedar_hw::cbus::CbusBarrier;
/// use cedar_sim::Cycles;
///
/// let mut b = CbusBarrier::new(3, Cycles(8));
/// assert_eq!(b.arrive(Cycles(10)), None);
/// assert_eq!(b.arrive(Cycles(20)), None);
/// assert_eq!(b.arrive(Cycles(15)), Some(Cycles(28))); // 20 + 8
/// ```
#[derive(Debug, Clone)]
pub struct CbusBarrier {
    expected: u16,
    arrived: u16,
    latest: SimTime,
    release_cost: Cycles,
}

impl CbusBarrier {
    /// Creates a barrier expecting `expected` arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero.
    pub fn new(expected: u16, release_cost: Cycles) -> Self {
        assert!(expected > 0, "barrier must expect at least one arrival");
        CbusBarrier {
            expected,
            arrived: 0,
            latest: Cycles::ZERO,
            release_cost,
        }
    }

    /// Records an arrival at `now`. Returns `Some(release_time)` when this
    /// arrival completes the barrier; the barrier then resets for reuse.
    ///
    /// # Panics
    ///
    /// Panics if more CEs arrive than expected between releases.
    pub fn arrive(&mut self, now: SimTime) -> Option<SimTime> {
        assert!(self.arrived < self.expected, "barrier over-subscribed");
        self.arrived += 1;
        self.latest = self.latest.max(now);
        if self.arrived == self.expected {
            let release = self.latest + self.release_cost;
            self.arrived = 0;
            self.latest = Cycles::ZERO;
            Some(release)
        } else {
            None
        }
    }

    /// Expected arrival count.
    pub fn expected(&self) -> u16 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_releases_at_last_arrival_plus_cost() {
        let mut b = CbusBarrier::new(4, Cycles(8));
        assert_eq!(b.arrive(Cycles(5)), None);
        assert_eq!(b.arrive(Cycles(50)), None);
        assert_eq!(b.arrive(Cycles(10)), None);
        assert_eq!(b.arrived, 3);
        assert_eq!(b.arrive(Cycles(30)), Some(Cycles(58)));
    }

    #[test]
    fn barrier_resets_for_reuse() {
        let mut b = CbusBarrier::new(2, Cycles(1));
        assert_eq!(b.arrive(Cycles(0)), None);
        assert_eq!(b.arrive(Cycles(0)), Some(Cycles(1)));
        assert_eq!(b.arrive(Cycles(100)), None);
        assert_eq!(b.arrive(Cycles(200)), Some(Cycles(201)));
    }

    #[test]
    fn single_ce_barrier_is_immediate() {
        let mut b = CbusBarrier::new(1, Cycles(8));
        assert_eq!(b.arrive(Cycles(7)), Some(Cycles(15)));
    }

    #[test]
    #[should_panic(expected = "at least one arrival")]
    fn zero_expected_rejected() {
        CbusBarrier::new(0, Cycles(0));
    }

    #[test]
    fn release_time_ignores_arrival_order() {
        let mut early_last = CbusBarrier::new(2, Cycles(3));
        early_last.arrive(Cycles(90));
        let a = early_last.arrive(Cycles(10));
        let mut late_last = CbusBarrier::new(2, Cycles(3));
        late_last.arrive(Cycles(10));
        let b = late_last.arrive(Cycles(90));
        assert_eq!(a, b, "release depends on the max arrival time only");
    }
}
