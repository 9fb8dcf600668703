//! Background (multiprogrammed) load.
//!
//! The paper measures "a dedicated, single user setting with only the
//! target application and the OS executing on the system" (§3) — but
//! Xylem *is* a multitasking OS (§2). This module models a competing job
//! that periodically steals whole-cluster quanta through the gang
//! scheduler, so the reproduction can also answer the question the paper
//! leaves open: what do these overheads look like when the machine is
//! shared?

use cedar_sim::{Cycles, SimTime, SplitMix64};

/// A competing job's demand on one cluster: one of two presets,
/// [`light`](Self::light) and [`heavy`](Self::heavy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundLoad {
    /// Mean interval between quanta stolen from each cluster.
    period: Cycles,
    /// Length of each stolen quantum.
    quantum: Cycles,
}

impl BackgroundLoad {
    /// A light competing job: ~10% of each cluster.
    pub fn light() -> Self {
        BackgroundLoad {
            period: Cycles(100_000),
            quantum: Cycles(10_000),
        }
    }

    /// A heavy competing job: ~50% of each cluster.
    pub fn heavy() -> Self {
        BackgroundLoad {
            period: Cycles(40_000),
            quantum: Cycles(20_000),
        }
    }

    /// Fraction of each cluster the competing job demands.
    pub fn demand(&self) -> f64 {
        self.quantum.0 as f64 / (self.period.0 + self.quantum.0) as f64
    }
}

/// Generates the stolen-quantum schedule for one cluster.
#[derive(Debug, Clone)]
pub struct BackgroundSchedule {
    load: BackgroundLoad,
    rng: SplitMix64,
}

impl BackgroundSchedule {
    /// Creates the schedule with a per-cluster seed.
    pub fn new(load: BackgroundLoad, seed: u64) -> Self {
        BackgroundSchedule {
            load,
            rng: SplitMix64::new(seed),
        }
    }

    /// Time of the next stolen quantum after `now`, and its length.
    /// Intervals jitter ±25% so clusters do not phase-lock.
    pub fn next_after(&mut self, now: SimTime) -> (SimTime, Cycles) {
        (self.rng.jittered(now, self.load.period), self.load.quantum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_fractions() {
        assert!((BackgroundLoad::light().demand() - 10_000.0 / 110_000.0).abs() < 1e-9);
        assert!((BackgroundLoad::heavy().demand() - 20_000.0 / 60_000.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_steals_one_quantum_per_occurrence() {
        let mut s = BackgroundSchedule::new(BackgroundLoad::light(), 1);
        let mut now = Cycles(0);
        for _ in 0..5 {
            let (next, q) = s.next_after(now);
            assert!(next > now);
            assert_eq!(q, Cycles(10_000));
            now = next;
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let mut a = BackgroundSchedule::new(BackgroundLoad::heavy(), 9);
        let mut b = BackgroundSchedule::new(BackgroundLoad::heavy(), 9);
        for _ in 0..10 {
            assert_eq!(a.next_after(Cycles(0)), b.next_after(Cycles(0)));
        }
    }
}
