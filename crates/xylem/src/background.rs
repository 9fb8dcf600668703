//! Background (multiprogrammed) load.
//!
//! The paper measures "a dedicated, single user setting with only the
//! target application and the OS executing on the system" (§3) — but
//! Xylem *is* a multitasking OS (§2). This module models a competing job
//! that periodically steals whole-cluster quanta through the gang
//! scheduler, so the reproduction can also answer the question the paper
//! leaves open: what do these overheads look like when the machine is
//! shared?

use cedar_sim::Cycles;

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

    /// Mean interval between quanta stolen from each cluster (±25%
    /// jitter).
    pub fn period(&self) -> Cycles {
        self.period
    }

    /// Length of each stolen quantum.
    pub fn quantum(&self) -> Cycles {
        self.quantum
    }

    /// Fraction of each cluster the competing job demands.
    pub fn demand(&self) -> f64 {
        self.quantum.0 as f64 / (self.period.0 + self.quantum.0) as f64
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
}
