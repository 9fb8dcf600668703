//! The "Q" utilization facility.
//!
//! "To characterize the operating system overheads, the total completion
//! time is broken into its individual components — user/CPU, system,
//! interrupt, and spin times. This breakdown was obtained using a
//! software measurement facility Q which monitors the utilization of
//! each cluster" (§5). The simulator charges OS time once, per Table 2
//! activity, into [`OsAccounting`](cedar_xylem::OsAccounting); a
//! cluster's Figure 3 split is derived from that ledger
//! ([`ClusterUtilization::from_accounting`]), and user time is the
//! remainder of the completion time.

use cedar_sim::Cycles;
use cedar_xylem::accounting::{Category, ClusterAccounting};
use cedar_xylem::OsActivity;

/// Wall-time utilization of one cluster split into Figure 3's categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterUtilization {
    /// General system work (context switches, syscalls, critical
    /// sections, page faults, ASTs).
    pub system: Cycles,
    /// Interrupt servicing (software + cross-processor interrupts).
    pub interrupt: Cycles,
    /// Kernel lock spin.
    pub spin: Cycles,
}

impl ClusterUtilization {
    /// One cluster's Figure 3 categories: each is the sum of the
    /// cluster's Table 2 activities under
    /// [`OsActivity::figure3_category`].
    pub fn from_accounting(acct: &ClusterAccounting) -> Self {
        let mut u = ClusterUtilization::default();
        for a in OsActivity::ALL {
            let total = acct.get(a).total();
            match a.figure3_category() {
                Category::System => u.system += total,
                Category::Interrupt => u.interrupt += total,
                Category::Spin => u.spin += total,
                Category::User => unreachable!("no OS activity is user time"),
            }
        }
        u
    }

    /// Total OS wall time on this cluster.
    pub fn os_total(&self) -> Cycles {
        self.system + self.interrupt + self.spin
    }

    /// User time, given the run's completion time.
    ///
    /// Saturates at zero: overlapping OS service on different CEs of a
    /// cluster is charged additively (the paper's per-activity times are
    /// additive too), which on degenerate micro-runs can exceed the wall
    /// clock.
    pub fn user(&self, completion_time: Cycles) -> Cycles {
        completion_time.saturating_sub(self.os_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_hw::ClusterId;
    use cedar_xylem::OsAccounting;

    #[test]
    fn categories_sum_the_cluster_activities() {
        let mut acct = OsAccounting::new(2);
        acct.charge(ClusterId(0), OsActivity::Ctx, Cycles(100));
        acct.charge(ClusterId(0), OsActivity::PgFltSequential, Cycles(50));
        acct.charge(ClusterId(0), OsActivity::Cpi, Cycles(30));
        acct.charge(ClusterId(1), OsActivity::KernelSpin, Cycles(5));
        let c0 = ClusterUtilization::from_accounting(acct.cluster(ClusterId(0)));
        assert_eq!(c0.system, Cycles(150));
        assert_eq!(c0.interrupt, Cycles(30));
        assert_eq!(c0.spin, Cycles::ZERO);
        let c1 = ClusterUtilization::from_accounting(acct.cluster(ClusterId(1)));
        assert_eq!(c1.spin, Cycles(5));
        assert_eq!(c1.os_total(), Cycles(5));
    }

    #[test]
    fn user_is_remainder_of_completion_time() {
        let c = ClusterUtilization {
            system: Cycles(100),
            interrupt: Cycles(40),
            spin: Cycles(10),
        };
        assert_eq!(c.os_total(), Cycles(150));
        assert_eq!(c.user(Cycles(1000)), Cycles(850));
    }

    #[test]
    fn overcharging_saturates() {
        let c = ClusterUtilization {
            system: Cycles(2000),
            ..ClusterUtilization::default()
        };
        assert_eq!(c.user(Cycles(1000)), Cycles::ZERO);
        assert_eq!(c.user(Cycles(3000)), Cycles(1000));
    }
}
