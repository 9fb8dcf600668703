//! OS overhead accounting — the data behind Figure 3 and Table 2.

use std::fmt;

use cedar_hw::ClusterId;
use cedar_sim::stats::DurationAccum;
use cedar_sim::Cycles;

/// The OS activities the paper's instrumentation distinguishes (Table 2),
/// plus the kernel-lock spin bucket reported in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsActivity {
    /// Servicing cross-processor interrupts.
    Cpi,
    /// Context switching between application and system tasks.
    Ctx,
    /// Handling concurrent page faults.
    PgFltConcurrent,
    /// Handling sequential page faults.
    PgFltSequential,
    /// Accessing cluster critical sections/resources.
    CrSectCluster,
    /// Accessing global critical sections/resources.
    CrSectGlobal,
    /// Servicing cluster system calls.
    SyscallCluster,
    /// Servicing global system calls.
    SyscallGlobal,
    /// Servicing asynchronous system traps.
    Ast,
    /// Spinning on kernel (cluster or global memory) locks.
    KernelSpin,
}

impl OsActivity {
    /// All activities in Table 2's row order (with `KernelSpin` appended).
    pub const ALL: [OsActivity; 10] = [
        OsActivity::Cpi,
        OsActivity::Ctx,
        OsActivity::PgFltConcurrent,
        OsActivity::PgFltSequential,
        OsActivity::CrSectCluster,
        OsActivity::CrSectGlobal,
        OsActivity::SyscallCluster,
        OsActivity::SyscallGlobal,
        OsActivity::Ast,
        OsActivity::KernelSpin,
    ];

    /// Row label used in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            OsActivity::Cpi => "cpi",
            OsActivity::Ctx => "ctx",
            OsActivity::PgFltConcurrent => "pg flt (c)",
            OsActivity::PgFltSequential => "pg flt (s)",
            OsActivity::CrSectCluster => "Cr Sect (clus)",
            OsActivity::CrSectGlobal => "Cr Sect (glbl)",
            OsActivity::SyscallCluster => "clus syscall",
            OsActivity::SyscallGlobal => "glbl syscall",
            OsActivity::Ast => "ast",
            OsActivity::KernelSpin => "kernel spin",
        }
    }

    /// Which Figure 3 top-level category this activity belongs to:
    /// `Cpi` is interrupt time, `KernelSpin` is spin time, everything
    /// else is system time.
    pub fn figure3_category(self) -> Category {
        match self {
            OsActivity::Cpi => Category::Interrupt,
            OsActivity::KernelSpin => Category::Spin,
            _ => Category::System,
        }
    }
}

impl fmt::Display for OsActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Figure 3's completion-time categories (user time comes from the
/// runtime-library side; the OS contributes the other three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Time in user code (busy, memory stalls, user-level spins).
    User,
    /// General system work.
    System,
    /// Interrupt servicing.
    Interrupt,
    /// Kernel lock spin.
    Spin,
}

impl Category {
    /// Label used in Figure 3's legend.
    pub fn label(self) -> &'static str {
        match self {
            Category::User => "user",
            Category::System => "system",
            Category::Interrupt => "interrupt",
            Category::Spin => "spin",
        }
    }
}

/// Per-cluster accumulation of OS activity durations.
///
/// Durations are *wall time*, one charge per activity per cluster: an
/// activity that stalls 8 CEs for 100 cycles accounts 100 cycles and one
/// sample (a cross-processor interrupt charges `CPI_COST_PER_CE` once,
/// however many CEs it interrupts), matching how the paper's per-cluster
/// `Q` facility attributes utilization.
#[derive(Debug, Clone)]
pub struct OsAccounting {
    clusters: Vec<ClusterAccounting>,
}

/// One cluster's OS activity accumulators.
#[derive(Debug, Clone)]
pub struct ClusterAccounting {
    buckets: Vec<DurationAccum>,
}

impl ClusterAccounting {
    fn new() -> Self {
        ClusterAccounting {
            buckets: vec![DurationAccum::new(); OsActivity::ALL.len()],
        }
    }

    /// Accumulated wall time for `activity`.
    pub fn get(&self, activity: OsActivity) -> &DurationAccum {
        &self.buckets[Self::index(activity)]
    }

    fn index(activity: OsActivity) -> usize {
        OsActivity::ALL
            .iter()
            .position(|a| *a == activity)
            .expect("activity present in ALL")
    }
}

impl OsAccounting {
    /// Creates accounting for `clusters` clusters.
    pub fn new(clusters: u8) -> Self {
        OsAccounting {
            clusters: (0..clusters).map(|_| ClusterAccounting::new()).collect(),
        }
    }

    /// Charges `duration` of wall time on `cluster` to `activity`.
    pub fn charge(&mut self, cluster: ClusterId, activity: OsActivity, duration: Cycles) {
        self.clusters[cluster.0 as usize].buckets[ClusterAccounting::index(activity)].add(duration);
    }

    /// Replaces one `(cluster, activity)` accumulator wholesale — the
    /// inverse of reading it via [`cluster`](Self::cluster)`().get()`,
    /// used by the run cache to round-trip Table 2 exactly (a rebuilt
    /// accumulator must carry the original sample count and maximum,
    /// which repeated [`charge`](Self::charge) calls cannot reproduce).
    pub fn restore(&mut self, cluster: ClusterId, activity: OsActivity, accum: DurationAccum) {
        self.clusters[cluster.0 as usize].buckets[ClusterAccounting::index(activity)] = accum;
    }

    /// One cluster's accounting.
    pub fn cluster(&self, cluster: ClusterId) -> &ClusterAccounting {
        &self.clusters[cluster.0 as usize]
    }

    /// Total wall time charged to `activity` across all clusters.
    pub fn total(&self, activity: OsActivity) -> Cycles {
        self.clusters.iter().map(|c| c.get(activity).total()).sum()
    }

    /// Total wall time charged to a Figure 3 category across all clusters.
    pub fn category_total(&self, category: Category) -> Cycles {
        OsActivity::ALL
            .iter()
            .filter(|a| a.figure3_category() == category)
            .map(|a| self.total(*a))
            .sum()
    }

    /// Grand total OS overhead (system + interrupt + spin).
    pub fn os_total(&self) -> Cycles {
        self.category_total(Category::System)
            + self.category_total(Category::Interrupt)
            + self.category_total(Category::Spin)
    }

    /// Number of clusters tracked.
    pub fn n_clusters(&self) -> u8 {
        self.clusters.len() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut acc = OsAccounting::new(2);
        acc.charge(ClusterId(0), OsActivity::Cpi, Cycles(100));
        acc.charge(ClusterId(1), OsActivity::Cpi, Cycles(50));
        acc.charge(ClusterId(0), OsActivity::Ctx, Cycles(30));
        assert_eq!(acc.total(OsActivity::Cpi), Cycles(150));
        assert_eq!(acc.total(OsActivity::Ctx), Cycles(30));
        assert_eq!(
            acc.cluster(ClusterId(0)).get(OsActivity::Cpi).total(),
            Cycles(100)
        );
        assert_eq!(acc.cluster(ClusterId(0)).get(OsActivity::Cpi).samples(), 1);
    }

    #[test]
    fn figure3_categorization() {
        assert_eq!(OsActivity::Cpi.figure3_category(), Category::Interrupt);
        assert_eq!(OsActivity::KernelSpin.figure3_category(), Category::Spin);
        assert_eq!(OsActivity::Ctx.figure3_category(), Category::System);
        assert_eq!(
            OsActivity::PgFltConcurrent.figure3_category(),
            Category::System
        );
    }

    #[test]
    fn category_totals_partition_os_total() {
        let mut acc = OsAccounting::new(1);
        for (i, a) in OsActivity::ALL.iter().enumerate() {
            acc.charge(ClusterId(0), *a, Cycles((i as u64 + 1) * 10));
        }
        let sum = acc.category_total(Category::System)
            + acc.category_total(Category::Interrupt)
            + acc.category_total(Category::Spin);
        assert_eq!(sum, acc.os_total());
        let manual: u64 = (1..=10).map(|i| i * 10).sum();
        assert_eq!(acc.os_total(), Cycles(manual));
    }

    #[test]
    fn labels_match_table2_rows() {
        assert_eq!(OsActivity::PgFltConcurrent.label(), "pg flt (c)");
        assert_eq!(OsActivity::CrSectCluster.label(), "Cr Sect (clus)");
        assert_eq!(OsActivity::SyscallGlobal.label(), "glbl syscall");
    }
}
