//! The Figure 4 user-time taxonomy and per-task breakdowns.
//!
//! "The quantities below the horizontal line on each bar represent the
//! percentage of total execution time spent executing s(x)doall loop
//! iterations for both the main and the helper tasks, and the time spent
//! executing serial code and main cluster-only loops for the main task.
//! The quantities above the horizontal line characterize the
//! parallelization overheads" (§6). The breakdown is measured on each
//! task's lead CE, whose timeline partitions cleanly into these modes.

use std::fmt;

use cedar_sim::Cycles;

/// One bucket of a task's user time (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UserBucket {
    /// Executing `s(x)doall` loop iterations ("useful" work; below the
    /// line).
    IterExec,
    /// Executing serial code (main task only; below the line).
    Serial,
    /// Executing main-cluster-only loops (main task only; below the
    /// line).
    ClusterLoop,
    /// Setting up parallel-loop parameters (overhead).
    LoopSetup,
    /// Picking up iterations of hierarchical (sdoall/cdoall) loops and
    /// determining no more are left (overhead; stays ≲1%, §6).
    PickupSdoall,
    /// Picking up iterations of flat xdoall loops (overhead; the "xdoall
    /// loop distribution overhead" that reaches >10% at 32 processors).
    PickupXdoall,
    /// Main task spin-waiting at the `s(x)doall` finish barrier
    /// (overhead; main task only).
    BarrierWait,
    /// Helper task busy-waiting for parallel-loop work (overhead; helper
    /// tasks only).
    HelperWait,
    /// Intra-cluster (concurrency-bus) synchronization. The paper
    /// excludes cluster-level `cdoall` sync from its characterization
    /// (§3.2); kept separate here so it never contaminates the
    /// parallelization-overhead numbers.
    ClusterSync,
}

impl UserBucket {
    /// All buckets in display order (below-the-line first).
    pub const ALL: [UserBucket; 9] = [
        UserBucket::IterExec,
        UserBucket::Serial,
        UserBucket::ClusterLoop,
        UserBucket::LoopSetup,
        UserBucket::PickupSdoall,
        UserBucket::PickupXdoall,
        UserBucket::BarrierWait,
        UserBucket::HelperWait,
        UserBucket::ClusterSync,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            UserBucket::IterExec => "s(x)doall iters",
            UserBucket::Serial => "serial code",
            UserBucket::ClusterLoop => "cluster-only loops",
            UserBucket::LoopSetup => "loop setup",
            UserBucket::PickupSdoall => "sdoall pickup",
            UserBucket::PickupXdoall => "xdoall pickup",
            UserBucket::BarrierWait => "barrier wait",
            UserBucket::HelperWait => "helper wait",
            UserBucket::ClusterSync => "cluster sync",
        }
    }

    /// `true` for the parallelization-overhead buckets (above the
    /// horizontal line in Figures 5–9).
    pub fn is_parallelization_overhead(self) -> bool {
        matches!(
            self,
            UserBucket::LoopSetup
                | UserBucket::PickupSdoall
                | UserBucket::PickupXdoall
                | UserBucket::BarrierWait
                | UserBucket::HelperWait
        )
    }

    /// `true` for buckets counted as *parallel loop execution* when
    /// computing the parallel fraction `pf` of §7. Footnote 4: "For the
    /// xdoall loops, the iteration pick up is a parallel activity, and
    /// hence is included in the parallel fraction."
    pub(crate) fn counts_as_parallel_execution(self) -> bool {
        matches!(
            self,
            UserBucket::IterExec
                | UserBucket::ClusterLoop
                | UserBucket::PickupXdoall
                | UserBucket::ClusterSync
        )
    }
}

impl fmt::Display for UserBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A task's user-time breakdown (one bar of Figures 5–9).
#[derive(Debug, Clone, Default)]
pub struct TaskBreakdown {
    buckets: [Cycles; UserBucket::ALL.len()],
}

impl TaskBreakdown {
    /// Creates a zeroed breakdown.
    pub fn new() -> Self {
        TaskBreakdown::default()
    }

    fn index(bucket: UserBucket) -> usize {
        UserBucket::ALL
            .iter()
            .position(|b| *b == bucket)
            .expect("bucket present in ALL")
    }

    /// Charges `duration` to `bucket`.
    pub fn charge(&mut self, bucket: UserBucket, duration: Cycles) {
        self.buckets[Self::index(bucket)] += duration;
    }

    /// Accumulated time in `bucket`.
    pub fn get(&self, bucket: UserBucket) -> Cycles {
        self.buckets[Self::index(bucket)]
    }

    /// Total user time across all buckets.
    pub fn total(&self) -> Cycles {
        self.buckets.iter().copied().sum()
    }

    /// Total parallelization overhead (above-the-line buckets).
    pub fn parallelization_overhead(&self) -> Cycles {
        UserBucket::ALL
            .iter()
            .filter(|b| b.is_parallelization_overhead())
            .map(|b| self.get(*b))
            .sum()
    }

    /// Time counted as parallel-loop execution (for the `pf` of §7).
    pub fn parallel_execution(&self) -> Cycles {
        UserBucket::ALL
            .iter()
            .filter(|b| b.counts_as_parallel_execution())
            .map(|b| self.get(*b))
            .sum()
    }

    /// Fraction of `completion_time` spent in `bucket`.
    pub fn fraction(&self, bucket: UserBucket, completion_time: Cycles) -> f64 {
        self.get(bucket).fraction_of(completion_time)
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &TaskBreakdown) {
        for (i, v) in other.buckets.iter().enumerate() {
            self.buckets[i] += *v;
        }
    }
}

/// Reconstructs a task's user-time breakdown from its lead CE's trace —
/// the paper's own trace-driven analysis path (§4: the event traces are
/// off-loaded and analysed off-line).
///
/// The lead CE's timeline partitions into modes delimited by the
/// instrumentation events; this walks the events in order and charges
/// each span to its Figure 4 bucket. OS time embedded in a span stays in
/// that span (the off-line analysis cannot see OS stalls either), so the
/// result can be slightly *larger* than the machine's directly-charged
/// breakdown, never smaller.
pub fn from_lead_trace(events: &[crate::event::TraceEvent], lead: cedar_hw::CeId) -> TaskBreakdown {
    use crate::event::TraceEventId as Id;
    let mut b = TaskBreakdown::new();
    let mut mode: Option<(UserBucket, u64)> = None; // (bucket, start ticks)
    let mut loop_kind: u32 = 0;
    for e in events.iter().filter(|e| e.ce == lead) {
        let t = e.at.0;
        let close = |b: &mut TaskBreakdown, mode: &mut Option<(UserBucket, u64)>, t: u64| {
            if let Some((bucket, start)) = mode.take() {
                b.charge(bucket, Cycles((t - start) / cedar_sim::HPM_TICKS_PER_CYCLE));
            }
        };
        let open = |mode: &mut Option<(UserBucket, u64)>, bucket: UserBucket, t: u64| {
            *mode = Some((bucket, t));
        };
        match e.id {
            Id::SerialStart => {
                close(&mut b, &mut mode, t);
                open(&mut mode, UserBucket::Serial, t);
            }
            Id::SerialEnd => close(&mut b, &mut mode, t),
            Id::LoopSetupEnter => {
                close(&mut b, &mut mode, t);
                open(&mut mode, UserBucket::LoopSetup, t);
            }
            Id::LoopSetupExit => close(&mut b, &mut mode, t),
            Id::ClusterLoopStart => {
                close(&mut b, &mut mode, t);
                open(&mut mode, UserBucket::ClusterLoop, t);
            }
            Id::ClusterLoopEnd => close(&mut b, &mut mode, t),
            Id::PickIterEnter => {
                close(&mut b, &mut mode, t);
                loop_kind = e.arg;
                let bucket = if e.arg == crate::event::loop_kind_code::XDOALL {
                    UserBucket::PickupXdoall
                } else {
                    UserBucket::PickupSdoall
                };
                open(&mut mode, bucket, t);
            }
            Id::PickIterExit => close(&mut b, &mut mode, t),
            Id::IterStart => {
                close(&mut b, &mut mode, t);
                let bucket = if e.arg == crate::event::loop_kind_code::CLUSTER
                    || e.arg == crate::event::loop_kind_code::DOACROSS
                {
                    UserBucket::ClusterLoop
                } else {
                    UserBucket::IterExec
                };
                open(&mut mode, bucket, t);
            }
            Id::IterEnd => {
                close(&mut b, &mut mode, t);
                // Between a body and the next pick/barrier the lead is in
                // intra-cluster territory; attribute to ClusterSync until
                // the next explicit event.
                let _ = loop_kind;
                open(&mut mode, UserBucket::ClusterSync, t);
            }
            Id::FinishBarrierEnter => {
                close(&mut b, &mut mode, t);
                open(&mut mode, UserBucket::BarrierWait, t);
            }
            Id::FinishBarrierExit => close(&mut b, &mut mode, t),
            Id::WaitForWorkEnter => {
                close(&mut b, &mut mode, t);
                open(&mut mode, UserBucket::HelperWait, t);
            }
            Id::WaitForWorkExit => close(&mut b, &mut mode, t),
            Id::HelperJoinLoop | Id::TaskDetach => {
                close(&mut b, &mut mode, t);
                open(&mut mode, UserBucket::HelperWait, t);
            }
            Id::ProgramEnd => close(&mut b, &mut mode, t),
            _ => {}
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut b = TaskBreakdown::new();
        b.charge(UserBucket::IterExec, Cycles(700));
        b.charge(UserBucket::BarrierWait, Cycles(200));
        b.charge(UserBucket::LoopSetup, Cycles(100));
        assert_eq!(b.total(), Cycles(1000));
        assert_eq!(b.get(UserBucket::IterExec), Cycles(700));
        assert_eq!(b.parallelization_overhead(), Cycles(300));
    }

    #[test]
    fn overhead_classification_matches_figure4() {
        assert!(!UserBucket::IterExec.is_parallelization_overhead());
        assert!(!UserBucket::Serial.is_parallelization_overhead());
        assert!(!UserBucket::ClusterLoop.is_parallelization_overhead());
        assert!(UserBucket::LoopSetup.is_parallelization_overhead());
        assert!(UserBucket::PickupXdoall.is_parallelization_overhead());
        assert!(UserBucket::BarrierWait.is_parallelization_overhead());
        assert!(UserBucket::HelperWait.is_parallelization_overhead());
        assert!(!UserBucket::ClusterSync.is_parallelization_overhead());
    }

    #[test]
    fn parallel_fraction_includes_xdoall_pickup_per_footnote4() {
        assert!(UserBucket::PickupXdoall.counts_as_parallel_execution());
        assert!(!UserBucket::PickupSdoall.counts_as_parallel_execution());
        assert!(!UserBucket::BarrierWait.counts_as_parallel_execution());
        assert!(UserBucket::ClusterLoop.counts_as_parallel_execution());
    }

    #[test]
    fn fractions() {
        let mut b = TaskBreakdown::new();
        b.charge(UserBucket::Serial, Cycles(250));
        assert!((b.fraction(UserBucket::Serial, Cycles(1000)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = TaskBreakdown::new();
        a.charge(UserBucket::IterExec, Cycles(10));
        let mut b = TaskBreakdown::new();
        b.charge(UserBucket::IterExec, Cycles(5));
        b.charge(UserBucket::HelperWait, Cycles(7));
        a.merge(&b);
        assert_eq!(a.get(UserBucket::IterExec), Cycles(15));
        assert_eq!(a.get(UserBucket::HelperWait), Cycles(7));
    }
}
