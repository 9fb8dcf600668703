//! Periodic OS activity: bookkeeping context switches and asynchronous
//! system traps.
//!
//! "Context switching takes place in a dedicated system, when the
//! application task blocks for I/O or when the OS server must perform
//! some bookkeeping" (§5.1). Each occurrence gang-preempts the
//! application's cluster task: every active CE pays the context-switch
//! save/restore cost, the system task runs for the daemon duration
//! (split between critical-section and syscall work), and a CPI is
//! raised to gather the single-CE execution thread.

use cedar_sim::{Cycles, SimTime, SplitMix64};

use crate::config::{
    AST_COST, AST_INTERVAL, CTX_COST_PER_CE, CTX_INTERVAL, DAEMON_CR_SECT_FRACTION,
    DAEMON_DURATION, DAEMON_SYSCALL_FRACTION,
};

/// One occurrence of daemon work on a cluster, broken down the way the
/// accounting charges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonWork {
    /// Per-CE save/restore, charged to `ctx`.
    pub ctx_per_ce: Cycles,
    /// System-task time inside cluster critical sections.
    pub cr_sect: Cycles,
    /// System-task time in cluster system calls.
    pub syscall: Cycles,
    /// Remaining system-task bookkeeping time (charged to `ctx`).
    pub other: Cycles,
}

impl DaemonWork {
    /// Total wall-clock duration the system task holds the cluster.
    pub fn duration(&self) -> Cycles {
        self.cr_sect + self.syscall + self.other
    }

    /// The work of one occurrence: the daemon duration split by the
    /// calibrated critical-section and syscall fractions.
    fn cedar() -> Self {
        let cr_sect = DAEMON_DURATION.scale(DAEMON_CR_SECT_FRACTION);
        let syscall = DAEMON_DURATION.scale(DAEMON_SYSCALL_FRACTION);
        DaemonWork {
            ctx_per_ce: CTX_COST_PER_CE,
            cr_sect,
            syscall,
            other: DAEMON_DURATION.saturating_sub(cr_sect + syscall),
        }
    }
}

/// `now` plus an interval jittered ±25% around `mean`.
fn jittered(rng: &mut SplitMix64, now: SimTime, mean: Cycles) -> SimTime {
    let base = mean.0;
    let jitter_span = base / 2; // +/- 25%
    let jitter = rng.next_below(jitter_span.max(1));
    let interval = base - jitter_span / 2 + jitter;
    now + Cycles(interval.max(1))
}

/// Generates the bookkeeping context-switch schedule for one cluster.
///
/// Intervals are jittered ±25% around `CTX_INTERVAL` so that clusters
/// do not phase-lock, but the stream is fully deterministic for a given
/// seed.
#[derive(Debug, Clone)]
pub struct DaemonSchedule {
    rng: SplitMix64,
    occurrences: u64,
}

impl DaemonSchedule {
    /// Creates the schedule for one cluster.
    pub fn new(seed: u64) -> Self {
        DaemonSchedule {
            rng: SplitMix64::new(seed),
            occurrences: 0,
        }
    }

    /// Time of the next daemon occurrence after `now`, and its work.
    pub fn next_after(&mut self, now: SimTime) -> (SimTime, DaemonWork) {
        self.occurrences += 1;
        (
            jittered(&mut self.rng, now, CTX_INTERVAL),
            DaemonWork::cedar(),
        )
    }

    /// Occurrences generated so far.
    pub fn occurrences(&self) -> u64 {
        self.occurrences
    }
}

/// Generates the (rare) asynchronous-system-trap schedule for a cluster,
/// jittered ±25% around `AST_INTERVAL`.
#[derive(Debug, Clone)]
pub struct AstSchedule {
    rng: SplitMix64,
}

impl AstSchedule {
    /// Creates the AST schedule for one cluster.
    pub fn new(seed: u64) -> Self {
        AstSchedule {
            rng: SplitMix64::new(seed),
        }
    }

    /// Time of the next AST after `now` and its service cost.
    pub fn next_after(&mut self, now: SimTime) -> (SimTime, Cycles) {
        (jittered(&mut self.rng, now, AST_INTERVAL), AST_COST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_work_partitions_duration() {
        let mut d = DaemonSchedule::new(1);
        let (_, work) = d.next_after(Cycles(0));
        assert_eq!(work.duration(), DAEMON_DURATION);
        assert_eq!(work.cr_sect, DAEMON_DURATION.scale(0.35));
        assert_eq!(work.syscall, DAEMON_DURATION.scale(0.15));
    }

    #[test]
    fn intervals_jitter_around_mean() {
        let mut d = DaemonSchedule::new(42);
        let mut now = Cycles(0);
        let mut intervals = Vec::new();
        for _ in 0..200 {
            let (next, _) = d.next_after(now);
            intervals.push((next - now).0);
            now = next;
        }
        let mean: f64 = intervals.iter().map(|&i| i as f64).sum::<f64>() / 200.0;
        let target = CTX_INTERVAL.0 as f64;
        assert!(
            (mean - target).abs() / target < 0.10,
            "mean interval {mean} too far from {target}"
        );
        let min = *intervals.iter().min().unwrap();
        let max = *intervals.iter().max().unwrap();
        assert!(min as f64 >= target * 0.74);
        assert!((max as f64) <= target * 1.26);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let mut a = DaemonSchedule::new(7);
        let mut b = DaemonSchedule::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_after(Cycles(0)).0, b.next_after(Cycles(0)).0);
        }
    }

    #[test]
    fn different_seeds_desynchronize_clusters() {
        let mut a = DaemonSchedule::new(1);
        let mut b = DaemonSchedule::new(2);
        let same = (0..10)
            .filter(|_| a.next_after(Cycles(0)).0 == b.next_after(Cycles(0)).0)
            .count();
        assert!(same < 10, "seeds must desynchronize schedules");
    }

    #[test]
    fn ast_schedule_produces_fixed_cost() {
        let mut a = AstSchedule::new(3);
        let (t, cost) = a.next_after(Cycles(1000));
        assert!(t > Cycles(1000));
        assert_eq!(cost, AST_COST);
    }

    #[test]
    fn occurrences_counted() {
        let mut d = DaemonSchedule::new(5);
        for _ in 0..3 {
            d.next_after(Cycles(0));
        }
        assert_eq!(d.occurrences(), 3);
    }
}
