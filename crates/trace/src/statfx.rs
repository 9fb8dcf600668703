//! The `statfx` software concurrency monitor.
//!
//! "The average concurrency represents the average number of active
//! processors at any given time during the program execution. ... This
//! monitor measures the concurrency on each cluster; for the
//! multi-cluster Cedar configurations, the values provided in the table
//! are the sum of the concurrency values on the different clusters"
//! (§3.1).

use cedar_hw::{CeId, ClusterId};
use cedar_sim::stats::TimeWeighted;
use cedar_sim::SimTime;

/// Tracks the number of busy CEs per cluster as a time-weighted signal.
#[derive(Debug, Clone)]
pub struct Statfx {
    per_cluster: Vec<TimeWeighted>,
    busy_count: Vec<u16>,
    ce_busy: Vec<bool>,
}

impl Statfx {
    /// Creates a monitor for `clusters` clusters of up to
    /// `ces_per_cluster` CEs, all initially idle.
    pub fn new(clusters: u8, ces_per_cluster: u16) -> Self {
        Statfx {
            per_cluster: (0..clusters)
                .map(|_| TimeWeighted::new(SimTime::ZERO, 0.0))
                .collect(),
            busy_count: vec![0; clusters as usize],
            ce_busy: vec![false; clusters as usize * ces_per_cluster as usize],
        }
    }

    fn ce_index(&self, ce: CeId) -> usize {
        let per = self.ce_busy.len() / self.per_cluster.len();
        ce.cluster().0 as usize * per + ce.index_in_cluster() as usize
    }

    /// Marks `ce` busy at `now` (idempotent).
    pub fn mark_busy(&mut self, ce: CeId, now: SimTime) {
        let idx = self.ce_index(ce);
        if !self.ce_busy[idx] {
            self.ce_busy[idx] = true;
            let cl = ce.cluster().0 as usize;
            self.busy_count[cl] += 1;
            self.per_cluster[cl].update(now, self.busy_count[cl] as f64);
        }
    }

    /// Marks `ce` idle at `now` (idempotent).
    pub fn mark_idle(&mut self, ce: CeId, now: SimTime) {
        let idx = self.ce_index(ce);
        if self.ce_busy[idx] {
            self.ce_busy[idx] = false;
            let cl = ce.cluster().0 as usize;
            self.busy_count[cl] -= 1;
            self.per_cluster[cl].update(now, self.busy_count[cl] as f64);
        }
    }

    /// Average concurrency on one cluster over `[0, end)`.
    pub fn cluster_average(&self, cluster: ClusterId, end: SimTime) -> f64 {
        self.per_cluster[cluster.0 as usize].average(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_sim::Cycles;

    #[test]
    fn single_ce_half_busy_averages_half() {
        let mut s = Statfx::new(1, 8);
        s.mark_busy(CeId(0), Cycles(0));
        s.mark_idle(CeId(0), Cycles(50));
        assert!((s.cluster_average(ClusterId(0), Cycles(100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eight_ces_fully_busy_average_eight() {
        let mut s = Statfx::new(1, 8);
        for i in 0..8 {
            s.mark_busy(CeId(i), Cycles(0));
        }
        assert!((s.cluster_average(ClusterId(0), Cycles(100)) - 8.0).abs() < 1e-12);
        assert_eq!(s.busy_count[0], 8);
    }

    #[test]
    fn clusters_average_independently() {
        let mut s = Statfx::new(2, 8);
        s.mark_busy(CeId(0), Cycles(0)); // cluster 0
        s.mark_busy(CeId(8), Cycles(0)); // cluster 1
        s.mark_busy(CeId(9), Cycles(0)); // cluster 1
        assert!((s.cluster_average(ClusterId(0), Cycles(10)) - 1.0).abs() < 1e-12);
        assert!((s.cluster_average(ClusterId(1), Cycles(10)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn marking_is_idempotent() {
        let mut s = Statfx::new(1, 8);
        s.mark_busy(CeId(3), Cycles(0));
        s.mark_busy(CeId(3), Cycles(10));
        assert_eq!(s.busy_count[0], 1);
        s.mark_idle(CeId(3), Cycles(20));
        s.mark_idle(CeId(3), Cycles(30));
        assert_eq!(s.busy_count[0], 0);
    }

    #[test]
    fn staggered_busy_periods_integrate_correctly() {
        let mut s = Statfx::new(1, 8);
        // CE0 busy [0,100); CE1 busy [50,100): integral = 100 + 50 = 150.
        s.mark_busy(CeId(0), Cycles(0));
        s.mark_busy(CeId(1), Cycles(50));
        s.mark_idle(CeId(0), Cycles(100));
        s.mark_idle(CeId(1), Cycles(100));
        assert!((s.cluster_average(ClusterId(0), Cycles(100)) - 1.5).abs() < 1e-12);
    }
}
