//! Average parallel-loop concurrency (§7, Table 3).
//!
//! "The concurrency during non-parallel work such as serial code
//! execution, picking up iterations for the sdoall loops, spin-waiting at
//! the barrier, and busy-waiting for work, is 1 on each cluster.
//! Therefore, the average parallel loop concurrency, par_concurr, on each
//! cluster can be determined from the following equation:
//! `(1 − pf) + (pf · par_concurr) = avg_concurr`."
//!
//! `pf` is the fraction of the completion time spent on parallel-loop
//! execution on that cluster; per footnote 4, xdoall iteration pick-up is
//! a parallel activity and is included in `pf`.

use crate::result::RunResult;

/// One cluster's parallel-loop concurrency figures (a Table 3 cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConcurrency {
    /// Fraction of completion time in parallel-loop execution (`pf`).
    pub pf: f64,
    /// statfx average concurrency on the cluster (`avg_concurr`).
    pub avg_concurr: f64,
    /// Derived average parallel-loop concurrency (`par_concurr`).
    pub par_concurr: f64,
}

/// Solves the §7 equation for every cluster of a run. Index 0 is the
/// main task's cluster.
pub fn parallel_loop_concurrency(run: &RunResult) -> Vec<ClusterConcurrency> {
    run.breakdowns
        .iter()
        .zip(run.concurrency.iter())
        .map(|(breakdown, &avg_concurr)| {
            let pf = breakdown
                .parallel_execution()
                .fraction_of(run.completion_time);
            let par_concurr = if pf <= f64::EPSILON {
                1.0
            } else {
                // (1 - pf) + pf * par = avg  =>  par = (avg - 1 + pf) / pf
                ((avg_concurr - 1.0 + pf) / pf).max(0.0)
            };
            ClusterConcurrency {
                pf,
                avg_concurr,
                par_concurr,
            }
        })
        .collect()
}

/// Sum of per-cluster parallel-loop concurrencies (`par_concurr_total`
/// in the §7 multicluster formula).
pub(crate) fn total_parallel_concurrency(per_cluster: &[ClusterConcurrency]) -> f64 {
    per_cluster.iter().map(|c| c.par_concurr).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_hw::gmem::GmemStats;
    use cedar_hw::Configuration;
    use cedar_sim::stats::LatencyHistogram;
    use cedar_sim::Cycles;
    use cedar_trace::qmon::ClusterUtilization;
    use cedar_trace::{TaskBreakdown, UserBucket};
    use cedar_xylem::OsAccounting;

    fn fake_run(pf_time: u64, ct: u64, avg: f64) -> RunResult {
        let mut b = TaskBreakdown::new();
        b.charge(UserBucket::IterExec, Cycles(pf_time));
        b.charge(UserBucket::Serial, Cycles(ct - pf_time));
        RunResult {
            app: "FAKE",
            configuration: Configuration::P8,
            completion_time: Cycles(ct),
            breakdowns: vec![b],
            utilization: vec![ClusterUtilization::default()],
            os: OsAccounting::new(1),
            concurrency: vec![avg],
            gmem: GmemStats {
                packets: 0,
                cluster_path_queued: Cycles::ZERO,
                fwd_queued: Cycles::ZERO,
                rev_queued: Cycles::ZERO,
                module_queued: Cycles::ZERO,
                module_requests: vec![],
                module_sync_requests: vec![],
                latency: LatencyHistogram::new(4),
                min_round_trip: Cycles(36),
            },
            background_stolen: Cycles::ZERO,
            bodies: 0,
            faults: (0, 0),
            events: 0,
            trace: None,
            stats: cedar_obs::RunStats::default(),
        }
    }

    #[test]
    fn solves_the_paper_equation() {
        // pf = 0.5, avg = 4.0  =>  par = (4 - 1 + 0.5)/0.5 = 7.0
        let run = fake_run(500, 1000, 4.0);
        let c = parallel_loop_concurrency(&run);
        assert!((c[0].pf - 0.5).abs() < 1e-12);
        assert!((c[0].par_concurr - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fully_parallel_cluster_recovers_avg() {
        // pf = 1.0: par_concurr equals avg_concurr.
        let run = fake_run(1000, 1000, 7.5);
        let c = parallel_loop_concurrency(&run);
        assert!((c[0].par_concurr - 7.5).abs() < 1e-9);
    }

    #[test]
    fn zero_parallel_fraction_defaults_to_one() {
        let run = fake_run(0, 1000, 1.0);
        let c = parallel_loop_concurrency(&run);
        assert_eq!(c[0].par_concurr, 1.0);
    }

    #[test]
    fn total_sums_clusters() {
        let cc = vec![
            ClusterConcurrency {
                pf: 0.5,
                avg_concurr: 4.0,
                par_concurr: 7.0,
            },
            ClusterConcurrency {
                pf: 0.5,
                avg_concurr: 3.5,
                par_concurr: 6.0,
            },
        ];
        assert!((total_parallel_concurrency(&cc) - 13.0).abs() < 1e-12);
    }
}
