//! The parallel suite runner must be a pure wall-clock optimization:
//! fanning the (application × configuration) grid across a worker pool
//! changes nothing about the measurements, for any worker count.

use cedar::apps::{perfect_suite, AppSpec};
use cedar::core::suite::SuiteResult;
use cedar::core::SimConfig;
use cedar::hw::Configuration;
use cedar::obs::RunOptions;
use cedar::report;

/// Campaign apps shrunk to a fixed factor so debug-build tests stay
/// fast. The factor must be identical everywhere the results are
/// compared (never profile-dependent).
fn grid_apps() -> Vec<AppSpec> {
    perfect_suite().into_iter().map(|a| a.shrunk(16)).collect()
}

/// Renders every paper artifact from a campaign — if two campaigns
/// produce the same bytes here, the measurement grids are identical in
/// every number any table or figure reports.
fn render_all(suite: &SuiteResult) -> String {
    format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}",
        report::tables::table1(suite),
        report::tables::table2(suite),
        report::tables::table3(suite),
        report::tables::table4(suite),
        report::figures::figure3(suite),
        report::figures::figures5to9(suite),
        report::csv::summary_csv(suite),
        report::csv::breakdown_csv(suite),
        report::csv::concurrency_csv(suite),
    )
}

#[test]
fn parallel_grid_is_byte_identical_to_sequential() {
    let apps = grid_apps();
    let configs = Configuration::ALL.map(SimConfig::cedar);
    let sequential = SuiteResult::run_sequential(&apps, &configs, &RunOptions::default())
        .expect("sequential campaign");
    let parallel = SuiteResult::run_parallel(&apps, &configs, &RunOptions::default())
        .expect("no experiment panics");
    assert_eq!(
        render_all(&sequential),
        render_all(&parallel),
        "parallel runner must not change any measurement"
    );
    // Structural identity too: same apps, same configuration order.
    assert_eq!(sequential.apps.len(), parallel.apps.len());
    for (s, p) in sequential.apps.iter().zip(&parallel.apps) {
        assert_eq!(s.app, p.app);
        let sc: Vec<_> = s.runs.iter().map(|r| r.configuration).collect();
        let pc: Vec<_> = p.runs.iter().map(|r| r.configuration).collect();
        assert_eq!(sc, pc);
    }
}

#[test]
fn worker_count_does_not_change_the_flo52_p8_measurements() {
    // The satellite check: FLO52 on the 8-processor Cedar under 1, 2 and
    // 8 workers — identical cycle totals and overhead breakdowns.
    let apps: Vec<AppSpec> = grid_apps()
        .into_iter()
        .filter(|a| a.name == "FLO52")
        .collect();
    assert_eq!(apps.len(), 1);
    let runs: Vec<SuiteResult> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let opts = RunOptions::default().with_workers(w);
            SuiteResult::run_parallel(&apps, &[SimConfig::cedar(Configuration::P8)], &opts)
                .expect("no experiment panics")
        })
        .collect();
    let reference = runs[0].app("FLO52").run(Configuration::P8);
    for suite in &runs[1..] {
        let r = suite.app("FLO52").run(Configuration::P8);
        assert_eq!(r.completion_time, reference.completion_time, "Cycles total");
        assert_eq!(r.events, reference.events);
        assert_eq!(r.bodies, reference.bodies);
        assert_eq!(r.faults, reference.faults);
        // Overhead breakdowns, bucket by bucket.
        assert_eq!(r.breakdowns.len(), reference.breakdowns.len());
        for (a, b) in r.breakdowns.iter().zip(&reference.breakdowns) {
            assert_eq!(a.total(), b.total(), "user-time breakdown totals");
        }
        assert_eq!(
            r.os_overhead_fraction(),
            reference.os_overhead_fraction(),
            "OS overhead fraction"
        );
        assert_eq!(
            r.main_parallelization_fraction(),
            reference.main_parallelization_fraction(),
            "parallelization overhead fraction"
        );
    }
}

#[test]
fn oversubscribed_pool_matches_too() {
    // More workers than jobs must degrade to one job per worker.
    let apps: Vec<AppSpec> = grid_apps().into_iter().take(2).collect();
    let configs = [Configuration::P1, Configuration::P4].map(SimConfig::cedar);
    let seq = SuiteResult::run_sequential(&apps, &configs, &RunOptions::default())
        .expect("sequential campaign");
    let par = SuiteResult::run_parallel(&apps, &configs, &RunOptions::default().with_workers(64))
        .expect("no panics");
    for (s, p) in seq.apps.iter().zip(&par.apps) {
        assert_eq!(s.app, p.app);
        for (sr, pr) in s.runs.iter().zip(&p.runs) {
            assert_eq!(sr.configuration, pr.configuration);
            assert_eq!(sr.completion_time, pr.completion_time);
            assert_eq!(sr.events, pr.events);
            assert_eq!(sr.bodies, pr.bodies);
        }
    }
}
