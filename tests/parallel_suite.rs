//! The parallel suite runner must be a pure wall-clock optimization:
//! fanning the (application × configuration) grid across a worker pool
//! changes nothing about the measurements, for any worker count. Two
//! campaigns are compared by `cedar_check::same_campaign`, every run's
//! whole record but host time.

use cedar::apps::{perfect_suite, AppSpec};
use cedar::check::same_campaign;
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
    // The runs themselves too: same apps, same configuration order,
    // same records.
    let broken = same_campaign(&sequential, &parallel);
    assert!(broken.is_empty(), "{broken:#?}");
}

#[test]
fn worker_count_does_not_change_the_flo52_p8_measurements() {
    // FLO52 on the 8-processor Cedar under 1, 2 and 8 workers: the same
    // run, cycle totals and overhead breakdowns included.
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
    for (suite, workers) in runs[1..].iter().zip([2, 8]) {
        let broken = same_campaign(&runs[0], suite);
        assert!(broken.is_empty(), "{workers} workers: {broken:#?}");
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
    let broken = same_campaign(&seq, &par);
    assert!(broken.is_empty(), "{broken:#?}");
}
