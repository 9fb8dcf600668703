//! The laws every run obeys, each defined once.
//!
//! A law returns the clauses a run breaks, one readable line each, so
//! the oracle harness can wrap them in [`Violation`](crate::Violation)s
//! and a test can assert an empty list with its own replay line.

use cedar_core::RunResult;

/// Completion-time conservation on one run. The clauses:
///
/// - **coverage**: exactly `expected_bodies` loop bodies ran;
/// - **breakdown ≤ CT**: no task's user-time breakdown exceeds the
///   completion time;
/// - **Figure 3 partition**: on every cluster whose OS time does not
///   saturate the run, user plus OS time equals the completion time;
/// - **concurrency**: `0 < total_concurrency ≤ total_ces`.
///
/// Returns one line per broken clause; an empty list means the run
/// conserves.
pub fn conservation(run: &RunResult, expected_bodies: u64) -> Vec<String> {
    let ct = run.completion_time;
    let mut broken = Vec::new();
    if run.bodies != expected_bodies {
        broken.push(format!(
            "coverage broken: {} bodies ran, expected {expected_bodies}",
            run.bodies
        ));
    }
    for (i, b) in run.breakdowns.iter().enumerate() {
        if b.total() > ct {
            broken.push(format!(
                "task {i} breakdown {} exceeds completion time {ct}",
                b.total()
            ));
        }
    }
    for (k, u) in run.utilization.iter().enumerate() {
        if u.os_total() <= ct && u.user(ct) + u.os_total() != ct {
            broken.push(format!(
                "cluster {k}: user {} + OS {} does not partition CT {ct}",
                u.user(ct),
                u.os_total()
            ));
        }
    }
    let total = run.total_concurrency();
    let ces = run.configuration.total_ces();
    if !(total > 0.0 && total <= ces as f64 + 1e-9) {
        broken.push(format!("concurrency {total} outside (0, {ces}]"));
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::{Experiment, SimConfig};
    use cedar_hw::Configuration;

    #[test]
    fn each_broken_clause_is_one_line() {
        let app = cedar_apps::synthetic::uniform_xdoall(1, 2, 16, 300, 8);
        let expected = app.total_bodies();
        let mut run = Experiment::new(app, SimConfig::cedar(Configuration::P4)).run();
        assert_eq!(conservation(&run, expected), Vec::<String>::new());
        run.concurrency = vec![5.0];
        assert_eq!(
            conservation(&run, expected + 1),
            [
                format!(
                    "coverage broken: {expected} bodies ran, expected {}",
                    expected + 1
                ),
                "concurrency 5 outside (0, 4]".to_string(),
            ]
        );
    }
}
