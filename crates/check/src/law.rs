//! The laws every run obeys, each defined once.
//!
//! A law returns the clauses a run (or a pair of runs) breaks, one
//! readable line each, so the oracle harness can wrap them in
//! [`Violation`](crate::Violation)s and a test can assert an empty list
//! with its own replay line. The oracles and the workspace's tests call
//! these functions instead of writing their own comparisons, so each
//! law is as strict in a test as in the checker.

use cedar_core::suite::SuiteResult;
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

/// Run equality: two runs of one experiment agree on every line of
/// [`RunResult::encode`] but the values of the host wall-clock
/// `stats.*` lines — on the measurements and on the simulator's
/// `queue.*` work counts alike, since both are deterministic.
///
/// Returns the first differing line, numbered as in the record, or an
/// empty list when the runs agree.
pub fn same_run(a: &RunResult, b: &RunResult) -> Vec<String> {
    // A host-time line keeps its field name; only its value may differ.
    fn masked(line: &str) -> &str {
        match line.split_once(' ') {
            Some((field, _)) if field.starts_with("stats.") => field,
            _ => line,
        }
    }
    let (a, b) = (a.encode(), b.encode());
    let (mut xs, mut ys) = (a.lines(), b.lines());
    for n in 1usize.. {
        match (xs.next(), ys.next()) {
            (None, None) => break,
            (Some(x), Some(y)) if masked(x) == masked(y) => {}
            (x, y) => {
                let end = "<end of record>";
                return vec![format!(
                    "record line {n} differs: `{}` vs `{}`",
                    x.unwrap_or(end),
                    y.unwrap_or(end)
                )];
            }
        }
    }
    Vec::new()
}

/// Campaign equality: the same applications in the same order, each
/// with as many runs, paired cell by cell under [`same_run`]. Returns
/// one line per broken clause, each naming its application and cell.
pub fn same_campaign(a: &SuiteResult, b: &SuiteResult) -> Vec<String> {
    let names = |s: &SuiteResult| s.apps.iter().map(|r| r.app).collect::<Vec<_>>();
    if names(a) != names(b) {
        return vec![format!("applications {:?} vs {:?}", names(a), names(b))];
    }
    let mut broken = Vec::new();
    for (x, y) in a.apps.iter().zip(&b.apps) {
        if x.runs.len() != y.runs.len() {
            broken.push(format!(
                "{}: {} runs vs {}",
                x.app,
                x.runs.len(),
                y.runs.len()
            ));
            continue;
        }
        for (cell, (r, s)) in x.runs.iter().zip(&y.runs).enumerate() {
            broken.extend(
                same_run(r, s)
                    .into_iter()
                    .map(|l| format!("{} cell {cell}: {l}", x.app)),
            );
        }
    }
    broken
}

/// The organic-growth budget of an OS bucket a fault does not target:
/// how far its total may rise when the run's completion time stretches
/// by `stretch` (faulted over reference, minus one) while `injected`
/// cycles land elsewhere. Organic content scaled by twice the stretch
/// plus 5%, a tenth of the injected cycles, and a 200-cycle floor for
/// whole service events. A run that shrinks by more than 2.5% gets no
/// scaled term: the cast saturates at 0.
pub fn growth_budget(organic: u64, stretch: f64, injected: u64) -> u64 {
    (organic as f64 * (stretch * 2.0 + 0.05)) as u64 + injected / 10 + 200
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::suite::AppResults;
    use cedar_core::{Experiment, SimConfig};
    use cedar_hw::Configuration;

    fn tiny(c: Configuration) -> RunResult {
        let app = cedar_apps::synthetic::uniform_xdoall(1, 2, 16, 300, 8);
        Experiment::new(app, SimConfig::cedar(c)).run()
    }

    fn campaign(apps: &[(&'static str, &[Configuration])]) -> SuiteResult {
        SuiteResult {
            apps: apps
                .iter()
                .map(|&(app, configs)| AppResults {
                    app,
                    runs: configs.iter().map(|&c| tiny(c)).collect(),
                })
                .collect(),
            telemetry: Default::default(),
        }
    }

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

    #[test]
    fn same_run_reports_a_queue_counter_but_not_host_time() {
        let a = tiny(Configuration::P4);
        let mut b = tiny(Configuration::P4);
        assert_eq!(same_run(&a, &b), Vec::<String>::new());

        b.stats.run_ns = a.stats.run_ns + 12_345;
        assert_eq!(same_run(&a, &b), Vec::<String>::new(), "host time");

        // A work count the measurement fingerprint does not hash.
        let popped = a.stats.counters.get("queue.popped");
        b.stats.counters.add("queue.popped", 1);
        assert_eq!(
            crate::fingerprint::fingerprint_text(&a),
            crate::fingerprint::fingerprint_text(&b)
        );
        let broken = same_run(&a, &b);
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(
            broken[0].ends_with(&format!(
                "differs: `counter queue.popped {popped}` vs `counter queue.popped {}`",
                popped + 1
            )),
            "{broken:?}"
        );
    }

    #[test]
    fn same_campaign_reports_a_swapped_order_and_a_missing_app() {
        let both = [Configuration::P1, Configuration::P4];
        let swapped = [Configuration::P4, Configuration::P1];
        let a = campaign(&[("X", &both), ("Y", &both)]);
        assert_eq!(
            same_campaign(&a, &campaign(&[("X", &both), ("Y", &both)])),
            Vec::<String>::new()
        );

        let broken = same_campaign(&a, &campaign(&[("X", &both), ("Y", &swapped)]));
        assert_eq!(broken.len(), 2, "{broken:?}");
        assert!(broken[0].starts_with("Y cell 0: "), "{broken:?}");
        assert!(broken[0].contains("`configuration P1` vs `configuration P4`"));
        assert!(broken[1].starts_with("Y cell 1: "), "{broken:?}");

        assert_eq!(
            same_campaign(&a, &campaign(&[("X", &both)])),
            [r#"applications ["X", "Y"] vs ["X"]"#]
        );
        assert_eq!(
            same_campaign(&a, &campaign(&[("X", &both), ("Y", &both[..1])])),
            ["Y: 2 runs vs 1"]
        );
    }

    #[test]
    fn growth_budget_reproduces_every_attribution_budget() {
        // Reference forms of the three budgets the law serves: the
        // harness's untargeted budget, and tests/invariants.rs's
        // attribution budget with targets and without.
        let harness = |o: u64, s: f64, i: u64| {
            (o as f64 * (s.abs() * 2.0 + 0.05)) as u64 + o / 2 + i / 10 + 200
        };
        let targeted = |o: u64, s: f64, i: u64| (o as f64 * (s * 2.0 + 0.05)) as u64 + i / 10 + 200;
        let noise_only = |o: u64, s: f64| (o as f64 * (s * 2.0 + 0.05)) as u64 + 200;
        for organic in [0, 1, 579, 10_000, 123_457] {
            for stretch in [-0.3, -0.1, -0.025, -0.0123, 0.0, 0.0042, 0.1, 0.77] {
                for injected in [0, 9, 5_000, 1_234_567] {
                    let law = growth_budget(organic, stretch, injected);
                    assert_eq!(law, targeted(organic, stretch, injected));
                    assert_eq!(
                        growth_budget(organic, stretch.abs(), injected) + organic / 2,
                        harness(organic, stretch, injected)
                    );
                }
                assert_eq!(
                    growth_budget(organic, stretch, 0),
                    noise_only(organic, stretch)
                );
            }
        }
        // Fixed points: organic × (2·stretch + 5%), a tenth of the
        // injected cycles, 200 cycles.
        assert_eq!(growth_budget(10_000, 0.10, 5_000), 2_500 + 500 + 200);
        assert_eq!(growth_budget(10_000, 0.0, 0), 500 + 200);
        // A run that shrinks by more than 2.5% under the signed stretch:
        // the scaled term is negative and the cast saturates at 0.
        assert_eq!(growth_budget(10_000, -0.10, 5_000), 500 + 200);
        assert_eq!(growth_budget(10_000, -0.025, 0), 200);
    }
}
