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
use cedar_hw::ClusterId;
use cedar_sim::Cycles;
use cedar_xylem::config::{
    AST_COST, CPI_COST_PER_CE, CR_SECT_GLOBAL, CTX_COST_PER_CE, DAEMON_OTHER, DAEMON_SYSCALL,
    SYSCALL_GLOBAL,
};
use cedar_xylem::OsActivity;

/// Completion-time conservation on one run. The clauses:
///
/// - **coverage**: exactly `expected_bodies` loop bodies ran;
/// - **breakdown ≤ CT**: no task's user-time breakdown exceeds the
///   completion time;
/// - **concurrency**: `0 < total_concurrency ≤ total_ces`;
/// - **OS costs**: on every cluster, the `Cpi`, `SyscallGlobal`,
///   `SyscallCluster`, `CrSectGlobal`, `Ast` and `Ctx` ledgers total
///   their sample counts times their constant costs (see `os_costs`).
///
/// Figure 3's user + OS = CT is no clause: a cluster's user time is CT
/// minus its OS time, saturating at 0, so the sum holds by definition
/// wherever OS ≤ CT. OS > CT is not ruled out either. In 850 runs at
/// 1/16 scale (five apps × five configurations × fault levels 0–4 and
/// each class alone at level 2 × FIFO, LIFO and `Shuffle(7)`, plus each
/// cell under `BackgroundLoad::light()`), 48 clusters were charged more
/// OS time than their CT, all under injected faults (FLO52 at 8p levels
/// 3–4, at 16p and 32p levels 2–4 and lock inflation alone, OCEAN at
/// 32p level 4 under LIFO), the worst 149% of CT; no clean or
/// background-only run exceeded CT. The check corpus runs FLO52 32p at
/// level 2, so such a clause would fail on it.
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
    let total = run.total_concurrency();
    let ces = run.configuration.total_ces();
    if !(total > 0.0 && total <= ces as f64 + 1e-9) {
        broken.push(format!("concurrency {total} outside (0, {ces}]"));
    }
    broken.extend(os_costs(run));
    broken
}

/// The OS model's closed-form law, for the six Table 2 activities
/// whose every charge costs one constant of `cedar_xylem::config`: on
/// every cluster the ledger totals its sample count × that constant.
///
/// - `Cpi`: `CPI_COST_PER_CE`, organic and interrupt-storm CPIs alike;
/// - `SyscallGlobal`: `SYSCALL_GLOBAL`, the runtime's task calls;
/// - `SyscallCluster`: `DAEMON_SYSCALL`, the daemon's share;
/// - `CrSectGlobal`: `CR_SECT_GLOBAL`, the hold of each global call's
///   critical section, unless lock inflation stretched a hold;
/// - `Ast`: `AST_COST`, unless the run injected AST bursts, which cost
///   their own constant;
/// - `Ctx`: `CTX_COST_PER_CE + DAEMON_OTHER`, the daemon's switch,
///   unless a background load stole a quantum, whose two switches cost
///   `2 × CTX_COST_PER_CE`.
///
/// The page-fault and critical-section ledgers mix costs from several
/// sources.
fn os_costs(run: &RunResult) -> Vec<String> {
    let mut laws = vec![
        (OsActivity::Cpi, CPI_COST_PER_CE),
        (OsActivity::SyscallGlobal, SYSCALL_GLOBAL),
        (OsActivity::SyscallCluster, DAEMON_SYSCALL),
    ];
    if run.stats.counters.get("faults.injected.lock_global") == 0 {
        laws.push((OsActivity::CrSectGlobal, CR_SECT_GLOBAL));
    }
    if run.stats.counters.get("faults.injected.ast") == 0 {
        laws.push((OsActivity::Ast, AST_COST));
    }
    if run.background_stolen == Cycles::ZERO {
        laws.push((OsActivity::Ctx, CTX_COST_PER_CE + DAEMON_OTHER));
    }
    let mut broken = Vec::new();
    for k in 0..run.os.n_clusters() {
        for &(activity, cost) in &laws {
            let ledger = run.os.cluster(ClusterId(k)).get(activity);
            if ledger.total() != cost * ledger.samples() {
                broken.push(format!(
                    "cluster {k}: {activity:?} ledger {} is not {} samples × {cost}",
                    ledger.total(),
                    ledger.samples()
                ));
            }
        }
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
    use cedar_sim::stats::DurationAccum;

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
    fn a_tampered_os_ledger_is_reported() {
        // Long enough for a daemon switch on cluster 0.
        let app = cedar_apps::synthetic::uniform_sdoall(8, 2, 8, 16, 400, 4);
        let expected = app.total_bodies();
        let mut run = Experiment::new(app, SimConfig::cedar(Configuration::P16)).run();
        assert_eq!(conservation(&run, expected), Vec::<String>::new());

        // One cycle too many in five charged ledgers, and an AST ledger
        // with a sample but no cycles.
        let mut tamper = |k: u8, activity: OsActivity| {
            let ledger = run.os.cluster(ClusterId(k)).get(activity).clone();
            assert!(
                ledger.samples() > 0,
                "{activity:?} is charged on cluster {k}"
            );
            let total = ledger.total() + Cycles(1);
            let tampered = DurationAccum::from_parts(total, ledger.samples(), ledger.max());
            run.os.restore(ClusterId(k), activity, tampered);
            (total, ledger.samples())
        };
        let cpi = tamper(0, OsActivity::Cpi);
        let global = tamper(0, OsActivity::SyscallGlobal);
        let cluster = tamper(0, OsActivity::SyscallCluster);
        let crsect = tamper(0, OsActivity::CrSectGlobal);
        let ctx = tamper(0, OsActivity::Ctx);
        let ast = DurationAccum::from_parts(Cycles::ZERO, 1, Cycles::ZERO);
        run.os.restore(ClusterId(1), OsActivity::Ast, ast);
        let line = |k: u8, activity: OsActivity, (total, samples): (Cycles, u64), cost: Cycles| {
            format!("cluster {k}: {activity:?} ledger {total} is not {samples} samples × {cost}")
        };
        assert_eq!(
            conservation(&run, expected),
            [
                line(0, OsActivity::Cpi, cpi, CPI_COST_PER_CE),
                line(0, OsActivity::SyscallGlobal, global, SYSCALL_GLOBAL),
                line(0, OsActivity::SyscallCluster, cluster, DAEMON_SYSCALL),
                line(0, OsActivity::CrSectGlobal, crsect, CR_SECT_GLOBAL),
                line(0, OsActivity::Ctx, ctx, CTX_COST_PER_CE + DAEMON_OTHER),
                format!("cluster 1: Ast ledger 0cy is not 1 samples × {AST_COST}"),
            ]
        );

        // A run that injected AST bursts drops the AST law, one that
        // lost a quantum to a background load the Ctx law, and one that
        // inflated a global lock hold the CrSectGlobal law.
        run.stats.counters.add("faults.injected.ast", 600);
        assert_eq!(conservation(&run, expected).len(), 5);
        run.background_stolen = Cycles(10_000);
        assert_eq!(conservation(&run, expected).len(), 4);
        run.stats.counters.add("faults.injected.lock_global", 330);
        assert_eq!(conservation(&run, expected).len(), 3);
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
