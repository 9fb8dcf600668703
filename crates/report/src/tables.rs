//! The paper's tables, regenerated from a measurement campaign.

use cedar_core::methodology::{
    contention::baseline_parallel_time, contention_overhead, parallel_loop_concurrency,
};
use cedar_core::suite::SuiteResult;
use cedar_hw::Configuration;
use cedar_xylem::OsActivity;

use crate::table::{fnum, TextTable};

/// The configurations present in a campaign, in `Configuration::ALL`
/// order (reduced campaigns render reduced tables).
fn present(suite: &SuiteResult) -> Vec<Configuration> {
    Configuration::ALL
        .into_iter()
        .filter(|c| {
            suite
                .apps
                .first()
                .is_some_and(|a| a.runs.iter().any(|r| r.configuration == *c))
        })
        .collect()
}

/// Table 1: completion times, speedups and average concurrency for every
/// application on every configuration.
pub fn table1(suite: &SuiteResult) -> String {
    let configs = present(suite);
    let mut header: Vec<String> = vec!["Program".into(), "".into()];
    header.extend(configs.iter().map(|c| c.label().to_string()));
    let mut t = TextTable::new(header);
    for app in &suite.apps {
        let base = app.baseline();
        let mut ct_row = vec![app.app.to_string(), "CT (s)".into()];
        let mut sp_row = vec!["".to_string(), "Speedup".into()];
        let mut cc_row = vec!["".to_string(), "Concurr".into()];
        for &c in &configs {
            let r = app.run(c);
            ct_row.push(fnum(r.ct_seconds(), 4));
            sp_row.push(if c == Configuration::P1 {
                "-".into()
            } else {
                fnum(r.speedup_over(base), 2)
            });
            cc_row.push(if c == Configuration::P1 {
                "-".into()
            } else {
                fnum(r.total_concurrency(), 2)
            });
        }
        t.row(ct_row);
        t.row(sp_row);
        t.row(cc_row);
        t.separator();
    }
    format!(
        "Table 1: CTs, Speedups and Average Concurrency\n{}",
        t.render()
    )
}

/// Table 2: detailed OS-activity overheads on the 4-cluster Cedar for
/// FLO52, ARC2D and MDG (seconds and percent of completion time).
pub fn table2(suite: &SuiteResult) -> String {
    let apps = ["FLO52", "ARC2D", "MDG"];
    let mut header: Vec<String> = vec!["Overhead Category".into()];
    for a in apps {
        header.push(format!("{a} (s)"));
        header.push("%".into());
    }
    let mut t = TextTable::new(header);
    for activity in OsActivity::ALL {
        if activity == OsActivity::KernelSpin {
            continue; // reported via Figure 3's spin bar, as in the paper
        }
        let mut row = vec![activity.label().to_string()];
        for a in apps {
            let r = suite.app(a).run(Configuration::P32);
            let cost = r.os_activity(activity);
            row.push(fnum(cost.as_secs(), 4));
            row.push(fnum(cost.fraction_of(r.completion_time) * 100.0, 2));
        }
        t.row(row);
    }
    format!(
        "Table 2: Detailed Characterization of OS overheads (32 proc)\n{}",
        t.render()
    )
}

/// Table 3: average parallel-loop concurrency per task/cluster for every
/// multiprocessor configuration.
pub fn table3(suite: &SuiteResult) -> String {
    let mut header: Vec<String> = vec!["Config".into(), "Task".into()];
    header.extend(suite.apps.iter().map(|a| a.app.to_string()));
    let mut t = TextTable::new(header);
    for c in present(suite)
        .into_iter()
        .filter(|c| *c != Configuration::P1)
    {
        let task_names: Vec<String> = match c.clusters() {
            1 => vec!["Main".into()],
            n => {
                let mut v = vec!["Main".to_string()];
                for h in 1..n {
                    v.push(format!("helper{h}"));
                }
                v
            }
        };
        for (ti, task) in task_names.iter().enumerate() {
            let mut row = vec![
                if ti == 0 {
                    c.label().to_string()
                } else {
                    String::new()
                },
                task.clone(),
            ];
            for app in &suite.apps {
                let cc = parallel_loop_concurrency(app.run(c));
                row.push(fnum(cc[ti].par_concurr, 2));
            }
            t.row(row);
        }
        t.separator();
    }
    format!("Table 3: Average Parallel Loop Concurrency\n{}", t.render())
}

/// Table 4: actual and ideal parallel-loop times and the global-memory
/// and network contention overhead.
pub fn table4(suite: &SuiteResult) -> String {
    let configs = present(suite);
    let mut header: Vec<String> = vec!["Program".into(), "".into()];
    header.extend(configs.iter().map(|c| c.label().to_string()));
    let mut t = TextTable::new(header);
    for app in &suite.apps {
        let base = app.baseline();
        let mut act = vec![app.app.to_string(), "Tp_actual (s)".into()];
        let mut ideal = vec!["".to_string(), "Tp_ideal (s)".into()];
        let mut ov = vec!["".to_string(), "Ov_cont (%)".into()];
        for &c in &configs {
            if c == Configuration::P1 {
                act.push(fnum(baseline_parallel_time(base).as_secs(), 4));
                ideal.push("-".into());
                ov.push("-".into());
            } else {
                let est = contention_overhead(base, app.run(c));
                act.push(fnum(est.t_p_actual.as_secs(), 4));
                ideal.push(fnum(est.t_p_ideal.as_secs(), 4));
                ov.push(fnum(est.overhead_pct, 1));
            }
        }
        t.row(act);
        t.row(ideal);
        t.row(ov);
        t.separator();
    }
    format!(
        "Table 4: GM and Network Contention Overhead\n{}",
        t.render()
    )
}

/// Injected-cost counter behind each OS-activity bucket, when one
/// exists. The mapping mirrors `cedar-core`'s injection handlers: a
/// fault class charges exactly one bucket, and the machine counts the
/// cycles it added under these names.
fn injected_counter(activity: OsActivity) -> Option<&'static str> {
    match activity {
        OsActivity::Cpi => Some("faults.injected.cpi"),
        OsActivity::Ast => Some("faults.injected.ast"),
        OsActivity::PgFltSequential => Some("faults.injected.pgflt_seq"),
        OsActivity::PgFltConcurrent => Some("faults.injected.pgflt_conc"),
        OsActivity::CrSectCluster => Some("faults.injected.lock_cluster"),
        OsActivity::CrSectGlobal => Some("faults.injected.lock_global"),
        _ => None,
    }
}

/// The fault-attribution report: each Table-2 overhead bucket of a
/// faulted run against its unperturbed baseline, next to the cycles the
/// campaign says it injected there. Reading it row by row verifies the
/// attribution story: the delta of a targeted bucket tracks its
/// injected column, untargeted buckets stay near zero, and the final
/// rows show how completion time and memory-system queueing absorbed
/// the static classes (degraded network, helper stalls).
pub fn fault_report(base: &cedar_core::RunResult, faulted: &cedar_core::RunResult) -> String {
    assert_eq!(base.app, faulted.app, "compare runs of the same app");
    assert_eq!(
        base.configuration, faulted.configuration,
        "compare runs of the same configuration"
    );
    let mut t = TextTable::new(vec![
        "Overhead Category".to_string(),
        "Base (ms)".into(),
        "Faulted (ms)".into(),
        "Delta (ms)".into(),
        "Injected (ms)".into(),
    ]);
    for activity in OsActivity::ALL {
        let b = base.os.total(activity).as_millis();
        let f = faulted.os.total(activity).as_millis();
        let injected = injected_counter(activity)
            .map(|name| {
                let cycles = faulted.stats.counters.get(name);
                fnum(cedar_sim::Cycles(cycles).as_millis(), 3)
            })
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            activity.label().to_string(),
            fnum(b, 3),
            fnum(f, 3),
            fnum(f - b, 3),
            injected,
        ]);
    }
    t.separator();
    let stall = faulted.stats.counters.get("faults.injected.stall");
    t.row(vec![
        "helper stall (user)".into(),
        fnum(0.0, 3),
        fnum(cedar_sim::Cycles(stall).as_millis(), 3),
        "-".into(),
        fnum(cedar_sim::Cycles(stall).as_millis(), 3),
    ]);
    t.row(vec![
        "gmem queued/pkt (cyc)".into(),
        fnum(base.gmem.mean_queued_per_packet(), 2),
        fnum(faulted.gmem.mean_queued_per_packet(), 2),
        fnum(
            faulted.gmem.mean_queued_per_packet() - base.gmem.mean_queued_per_packet(),
            2,
        ),
        "-".into(),
    ]);
    t.row(vec![
        "completion time".into(),
        fnum(base.completion_time.as_millis(), 3),
        fnum(faulted.completion_time.as_millis(), 3),
        fnum(
            faulted.completion_time.as_millis() - base.completion_time.as_millis(),
            3,
        ),
        "-".into(),
    ]);
    format!(
        "Fault Attribution: {} @ {} — injected overhead per Table-2 bucket\n{}",
        base.app,
        base.configuration.label(),
        t.render()
    )
}

/// One-line summary of a campaign's run-cache traffic, printed by the
/// cache-aware binaries after their tables.
pub fn cache_line(c: &cedar_core::CacheStats) -> String {
    format!(
        "run cache [{}]: {} hits, {} misses, {} writes, {} bypasses ({:.0}% hit rate)",
        c.mode.as_str(),
        c.hits,
        c.misses,
        c.writes,
        c.bypasses,
        c.hit_rate() * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;
    use cedar_core::suite::SuiteResult;

    fn mini_suite() -> SuiteResult {
        // A tiny campaign so table rendering is fast in tests.
        let mut a = synthetic::uniform_sdoall(1, 1, 8, 8, 300, 4);
        a.name = "FLO52";
        let mut b = synthetic::uniform_xdoall(1, 1, 32, 300, 4);
        b.name = "ARC2D";
        let mut c = synthetic::uniform_sdoall(1, 1, 8, 16, 300, 0);
        c.name = "MDG";
        SuiteResult::measure(
            &[a, b, c],
            &Configuration::ALL.map(cedar_core::SimConfig::cedar),
            &cedar_core::RunOptions::default(),
        )
    }

    #[test]
    fn all_tables_render_with_expected_structure() {
        let suite = mini_suite();
        let t1 = table1(&suite);
        assert!(t1.contains("Table 1"));
        assert!(t1.contains("FLO52"));
        assert!(t1.contains("Speedup"));
        assert!(t1.contains("32 proc"));

        let t2 = table2(&suite);
        assert!(t2.contains("cpi"));
        assert!(t2.contains("pg flt (c)"));
        assert!(t2.contains("glbl syscall"));

        let t3 = table3(&suite);
        assert!(t3.contains("helper3"), "32-proc rows list three helpers");
        assert!(t3.contains("Main"));

        let t4 = table4(&suite);
        assert!(t4.contains("Tp_actual"));
        assert!(t4.contains("Ov_cont"));
    }

    #[test]
    fn table1_has_three_rows_per_app() {
        let suite = mini_suite();
        let t1 = table1(&suite);
        let ct_rows = t1.lines().filter(|l| l.contains("CT (s)")).count();
        assert_eq!(ct_rows, 3);
    }

    #[test]
    fn cache_line_prints_traffic() {
        let s = cache_line(&cedar_core::CacheStats {
            mode: cedar_core::CacheMode::ReadWrite,
            hits: 24,
            misses: 1,
            writes: 1,
            bypasses: 0,
        });
        assert_eq!(
            s,
            "run cache [rw]: 24 hits, 1 misses, 1 writes, 0 bypasses (96% hit rate)"
        );
    }

    #[test]
    fn fault_report_shows_every_bucket_and_the_injected_column() {
        use cedar_core::prelude::FaultPlan;
        use cedar_core::{Experiment, SimConfig};

        let app = synthetic::uniform_sdoall(1, 2, 8, 8, 300, 4);
        let cfg = SimConfig::cedar(Configuration::P4);
        let base = Experiment::new(app.clone(), cfg.clone()).run();
        let faulted = Experiment::new(app, cfg.with_faults(FaultPlan::canonical_at(1))).run();
        let r = fault_report(&base, &faulted);
        assert!(r.contains("Fault Attribution"));
        for activity in OsActivity::ALL {
            assert!(r.contains(activity.label()), "missing {activity:?} row");
        }
        assert!(r.contains("completion time"));
        assert!(r.contains("gmem queued/pkt"));
        // Faulted CT never beats the baseline.
        assert!(faulted.completion_time >= base.completion_time);
    }
}
