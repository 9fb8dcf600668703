//! Machine-readable CSV output for downstream plotting.

use std::fmt::Write as _;

use cedar_core::methodology::{contention_overhead, parallel_loop_concurrency};
use cedar_core::suite::SuiteResult;
use cedar_hw::Configuration;
use cedar_trace::UserBucket;
use cedar_xylem::accounting::Category;

/// One row per `(app, configuration)` with the headline metrics.
pub fn summary_csv(suite: &SuiteResult) -> String {
    let mut out = String::from(
        "app,config,processors,ct_cycles,speedup,concurrency,os_pct,system_pct,interrupt_pct,\
         spin_pct,par_overhead_main_pct,contention_pct\n",
    );
    for app in &suite.apps {
        let base = app.baseline();
        for r in &app.runs {
            let c = r.configuration;
            let cont = if c == Configuration::P1 {
                0.0
            } else {
                contention_overhead(base, r).overhead_pct
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                app.app,
                c.label().replace(' ', ""),
                c.total_ces(),
                r.completion_time.0,
                r.speedup_over(base),
                r.total_concurrency(),
                r.os_overhead_fraction() * 100.0,
                r.os_category_fraction(Category::System) * 100.0,
                r.os_category_fraction(Category::Interrupt) * 100.0,
                r.os_category_fraction(Category::Spin) * 100.0,
                r.main_parallelization_fraction() * 100.0,
                cont,
            );
        }
    }
    out
}

/// One row per `(app, configuration, task, bucket)` — the raw material of
/// Figures 5–9.
pub fn breakdown_csv(suite: &SuiteResult) -> String {
    let mut out = String::from("app,config,task,bucket,cycles,pct_of_ct\n");
    for app in &suite.apps {
        for r in &app.runs {
            let c = r.configuration;
            for (task, b) in r.breakdowns.iter().enumerate() {
                let task_name = if task == 0 {
                    "main".to_string()
                } else {
                    format!("helper{task}")
                };
                for bucket in UserBucket::ALL {
                    let v = b.get(bucket);
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{},{:.4}",
                        app.app,
                        c.label().replace(' ', ""),
                        task_name,
                        bucket.label().replace(' ', "_"),
                        v.0,
                        v.fraction_of(r.completion_time) * 100.0,
                    );
                }
            }
        }
    }
    out
}

/// One row per `(app, configuration, cluster)` with Table 3's quantities.
pub fn concurrency_csv(suite: &SuiteResult) -> String {
    let mut out = String::from("app,config,cluster,pf,avg_concurr,par_concurr\n");
    for app in &suite.apps {
        for r in &app.runs {
            let c = r.configuration;
            if c == Configuration::P1 {
                continue;
            }
            for (cl, cc) in parallel_loop_concurrency(r).iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{},{:.4},{:.4},{:.4}",
                    app.app,
                    c.label().replace(' ', ""),
                    cl,
                    cc.pf,
                    cc.avg_concurr,
                    cc.par_concurr,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;

    fn mini_suite() -> SuiteResult {
        let mut a = synthetic::uniform_xdoall(1, 1, 16, 300, 4);
        a.name = "T";
        SuiteResult::measure(
            &[a],
            &[Configuration::P1, Configuration::P8].map(cedar_core::SimConfig::cedar),
            &cedar_core::RunOptions::default(),
        )
    }

    #[test]
    fn summary_csv_has_one_row_per_run() {
        let csv = summary_csv(&mini_suite());
        assert_eq!(csv.lines().count(), 1 + 2);
        assert!(csv.starts_with("app,config"));
        assert!(csv.contains("T,1proc,1,"));
    }

    #[test]
    fn breakdown_csv_covers_all_buckets() {
        let csv = breakdown_csv(&mini_suite());
        for b in UserBucket::ALL {
            assert!(
                csv.contains(&b.label().replace(' ', "_")),
                "missing bucket {b:?}"
            );
        }
    }

    #[test]
    fn concurrency_csv_skips_single_processor() {
        let csv = concurrency_csv(&mini_suite());
        assert!(!csv.contains(",1proc,"));
        assert!(csv.contains(",8proc,"));
    }
}
