//! The paper's figures, rendered as text bar charts.

use std::fmt::Write as _;

use cedar_core::result::RunResult;
use cedar_core::suite::{AppResults, SuiteResult};
use cedar_trace::UserBucket;
use cedar_xylem::accounting::Category;

use crate::table::fnum;

/// Figure 3: completion-time breakdown into user / system / interrupt /
/// spin on the main cluster, one block per application.
pub fn figure3(suite: &SuiteResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: Completion Time Breakdown on Different Cedar Configurations"
    );
    for app in &suite.apps {
        let _ = writeln!(out, "\n[{}]", app.app);
        for r in &app.runs {
            let c = r.configuration;
            let user = r.os_category_fraction(Category::User) * 100.0;
            let sys = r.os_category_fraction(Category::System) * 100.0;
            let intr = r.os_category_fraction(Category::Interrupt) * 100.0;
            let spin = r.os_category_fraction(Category::Spin) * 100.0;
            let _ = writeln!(
                out,
                "  {:>7}  CT={:>9}s  user={:>5}% system={:>5}% interrupt={:>4}% spin={:>5}%  {}",
                c.label(),
                fnum(r.ct_seconds(), 4),
                fnum(user, 1),
                fnum(sys, 1),
                fnum(intr, 1),
                fnum(spin, 2),
                bar(&[(user, '#'), (sys, 'S'), (intr, 'I'), (spin, '*')]),
            );
        }
    }
    out
}

/// One application's user-time breakdown (Figures 5–9): the main task's
/// bar for every configuration plus helper-task bars on multi-cluster
/// configurations. Quantities are percentages of the completion time;
/// below-the-line buckets (iterations, serial code, cluster-only loops)
/// come first, parallelization overheads after the `||` divider.
pub(crate) fn user_breakdown(app: &AppResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "User Time Breakdown for {}", app.app);
    let _ = writeln!(
        out,
        "  (below line: iters/serial/cluster-loops || above line: setup/pickup/barrier/helper-wait)"
    );
    for r in &app.runs {
        let _ = writeln!(out, "  {:>7}:", r.configuration.label());
        write_task_bar(&mut out, "main", r, 0);
        for h in 1..r.breakdowns.len() {
            write_task_bar(&mut out, &format!("hlp{h}"), r, h);
        }
    }
    out
}

fn write_task_bar(out: &mut String, name: &str, r: &RunResult, task: usize) {
    let ct = r.completion_time;
    let b = &r.breakdowns[task];
    let pct = |bucket: UserBucket| b.fraction(bucket, ct) * 100.0;
    let below = pct(UserBucket::IterExec)
        + pct(UserBucket::Serial)
        + pct(UserBucket::ClusterLoop)
        + pct(UserBucket::ClusterSync);
    let above: f64 = UserBucket::ALL
        .iter()
        .filter(|u| u.is_parallelization_overhead())
        .map(|u| pct(*u))
        .sum();
    let _ = writeln!(
        out,
        "    {:>5} user={:>6}s  iter={:>5}% serial={:>5}% clus={:>5}% sync={:>4}% || setup={:>4}% \
         pickS={:>4}% pickX={:>4}% barrier={:>5}% hwait={:>5}%   {}",
        name,
        fnum(b.total().as_secs(), 4),
        fnum(pct(UserBucket::IterExec), 1),
        fnum(pct(UserBucket::Serial), 1),
        fnum(pct(UserBucket::ClusterLoop), 1),
        fnum(pct(UserBucket::ClusterSync), 1),
        fnum(pct(UserBucket::LoopSetup), 1),
        fnum(pct(UserBucket::PickupSdoall), 1),
        fnum(pct(UserBucket::PickupXdoall), 1),
        fnum(pct(UserBucket::BarrierWait), 1),
        fnum(pct(UserBucket::HelperWait), 1),
        bar(&[(below, '#'), (above, '^')]),
    );
}

/// Figures 5–9 for the whole suite, in the paper's order.
pub fn figures5to9(suite: &SuiteResult) -> String {
    let order = ["FLO52", "MDG", "ARC2D", "OCEAN", "ADM"]; // paper's figure order
    let numbers = [5, 6, 7, 8, 9];
    let mut out = String::new();
    for (n, name) in numbers.iter().zip(order.iter()) {
        if let Some(app) = suite.apps.iter().find(|a| a.app.eq_ignore_ascii_case(name)) {
            let _ = writeln!(out, "Figure {n}: {}", user_breakdown(app));
        }
    }
    out
}

/// A proportional text bar (2 columns per 5 percent).
fn bar(segments: &[(f64, char)]) -> String {
    let mut s = String::new();
    for (pct, ch) in segments {
        let n = (pct / 2.5).round().max(0.0) as usize;
        for _ in 0..n {
            s.push(*ch);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;
    use cedar_hw::Configuration;

    fn mini_suite() -> SuiteResult {
        let mut a = synthetic::uniform_sdoall(1, 1, 8, 8, 300, 4);
        a.name = "FLO52";
        SuiteResult::measure(
            &[a],
            &[Configuration::P1, Configuration::P16],
            &cedar_core::RunOptions::default(),
        )
    }

    #[test]
    fn figure3_renders_all_categories() {
        let s = figure3(&mini_suite());
        assert!(s.contains("user="));
        assert!(s.contains("system="));
        assert!(s.contains("interrupt="));
        assert!(s.contains("spin="));
        assert!(s.contains("16 proc"));
    }

    #[test]
    fn user_breakdown_shows_helper_bars_on_multicluster() {
        let suite = mini_suite();
        let s = user_breakdown(&suite.apps[0]);
        assert!(s.contains("main"));
        assert!(s.contains("hlp1"), "16-proc runs have one helper");
        assert!(s.contains("barrier="));
        assert!(s.contains("hwait="));
    }

    #[test]
    fn bar_lengths_are_proportional() {
        assert_eq!(bar(&[(50.0, '#')]).len(), 20);
        assert_eq!(bar(&[(25.0, '#'), (25.0, '^')]).len(), 20);
        assert_eq!(bar(&[(0.0, '#')]).len(), 0);
    }
}
