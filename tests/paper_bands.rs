//! Full-scale reproduction bands: the quantitative claims EXPERIMENTS.md
//! makes, as executable checks against the publication-scale campaign.
//!
//! These run the complete 5-apps × 5-configurations campaign (about
//! 3 s in release on a 2-core host, minutes in debug), so they are
//! `#[ignore]`d by default; `scripts/ci.sh` runs them in release:
//!
//! ```sh
//! cargo test --release --test paper_bands -- --ignored
//! ```

use std::sync::OnceLock;

use cedar::core::methodology::{contention_overhead, parallel_loop_concurrency};
use cedar::core::suite::SuiteResult;
use cedar::hw::Configuration;
use cedar::obs::RunOptions;
use cedar::trace::UserBucket;

fn campaign() -> &'static SuiteResult {
    static C: OnceLock<SuiteResult> = OnceLock::new();
    C.get_or_init(|| SuiteResult::full_campaign(&RunOptions::default()))
}

fn speedup(app: &str, c: Configuration) -> f64 {
    let a = campaign().app(app);
    a.run(c).speedup_over(a.baseline())
}

fn contention(app: &str, c: Configuration) -> f64 {
    let a = campaign().app(app);
    contention_overhead(a.baseline(), a.run(c)).overhead_pct
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn table1_speedup_ordering_matches_paper_at_32p() {
    // Paper: MDG (24.4) > ARC2D (15.1) ~ OCEAN (15.6) > FLO52 (8.4) ~ ADM (8.8).
    let mdg = speedup("MDG", Configuration::P32);
    let arc = speedup("ARC2D", Configuration::P32);
    let ocean = speedup("OCEAN", Configuration::P32);
    let flo = speedup("FLO52", Configuration::P32);
    let adm = speedup("ADM", Configuration::P32);
    assert!(mdg > arc && mdg > ocean, "MDG scales best");
    assert!(arc > flo && ocean > flo, "FLO52 in the bottom group");
    assert!(arc > adm && ocean > adm, "ADM in the bottom group");
    assert!(mdg > 22.0, "MDG near-linear: {mdg}");
    assert!(adm < 10.0, "ADM saturates: {adm}");
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn table1_adm_flattens_after_16() {
    let s16 = speedup("ADM", Configuration::P16);
    let s32 = speedup("ADM", Configuration::P32);
    assert!(
        (s32 - s16).abs() / s16 < 0.15,
        "ADM 16p->32p nearly flat: {s16} -> {s32}"
    );
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn table4_flo52_is_the_contention_champion_and_peaks_within_one_cluster() {
    // Paper: FLO52 17/27/24/21 — highest of the suite, peaked at 8p.
    let at = |c| contention("FLO52", c);
    let p8 = at(Configuration::P8);
    assert!(p8 > 20.0, "FLO52 8p contention {p8} should exceed 20%");
    assert!(p8 > at(Configuration::P4), "peak is past 4p");
    for other in ["ARC2D", "MDG", "OCEAN"] {
        assert!(
            at(Configuration::P32) > contention(other, Configuration::P32),
            "FLO52 tops {other} at 32p"
        );
    }
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn table4_contention_rises_with_processors_for_the_balanced_apps() {
    for app in ["ARC2D", "MDG"] {
        let o4 = contention(app, Configuration::P4);
        let o32 = contention(app, Configuration::P32);
        assert!(o32 > o4 + 3.0, "{app}: {o4} -> {o32} should rise");
        assert!(o4 < 5.0, "{app} starts small: {o4}");
    }
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn table3_concurrency_orderings() {
    // MDG ~8 per cluster; OCEAN and ADM lowest; nothing above 8 (+slack).
    let par = |app: &str| {
        parallel_loop_concurrency(campaign().app(app).run(Configuration::P32))[0].par_concurr
    };
    let mdg = par("MDG");
    assert!(mdg > 7.8 && mdg <= 8.3, "MDG per-cluster ~8: {mdg}");
    assert!(par("OCEAN") < 7.0, "OCEAN starved");
    assert!(par("ADM") < 7.0, "ADM starved");
    for app in ["FLO52", "ARC2D", "MDG", "OCEAN", "ADM"] {
        for cc in parallel_loop_concurrency(campaign().app(app).run(Configuration::P32)) {
            assert!(cc.par_concurr <= 8.5, "{app}: {}", cc.par_concurr);
        }
    }
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn figure3_os_bands() {
    for app in ["FLO52", "ARC2D", "MDG", "OCEAN", "ADM"] {
        let a = campaign().app(app);
        let p1 = a.run(Configuration::P1).os_overhead_fraction();
        let p32 = a.run(Configuration::P32).os_overhead_fraction();
        assert!(p1 < 0.05, "{app}: 1p OS {p1} in the 3-4% band");
        assert!(p32 > p1, "{app}: OS grows with processors");
        assert!(p32 < 0.21, "{app}: 32p OS {p32} within the paper's band");
        // Kernel spin negligible (§5).
        let spin = a.run(Configuration::P32).utilization[0]
            .spin
            .fraction_of(a.run(Configuration::P32).completion_time);
        assert!(spin < 0.02, "{app}: spin {spin}");
    }
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn figures5to9_parallelization_bands() {
    // Main task 10-25%-ish at 32p (we allow the band's floor to sag a
    // little for FLO52, see EXPERIMENTS.md); helpers always above main.
    for app in ["FLO52", "ARC2D", "MDG", "OCEAN", "ADM"] {
        let r = campaign().app(app).run(Configuration::P32);
        let main = r.main_parallelization_fraction();
        assert!(
            (0.05..=0.30).contains(&main),
            "{app}: main parallelization overhead {main}"
        );
        for (h, b) in r.helper_breakdowns().iter().enumerate() {
            let helper = b.parallelization_overhead().fraction_of(r.completion_time);
            assert!(
                helper > main,
                "{app} helper{h}: {helper} should exceed main {main} (spin-wait)"
            );
        }
    }
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn figure5_flo52_helper_wait_band() {
    // Paper: ~34% at 32p; we land at 40-44%.
    let r = campaign().app("FLO52").run(Configuration::P32);
    for b in r.helper_breakdowns() {
        let wait = b.get(UserBucket::HelperWait).fraction_of(r.completion_time);
        assert!(
            (0.25..=0.55).contains(&wait),
            "FLO52 helper wait {wait} out of band"
        );
    }
}

#[test]
#[ignore = "full-scale campaign; run with --release -- --ignored"]
fn table2_component_ordering() {
    use cedar::xylem::OsActivity;
    // cpi + ctx + page faults + cluster critical sections dominate.
    for app in ["FLO52", "ARC2D", "MDG"] {
        let r = campaign().app(app).run(Configuration::P32);
        let big: u64 = [
            OsActivity::Cpi,
            OsActivity::Ctx,
            OsActivity::PgFltConcurrent,
            OsActivity::PgFltSequential,
            OsActivity::CrSectCluster,
        ]
        .iter()
        .map(|a| r.os_activity(*a).0)
        .sum();
        let small: u64 = [
            OsActivity::SyscallCluster,
            OsActivity::SyscallGlobal,
            OsActivity::CrSectGlobal,
            OsActivity::Ast,
        ]
        .iter()
        .map(|a| r.os_activity(*a).0)
        .sum();
        assert!(
            big > 2 * small,
            "{app}: the big four must dominate ({big} vs {small})"
        );
    }
}
