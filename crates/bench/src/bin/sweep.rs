//! Parameter sweeps: where do the paper's overheads bite?
//!
//! Two sweeps on the 32-processor Cedar:
//!
//! 1. **Granularity**: shrink the xdoall iteration body and watch the
//!    distribution overhead cross §6's 10%-of-CT line — "synchronizations
//!    degrade performance for problems that do not have sufficiently
//!    large loop granularity, as is the case with the Perfect
//!    Benchmarks' data set".
//! 2. **Traffic density**: grow the per-iteration vector traffic of an
//!    sdoall loop and watch the global-memory/network contention
//!    overhead climb toward FLO52 territory (Table 4).

use cedar_apps::synthetic;
use cedar_core::methodology::contention_overhead;
use cedar_core::{CacheStats, SimConfig, SuiteResult};
use cedar_hw::Configuration;
use cedar_trace::UserBucket;

/// Both sweeps' run-cache traffic, summed into one session's report.
fn merged(a: Option<CacheStats>, b: Option<CacheStats>) -> Option<CacheStats> {
    let (a, b) = (a?, b?);
    Some(CacheStats {
        mode: a.mode,
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        writes: a.writes + b.writes,
        bypasses: a.bypasses + b.bypasses,
    })
}

fn main() {
    let opts = cedar_bench::run_options();
    println!("Sweep 1: xdoall granularity vs distribution overhead (32 proc)");
    println!(
        "{:>12} | {:>10} | {:>12} | {:>10}",
        "body (cy)", "CT (s)", "pickup %", "par-ov %"
    );
    println!("{}", "-".repeat(52));
    let computes = [200u64, 500, 1_000, 2_000, 5_000, 10_000, 20_000];
    let apps = computes.map(|compute| synthetic::uniform_xdoall(4, 2, 64, compute, 8));
    let granularity = SuiteResult::measure(&apps, &[SimConfig::cedar(Configuration::P32)], opts);
    for (compute, app) in computes.iter().zip(&granularity.apps) {
        let run = &app.runs[0];
        let pickup = run
            .main_breakdown()
            .get(UserBucket::PickupXdoall)
            .fraction_of(run.completion_time)
            * 100.0;
        let marker = if pickup > 10.0 {
            "  <= over the S6 line"
        } else {
            ""
        };
        println!(
            "{:>12} | {:>10.4} | {:>12.1} | {:>10.1}{}",
            compute,
            run.ct_seconds(),
            pickup,
            run.main_parallelization_fraction() * 100.0,
            marker
        );
    }

    println!();
    println!("Sweep 2: vector traffic vs contention overhead (32 proc, sdoall)");
    println!(
        "{:>12} | {:>10} | {:>10} | {:>14}",
        "words/iter", "CT (s)", "Ov_cont %", "queue/packet"
    );
    println!("{}", "-".repeat(54));
    let word_counts = [0u32, 8, 16, 32, 64, 96];
    let apps = word_counts.map(|words| synthetic::uniform_sdoall(4, 2, 8, 16, 400, words));
    let traffic = SuiteResult::measure(
        &apps,
        &[Configuration::P1, Configuration::P32].map(SimConfig::cedar),
        opts,
    );
    for (words, app) in word_counts.iter().zip(&traffic.apps) {
        let (base, run) = (&app.runs[0], &app.runs[1]);
        let ov = contention_overhead(base, run).overhead_pct;
        println!(
            "{:>12} | {:>10.4} | {:>10.1} | {:>14.2}",
            words,
            run.ct_seconds(),
            ov,
            run.gmem.mean_queued_per_packet(),
        );
    }
    println!();
    println!("Granularity buys off the distribution overhead; traffic buys it");
    println!("back as contention — the two levers behind Tables 1 and 4.");
    if let Some(c) = merged(granularity.telemetry.cache, traffic.telemetry.cache) {
        println!("{}", cedar_report::tables::cache_line(&c));
    }
}
