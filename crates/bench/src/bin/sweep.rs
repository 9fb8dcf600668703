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
use cedar_core::{pool, CacheSession, SimConfig};
use cedar_hw::Configuration;
use cedar_trace::UserBucket;

fn main() {
    let opts = cedar_bench::run_options();
    let workers = opts.workers.unwrap_or_else(pool::default_workers);
    let session = CacheSession::new(opts).expect("run cache unavailable");
    let session = &session;
    println!("Sweep 1: xdoall granularity vs distribution overhead (32 proc)");
    println!(
        "{:>12} | {:>10} | {:>12} | {:>10}",
        "body (cy)", "CT (s)", "pickup %", "par-ov %"
    );
    println!("{}", "-".repeat(52));
    let computes = [200u64, 500, 1_000, 2_000, 5_000, 10_000, 20_000];
    let runs = pool::run_jobs(
        workers,
        computes
            .iter()
            .map(|&compute| {
                move || {
                    let app = synthetic::uniform_xdoall(4, 2, 64, compute, 8);
                    session.execute(&app, SimConfig::cedar(Configuration::P32))
                }
            })
            .collect(),
    )
    .expect("sweep experiment panicked");
    for (compute, run) in computes.iter().zip(&runs) {
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
    let pairs = pool::run_jobs(
        workers,
        word_counts
            .iter()
            .map(|&words| {
                move || {
                    let mk = || synthetic::uniform_sdoall(4, 2, 8, 16, 400, words);
                    let base = session.execute(&mk(), SimConfig::cedar(Configuration::P1));
                    let run = session.execute(&mk(), SimConfig::cedar(Configuration::P32));
                    (base, run)
                }
            })
            .collect(),
    )
    .expect("sweep experiment panicked");
    for (words, (base, run)) in word_counts.iter().zip(&pairs) {
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
    if let Some(c) = session.stats() {
        println!("{}", cedar_report::tables::cache_line(&c));
    }
}
