//! # cedar-bench — the campaign binaries
//!
//! | binary       | regenerates                                            |
//! |--------------|--------------------------------------------------------|
//! | `all`        | the full campaign: Tables 1–4, Figures 3 and 5–9, CSVs |
//! | `compare`    | the published Table 1/3/4 numbers next to the measured |
//! | `probe`      | calibration view of one application                    |
//! | `ablation`   | xdoall-vs-sdoall rewrite ablation (§6 suggestion)      |
//! | `sweep`      | granularity and traffic-density sweeps at 32p (§6)     |
//! | `combining`  | flat barrier vs software combining tree (§6, \[16\])   |
//! | `faultsweep` | fault-injection sensitivity, `FAULTS_sensitivity.csv`  |
//! | `check`      | the invariant-oracle checker, `CHECK_violations.json`  |
//!
//! The Pfister & Norton hot-spot ablation (§6 discussion) is an example,
//! not a binary: `cargo run --release --example hotspot`.
//!
//! All binaries are configured by one typed [`cedar_obs::RunOptions`]
//! value, parsed **once** from the `CEDAR_*`/`BENCH_*` environment by
//! [`run_options`] and passed down explicitly — no library code below
//! this point reads `std::env`. The knobs: `CEDAR_SHRINK=<n>` divides
//! every time-step count by `n` for a quick (non-publication) pass,
//! `CEDAR_WORKERS=<n>` bounds the worker pool, `CEDAR_CACHE` sets the
//! run-cache mode, `BENCH_SMOKE=1` selects `check`'s four-case corpus
//! and `BENCH_JSON_DIR` redirects the output files.
//!
//! Timing is the separate `perfbench/` package. Campaign runs write a
//! run manifest via [`manifest`].

pub mod manifest;

use std::sync::OnceLock;

use cedar_core::suite::SuiteResult;
use cedar_obs::RunOptions;

/// The process-wide run options, parsed from the environment exactly
/// once. This is the single place the campaign binaries touch `CEDAR_*` /
/// `BENCH_*`; everything downstream takes the typed value.
pub fn run_options() -> &'static RunOptions {
    static OPTS: OnceLock<RunOptions> = OnceLock::new();
    OPTS.get_or_init(RunOptions::from_env)
}

/// Runs the full measurement campaign once per process under
/// [`run_options`] and caches it, so every table and figure a binary
/// prints comes from the same run.
pub fn campaign() -> &'static SuiteResult {
    static CAMPAIGN: OnceLock<SuiteResult> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let opts = run_options();
        if opts.shrink > 1 {
            eprintln!(
                "note: CEDAR_SHRINK={} — quick pass, not publication scale",
                opts.shrink
            );
        }
        let workers = opts
            .workers
            .unwrap_or_else(cedar_core::pool::default_workers);
        eprintln!("running measurement campaign (5 apps x 5 configurations, {workers} workers)...");
        let t0 = std::time::Instant::now();
        let suite = SuiteResult::full_campaign(opts);
        eprintln!("campaign done in {:.1}s", t0.elapsed().as_secs_f64());
        suite
    })
}
