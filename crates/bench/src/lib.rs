//! # cedar-bench — the benchmark harness
//!
//! The campaign binaries:
//!
//! | binary   | regenerates                                             |
//! |----------|---------------------------------------------------------|
//! | `all`    | the full campaign: Tables 1–4, Figures 3 and 5–9, CSVs  |
//! | `compare`| the published Table 1/3/4 numbers next to the measured  |
//! | `probe`  | calibration view of one application                     |
//! | `ablation` | xdoall-vs-sdoall rewrite ablation (§6 suggestion)     |
//!
//! The Pfister & Norton hot-spot ablation (§6 discussion) is an example,
//! not a binary: `cargo run --release --example hotspot`.
//!
//! All binaries are configured by one typed [`cedar_obs::RunOptions`]
//! value, parsed **once** from the `CEDAR_*`/`BENCH_*` environment by
//! [`run_options`] and passed down explicitly — no library code below
//! this point reads `std::env`. The knobs: `CEDAR_SHRINK=<n>` divides
//! every time-step count by `n` for a quick (non-publication) pass,
//! `CEDAR_WORKERS=<n>` bounds the worker pool, `CEDAR_SCHED` picks the
//! pending-event-set implementation, and `CEDAR_OBS` sets the telemetry
//! level (`off`/`summary`/`full`).
//!
//! The one bench target, `benches/scheduler.rs` (the entries
//! `scripts/bench_check.sh` gates), runs on the in-repo [`harness`]
//! (`cargo bench --offline`); `BENCH_SMOKE=1` reduces it to one
//! iteration for CI. End-to-end and per-layer timing is the separate
//! `perfbench/` package. Campaign runs write a run manifest (and, at
//! `CEDAR_OBS=full`, a JSONL telemetry stream) via [`manifest`].

pub mod gate;
pub mod harness;
pub mod manifest;

use std::sync::OnceLock;

use cedar_apps::AppSpec;
use cedar_core::suite::SuiteResult;
use cedar_hw::Configuration;
use cedar_obs::RunOptions;

/// The process-wide run options, parsed from the environment exactly
/// once. This is the single place the bench binaries touch `CEDAR_*` /
/// `BENCH_*`; everything downstream takes the typed value.
pub fn run_options() -> &'static RunOptions {
    static OPTS: OnceLock<RunOptions> = OnceLock::new();
    OPTS.get_or_init(RunOptions::from_env)
}

/// [`run_options`] with the run cache structurally forced off. The
/// in-repo benchmarks (and through them the regression gate in
/// `scripts/bench_check.sh`) measure **real simulation time**; replaying
/// memoized results would make every number a lie, so the benches use
/// this accessor and no `CEDAR_CACHE` setting can reach them.
pub fn bench_options() -> &'static RunOptions {
    static OPTS: OnceLock<RunOptions> = OnceLock::new();
    OPTS.get_or_init(|| run_options().clone().with_cache(cedar_obs::CacheMode::Off))
}

/// The Perfect suite at the scale `opts` asks for.
pub(crate) fn suite_apps(opts: &RunOptions) -> Vec<AppSpec> {
    let f = opts.shrink;
    cedar_apps::perfect_suite()
        .into_iter()
        .map(|a| if f > 1 { a.shrunk(f) } else { a })
        .collect()
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
        eprintln!(
            "running measurement campaign (5 apps x 5 configurations, {workers} workers, {} scheduler)...",
            opts.scheduler.as_str()
        );
        let t0 = std::time::Instant::now();
        let suite = SuiteResult::run_parallel(&suite_apps(opts), &Configuration::ALL, opts)
            .expect("campaign experiment panicked");
        eprintln!("campaign done in {:.1}s", t0.elapsed().as_secs_f64());
        suite
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_apps_are_the_perfect_five() {
        let names: Vec<_> = suite_apps(&RunOptions::default())
            .iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(names, vec!["FLO52", "ARC2D", "MDG", "OCEAN", "ADM"]);
    }

    #[test]
    fn shrunk_suite_keeps_names() {
        let opts = RunOptions::default().with_shrink(16);
        let names: Vec<_> = suite_apps(&opts).iter().map(|a| a.name).collect();
        assert_eq!(names, vec!["FLO52", "ARC2D", "MDG", "OCEAN", "ADM"]);
    }
}
