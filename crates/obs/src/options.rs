//! The typed run-configuration API.
//!
//! Every knob that used to be a scattered `std::env::var` read —
//! `CEDAR_SCHED`, `CEDAR_WORKERS`, `CEDAR_SHRINK`, `BENCH_SMOKE`,
//! `BENCH_ITERS`, `BENCH_JSON_DIR`, `CEDAR_CACHE`, plus the
//! `CEDAR_OBS` telemetry level — lives in one [`RunOptions`] value.
//! Library code takes `&RunOptions` explicitly; the environment is
//! consulted exactly once, by [`RunOptions::from_env`], at process
//! startup (tools and the bench harness do this; tests construct
//! options programmatically).

use std::path::PathBuf;

use cedar_faults::FaultPlan;
use cedar_sim::{SchedKind, TieBreak};

/// How much self-telemetry a run emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryLevel {
    /// Collect nothing beyond the always-on cheap counters; write no
    /// telemetry files.
    Off,
    /// Write the run manifest (`RUN_manifest.json`) with the span and
    /// counter rollup. The default.
    #[default]
    Summary,
    /// Additionally stream one JSONL record per experiment
    /// (`RUN_telemetry.jsonl`) for offline analysis.
    Full,
}

impl TelemetryLevel {
    /// Canonical lower-case name, as accepted by `CEDAR_OBS`.
    pub fn as_str(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Summary => "summary",
            TelemetryLevel::Full => "full",
        }
    }
}

impl std::str::FromStr for TelemetryLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" | "0" => Ok(TelemetryLevel::Off),
            "summary" | "1" | "" => Ok(TelemetryLevel::Summary),
            "full" | "2" => Ok(TelemetryLevel::Full),
            other => Err(format!(
                "telemetry level must be off|summary|full, got `{other}`"
            )),
        }
    }
}

/// How a campaign uses the content-addressed run cache
/// (`results/cache/`, implemented by the `cedar-cache` crate).
///
/// The cache memoizes *deterministic simulation results*, so using it is
/// a wall-clock-only decision: every mode produces byte-identical
/// measurements, and the mode therefore does **not** participate in
/// [`RunOptions::fingerprint_seed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Never touch the cache. The default: plain runs, benchmarks and
    /// the bench-regression gate all measure real simulation.
    #[default]
    Off,
    /// Serve hits from disk, write misses back. The campaign mode.
    ReadWrite,
    /// Serve hits, never write (e.g. CI jobs with a read-only mount).
    ReadOnly,
    /// Recompute everything and overwrite entries — a forced
    /// repopulation after a suspected stale cache.
    Refresh,
}

impl CacheMode {
    /// Canonical name, as accepted by `CEDAR_CACHE`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::ReadWrite => "rw",
            CacheMode::ReadOnly => "ro",
            CacheMode::Refresh => "refresh",
        }
    }

    /// Whether this mode ever reads entries.
    pub fn reads(self) -> bool {
        matches!(self, CacheMode::ReadWrite | CacheMode::ReadOnly)
    }

    /// Whether this mode ever writes entries.
    pub fn writes(self) -> bool {
        matches!(self, CacheMode::ReadWrite | CacheMode::Refresh)
    }
}

impl std::str::FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" | "0" => Ok(CacheMode::Off),
            "rw" | "readwrite" | "on" | "1" => Ok(CacheMode::ReadWrite),
            "ro" | "readonly" => Ok(CacheMode::ReadOnly),
            "refresh" => Ok(CacheMode::Refresh),
            other => Err(format!(
                "cache mode must be off|rw|ro|refresh, got `{other}`"
            )),
        }
    }
}

/// One run's complete tool-level configuration.
///
/// `SimConfig` still owns the *simulated machine* (hardware, OS and RTL
/// cost models, seed); `RunOptions` owns how the *host process* executes
/// the campaign: which event scheduler backs the queue, how many worker
/// threads fan the grid, whether workloads are shrunk, how benchmarks
/// iterate, how much telemetry to emit, and where output files land.
///
/// # Example
///
/// ```
/// use cedar_obs::{RunOptions, TelemetryLevel};
/// use cedar_sim::SchedKind;
///
/// let opts = RunOptions::default()
///     .with_scheduler(SchedKind::Heap)
///     .with_workers(4)
///     .with_shrink(16)
///     .with_telemetry(TelemetryLevel::Full);
/// assert_eq!(opts.scheduler, SchedKind::Heap);
/// assert_eq!(opts.workers, Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Pending-event-set implementation for every experiment.
    pub scheduler: SchedKind,
    /// Simultaneous-event ordering policy for every experiment.
    /// Measurements must not depend on it (a claim `cedar-check`
    /// verifies by perturbation); like the fault plan it is typed only
    /// — no environment variable sets it.
    pub tiebreak: TieBreak,
    /// Worker-pool width for suite grids (`None` = available
    /// parallelism).
    pub workers: Option<usize>,
    /// Workload shrink divisor (1 = publication scale).
    pub shrink: u32,
    /// Benchmark smoke mode: one iteration, no warmup.
    pub smoke: bool,
    /// Benchmark timed-iteration override (`None` = harness default).
    pub bench_iters: Option<u32>,
    /// Self-telemetry level.
    pub telemetry: TelemetryLevel,
    /// Output directory for manifests, bench JSON and telemetry streams
    /// (`None` = the workspace-root `results/`).
    pub output_dir: Option<PathBuf>,
    /// Fault-injection campaign applied to every experiment (the empty
    /// default injects nothing and leaves results byte-identical). A
    /// deliberate exception to the host-vs-machine split: the plan
    /// *does* change what is simulated, so it participates in
    /// [`fingerprint_seed`](Self::fingerprint_seed), but it is campaign
    /// tooling (sweeps, attribution tests) rather than a property of the
    /// modelled Cedar, so it travels with the run options and is applied
    /// to each cell's `SimConfig` by the suite runners. Typed only — no
    /// environment variable sets it.
    pub faults: FaultPlan,
    /// How the campaign layer uses the content-addressed run cache.
    /// Wall-clock-only (results are deterministic), so it is excluded
    /// from [`fingerprint_seed`](Self::fingerprint_seed).
    pub cache: CacheMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scheduler: SchedKind::default(),
            tiebreak: TieBreak::default(),
            workers: None,
            shrink: 1,
            smoke: false,
            bench_iters: None,
            telemetry: TelemetryLevel::default(),
            output_dir: None,
            faults: FaultPlan::default(),
            cache: CacheMode::default(),
        }
    }
}

impl RunOptions {
    /// Reads the whole configuration from the environment. This is the
    /// single sanctioned configuration env-read in the workspace (the
    /// golden-update hook `UPDATE_GOLDEN` is the other).
    ///
    /// | variable        | field         | accepted values              |
    /// |-----------------|---------------|------------------------------|
    /// | `CEDAR_SCHED`   | `scheduler`   | `heap`, `calendar` (default) |
    /// | `CEDAR_WORKERS` | `workers`     | integer ≥ 1                  |
    /// | `CEDAR_SHRINK`  | `shrink`      | integer ≥ 1                  |
    /// | `CEDAR_OBS`     | `telemetry`   | `off`, `summary`, `full`     |
    /// | `BENCH_SMOKE`   | `smoke`       | `1`                          |
    /// | `BENCH_ITERS`   | `bench_iters` | integer ≥ 1                  |
    /// | `BENCH_JSON_DIR`| `output_dir`  | a directory path             |
    /// | `CEDAR_CACHE`   | `cache`       | `off`, `rw`, `ro`, `refresh` |
    ///
    /// # Panics
    ///
    /// Panics on a malformed `CEDAR_SCHED`, `CEDAR_OBS` or
    /// `CEDAR_CACHE`, so a typo fails loudly instead of silently
    /// running the wrong configuration.
    pub fn from_env() -> RunOptions {
        let var = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
        RunOptions {
            scheduler: var("CEDAR_SCHED")
                .map(|v| v.parse().unwrap_or_else(|e| panic!("CEDAR_SCHED: {e}")))
                .unwrap_or_default(),
            tiebreak: TieBreak::default(),
            workers: var("CEDAR_WORKERS")
                .and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n >= 1),
            shrink: var("CEDAR_SHRINK")
                .and_then(|v| v.parse().ok())
                .filter(|&n: &u32| n >= 1)
                .unwrap_or(1),
            smoke: var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false),
            bench_iters: var("BENCH_ITERS").and_then(|v| v.parse().ok()),
            telemetry: var("CEDAR_OBS")
                .map(|v| v.parse().unwrap_or_else(|e| panic!("CEDAR_OBS: {e}")))
                .unwrap_or_default(),
            output_dir: var("BENCH_JSON_DIR").map(PathBuf::from),
            faults: FaultPlan::default(),
            cache: var("CEDAR_CACHE")
                .map(|v| v.parse().unwrap_or_else(|e| panic!("CEDAR_CACHE: {e}")))
                .unwrap_or_default(),
        }
    }

    /// Overrides the event scheduler (builder style).
    pub fn with_scheduler(mut self, kind: SchedKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Overrides the simultaneous-event ordering policy (builder
    /// style). `TieBreak::Fifo` restores the default order.
    pub fn with_tiebreak(mut self, tiebreak: TieBreak) -> Self {
        self.tiebreak = tiebreak;
        self
    }

    /// Bounds the suite worker pool (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the workload shrink divisor (builder style).
    pub fn with_shrink(mut self, shrink: u32) -> Self {
        self.shrink = shrink.max(1);
        self
    }

    /// Sets the telemetry level (builder style).
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }

    /// Redirects output files (builder style).
    pub fn with_output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Applies a fault-injection campaign to every experiment (builder
    /// style). `FaultPlan::default()` restores the unperturbed run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the run-cache mode (builder style).
    pub fn with_cache(mut self, mode: CacheMode) -> Self {
        self.cache = mode;
        self
    }

    /// The stable fingerprint seed: every field that changes *what is
    /// simulated or how results are produced*, in a fixed textual form.
    /// Wall-clock-only knobs (worker count, bench iterations, output
    /// directory, telemetry level, cache mode) are deliberately excluded
    /// — two runs differing only in those produce identical
    /// measurements, and their manifests carry the same fingerprint.
    pub fn fingerprint_seed(&self) -> String {
        format!(
            "sched={};tie={};shrink={};smoke={};faults={}",
            self.scheduler.as_str(),
            self.tiebreak,
            self.shrink,
            self.smoke,
            self.faults.fingerprint()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_old_env_defaults() {
        let o = RunOptions::default();
        assert_eq!(o.scheduler, SchedKind::Calendar);
        assert_eq!(o.workers, None);
        assert_eq!(o.shrink, 1);
        assert!(!o.smoke);
        assert_eq!(o.telemetry, TelemetryLevel::Summary);
        assert_eq!(o.output_dir, None);
    }

    #[test]
    fn builders_are_total() {
        let o = RunOptions::default()
            .with_scheduler(SchedKind::Heap)
            .with_workers(3)
            .with_shrink(0) // clamped to 1
            .with_telemetry(TelemetryLevel::Off)
            .with_output_dir("/tmp/x");
        assert_eq!(o.scheduler, SchedKind::Heap);
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.shrink, 1);
        assert_eq!(o.telemetry, TelemetryLevel::Off);
        assert_eq!(o.output_dir, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn telemetry_levels_parse_and_roundtrip() {
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Summary,
            TelemetryLevel::Full,
        ] {
            assert_eq!(level.as_str().parse::<TelemetryLevel>().unwrap(), level);
        }
        assert!("verbose".parse::<TelemetryLevel>().is_err());
    }

    #[test]
    fn fault_plan_changes_the_fingerprint() {
        let a = RunOptions::default();
        assert!(a.faults.is_empty());
        assert!(a.fingerprint_seed().ends_with("faults=none"));
        let b = RunOptions::default().with_faults(FaultPlan::canonical());
        assert_ne!(a.fingerprint_seed(), b.fingerprint_seed());
    }

    #[test]
    fn fingerprint_ignores_wall_clock_only_knobs() {
        let a = RunOptions::default();
        let b = RunOptions::default()
            .with_workers(64)
            .with_telemetry(TelemetryLevel::Full)
            .with_output_dir("/elsewhere")
            .with_cache(CacheMode::ReadWrite);
        assert_eq!(a.fingerprint_seed(), b.fingerprint_seed());
        let c = RunOptions::default().with_scheduler(SchedKind::Heap);
        assert_ne!(a.fingerprint_seed(), c.fingerprint_seed());
    }

    #[test]
    fn tiebreak_is_typed_only_and_fingerprinted() {
        let a = RunOptions::default();
        assert_eq!(a.tiebreak, TieBreak::Fifo);
        // Like the scheduler, the policy names *how the run was
        // produced*, so it participates in the manifest fingerprint
        // even though measurements are invariant to it.
        let b = RunOptions::default().with_tiebreak(TieBreak::Shuffle(7));
        assert_ne!(a.fingerprint_seed(), b.fingerprint_seed());
        assert!(b.fingerprint_seed().contains("tie=shuffle:0x7"));
    }

    #[test]
    fn cache_modes_parse_and_roundtrip() {
        for mode in [
            CacheMode::Off,
            CacheMode::ReadWrite,
            CacheMode::ReadOnly,
            CacheMode::Refresh,
        ] {
            assert_eq!(mode.as_str().parse::<CacheMode>().unwrap(), mode);
        }
        assert_eq!("on".parse::<CacheMode>().unwrap(), CacheMode::ReadWrite);
        assert!("sometimes".parse::<CacheMode>().is_err());
    }

    #[test]
    fn cache_mode_read_write_capabilities() {
        assert!(!CacheMode::Off.reads() && !CacheMode::Off.writes());
        assert!(CacheMode::ReadWrite.reads() && CacheMode::ReadWrite.writes());
        assert!(CacheMode::ReadOnly.reads() && !CacheMode::ReadOnly.writes());
        assert!(!CacheMode::Refresh.reads() && CacheMode::Refresh.writes());
        assert_eq!(CacheMode::default(), CacheMode::Off);
    }
}
