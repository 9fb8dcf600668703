//! The typed run-configuration API.
//!
//! Every knob that used to be a scattered `std::env::var` read —
//! `CEDAR_WORKERS`, `CEDAR_SHRINK`, `BENCH_SMOKE`, `BENCH_JSON_DIR` and
//! `CEDAR_CACHE` — lives in one [`RunOptions`] value.
//! Library code takes `&RunOptions` explicitly; the environment is
//! consulted exactly once, by [`RunOptions::from_env`], at process
//! startup (the campaign binaries do this; tests construct options
//! programmatically).

use std::path::PathBuf;

/// How a campaign uses the content-addressed run cache
/// (`results/cache/`, implemented by the `cedar-cache` crate).
///
/// The cache memoizes *deterministic simulation results*, so using it is
/// a wall-clock-only decision: every mode produces byte-identical
/// measurements, and the mode therefore does **not** participate in
/// [`RunOptions::fingerprint_seed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Never touch the cache. The default: plain runs and tests measure
    /// real simulation.
    #[default]
    Off,
    /// Serve hits from disk, write misses back. The campaign mode.
    ReadWrite,
    /// Serve hits, never write (e.g. CI jobs with a read-only mount).
    ReadOnly,
}

impl CacheMode {
    /// Canonical name, as accepted by `CEDAR_CACHE`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::ReadWrite => "rw",
            CacheMode::ReadOnly => "ro",
        }
    }

    /// Whether this mode ever writes entries. Every mode that opens the
    /// store reads it.
    pub fn writes(self) -> bool {
        matches!(self, CacheMode::ReadWrite)
    }
}

impl std::str::FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(CacheMode::Off),
            "rw" => Ok(CacheMode::ReadWrite),
            "ro" => Ok(CacheMode::ReadOnly),
            other => Err(format!("cache mode must be off|rw|ro, got `{other}`")),
        }
    }
}

/// One campaign's host-level configuration.
///
/// `SimConfig` owns what one *simulated run* varies (processor
/// configuration, seed, tie-break, background load, fault plan); a
/// campaign is a list of them. `RunOptions` owns how the *host process*
/// executes the campaign: how many worker threads fan the grid, whether
/// workloads are shrunk, which corpus the `check` binary runs, where
/// output files land and how the run cache is used.
///
/// # Example
///
/// ```
/// use cedar_obs::RunOptions;
///
/// let opts = RunOptions::default().with_workers(4).with_shrink(16);
/// assert_eq!(opts.workers, Some(4));
/// assert_eq!(opts.shrink, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker-pool width for suite grids (`None` = available
    /// parallelism).
    pub workers: Option<usize>,
    /// Workload shrink divisor (1 = publication scale).
    pub shrink: u32,
    /// Smoke mode: the `check` binary runs its four-case corpus, at
    /// 1/64 scale unless `shrink` is set, instead of the full corpus.
    /// No campaign reads it, so it is excluded from
    /// [`fingerprint_seed`](Self::fingerprint_seed); the `check`
    /// binary's manifest fingerprints the cases it ran instead.
    pub smoke: bool,
    /// Output directory for manifests, CSVs and check reports (`None`
    /// = the workspace-root `results/`).
    pub output_dir: Option<PathBuf>,
    /// How the campaign layer uses the content-addressed run cache.
    /// Wall-clock-only (results are deterministic), so it is excluded
    /// from [`fingerprint_seed`](Self::fingerprint_seed).
    pub cache: CacheMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: None,
            shrink: 1,
            smoke: false,
            output_dir: None,
            cache: CacheMode::default(),
        }
    }
}

impl RunOptions {
    /// Reads the whole configuration from the environment. This is one
    /// of the workspace's three sanctioned environment readers; the
    /// others are `cedar_check::CheckOptions::from_env`
    /// (`CEDAR_CHECK_REPLAY`) and the golden-update hook
    /// (`UPDATE_GOLDEN`).
    ///
    /// | variable        | field         | accepted values          |
    /// |-----------------|---------------|--------------------------|
    /// | `CEDAR_WORKERS` | `workers`     | integer ≥ 1              |
    /// | `CEDAR_SHRINK`  | `shrink`      | integer ≥ 1              |
    /// | `BENCH_SMOKE`   | `smoke`       | `0`, `1`                 |
    /// | `BENCH_JSON_DIR`| `output_dir`  | a directory path         |
    /// | `CEDAR_CACHE`   | `cache`       | `off`, `rw`, `ro`        |
    ///
    /// An unset or empty variable keeps the field's default.
    ///
    /// # Panics
    ///
    /// Panics on a malformed value of any of these variables, naming
    /// the variable and the value, so a typo fails loudly instead of
    /// silently running the wrong configuration.
    pub fn from_env() -> RunOptions {
        Self::from_vars(|name| std::env::var(name).ok()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`from_env`](Self::from_env)'s parse over any variable lookup, so
    /// it can be tested without touching the process environment.
    fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<RunOptions, String> {
        let lookup = &lookup;
        Ok(RunOptions {
            workers: env_value(lookup, "CEDAR_WORKERS", positive)?,
            shrink: env_value(lookup, "CEDAR_SHRINK", positive)?.unwrap_or(1),
            smoke: env_value(lookup, "BENCH_SMOKE", flag)?.unwrap_or(false),
            output_dir: env_value(lookup, "BENCH_JSON_DIR", |v| Ok(PathBuf::from(v)))?,
            cache: env_value(lookup, "CEDAR_CACHE", |v| v.parse())?.unwrap_or_default(),
        })
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

    /// Redirects output files (builder style).
    pub fn with_output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Sets the run-cache mode (builder style).
    pub fn with_cache(mut self, mode: CacheMode) -> Self {
        self.cache = mode;
        self
    }

    /// The stable fingerprint seed of a campaign: every field that
    /// changes *what the campaign simulates or how its results are
    /// produced*, in a fixed textual form. That is the shrink divisor
    /// alone. The worker count, output directory and cache mode change
    /// only the wall clock, and no campaign reads smoke mode, so they
    /// are deliberately excluded: two campaigns differing only in those
    /// produce identical measurements, and their manifests carry the
    /// same fingerprint. The `check` binary runs its own cases, not a
    /// campaign, and its manifest fingerprints those cases.
    pub fn fingerprint_seed(&self) -> String {
        format!("shrink={}", self.shrink)
    }
}

/// Variable `name` through `lookup`, parsed: `None` when it is unset or
/// empty, an error naming the variable when `parse` rejects its value.
fn env_value<T>(
    lookup: &impl Fn(&str) -> Option<String>,
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match lookup(name) {
        Some(v) if !v.is_empty() => parse(&v).map(Some).map_err(|e| format!("{name}: {e}")),
        _ => Ok(None),
    }
}

/// Parses an integer ≥ 1.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| format!("must be an integer ≥ 1, got `{v}`"))
}

/// Parses `0` (off) or `1` (on).
fn flag(v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("must be `0` or `1`, got `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_old_env_defaults() {
        let o = RunOptions::default();
        assert_eq!(o.workers, None);
        assert_eq!(o.shrink, 1);
        assert!(!o.smoke);
        assert_eq!(o.output_dir, None);
    }

    #[test]
    fn builders_are_total() {
        let o = RunOptions::default()
            .with_workers(3)
            .with_shrink(0) // clamped to 1
            .with_output_dir("/tmp/x");
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.shrink, 1);
        assert_eq!(o.output_dir, Some(PathBuf::from("/tmp/x")));
    }

    /// Parses `vars` as the environment, leaving the process's alone.
    fn from_vars(vars: &[(&str, &str)]) -> Result<RunOptions, String> {
        RunOptions::from_vars(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn every_variable_reaches_its_field() {
        let o = from_vars(&[
            ("CEDAR_WORKERS", "8"),
            ("CEDAR_SHRINK", "16"),
            ("BENCH_SMOKE", "1"),
            ("BENCH_JSON_DIR", "/tmp/x"),
            ("CEDAR_CACHE", "ro"),
        ]);
        let mut typed = RunOptions::default()
            .with_workers(8)
            .with_shrink(16)
            .with_output_dir("/tmp/x")
            .with_cache(CacheMode::ReadOnly);
        typed.smoke = true;
        assert_eq!(o, Ok(typed));
        assert_eq!(
            from_vars(&[("BENCH_SMOKE", "0")]),
            Ok(RunOptions::default())
        );
    }

    #[test]
    fn unset_and_empty_variables_keep_the_defaults() {
        assert_eq!(from_vars(&[]), Ok(RunOptions::default()));
        let empty = [
            "CEDAR_WORKERS",
            "CEDAR_SHRINK",
            "BENCH_SMOKE",
            "BENCH_JSON_DIR",
            "CEDAR_CACHE",
        ]
        .map(|name| (name, ""));
        assert_eq!(from_vars(&empty), Ok(RunOptions::default()));
    }

    #[test]
    fn malformed_values_are_errors_naming_the_variable_and_value() {
        for (name, value) in [
            ("CEDAR_WORKERS", "0"),
            ("CEDAR_WORKERS", "eight"),
            ("CEDAR_SHRINK", "x16"),
            ("CEDAR_SHRINK", "0"),
            ("BENCH_SMOKE", "yes"),
            ("CEDAR_CACHE", "sometimes"),
        ] {
            let err = from_vars(&[(name, value)]).expect_err(name);
            assert!(
                err.starts_with(&format!("{name}: ")) && err.contains(&format!("`{value}`")),
                "{name}={value}: {err}"
            );
        }
    }

    #[test]
    fn fingerprint_ignores_wall_clock_only_knobs() {
        let a = RunOptions::default();
        let b = RunOptions {
            smoke: true,
            ..RunOptions::default()
                .with_workers(64)
                .with_output_dir("/elsewhere")
                .with_cache(CacheMode::ReadWrite)
        };
        assert_eq!(a.fingerprint_seed(), b.fingerprint_seed());
        let c = RunOptions::default().with_shrink(16);
        assert_ne!(a.fingerprint_seed(), c.fingerprint_seed());
    }

    #[test]
    fn cache_modes_parse_and_roundtrip() {
        for mode in [CacheMode::Off, CacheMode::ReadWrite, CacheMode::ReadOnly] {
            assert_eq!(mode.as_str().parse::<CacheMode>().unwrap(), mode);
        }
        for alias in [
            "0",
            "1",
            "on",
            "readwrite",
            "readonly",
            "refresh",
            "sometimes",
        ] {
            let err = alias.parse::<CacheMode>().unwrap_err();
            assert!(err.contains("off|rw|ro,"), "{alias}: {err}");
        }
    }

    #[test]
    fn cache_mode_read_write_capabilities() {
        assert!(!CacheMode::Off.writes());
        assert!(CacheMode::ReadWrite.writes());
        assert!(!CacheMode::ReadOnly.writes());
        assert_eq!(CacheMode::default(), CacheMode::Off);
    }
}
