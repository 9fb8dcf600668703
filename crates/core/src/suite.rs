//! Running a measurement campaign: a grid of applications × machine
//! configurations, such as the five Perfect codes on the five Cedar
//! configurations the paper's tables require.
//!
//! A campaign is every `(AppSpec, SimConfig)` cell of that grid. A
//! faulted, reseeded or tie-broken campaign passes its `SimConfig`s with
//! those settings applied. The grid can run sequentially
//! ([`SuiteResult::run_sequential`]) or fanned out over a bounded worker
//! pool ([`SuiteResult::run_parallel`]). Each cell is an isolated
//! deterministic experiment, so the two paths produce identical results
//! — the parallel path only changes wall-clock time, never the
//! measurements.
//!
//! Both runners take the host settings (worker count, run cache) as a
//! [`RunOptions`] the caller built or parsed once from the environment
//! via [`RunOptions::from_env`], never from ambient `std::env` reads.

use cedar_apps::AppSpec;
use cedar_cache::CacheStats;
use cedar_hw::Configuration;
use cedar_obs::{CedarError, RunOptions};

use crate::cache::CacheSession;
use crate::config::SimConfig;
use crate::pool::{self, PoolStats};
use crate::result::RunResult;

/// All configuration runs of one application.
#[derive(Debug)]
pub struct AppResults {
    /// Application name.
    pub app: &'static str,
    /// One result per machine configuration, in the order the campaign
    /// gave them.
    pub runs: Vec<RunResult>,
}

impl AppResults {
    /// The first result on `configuration`.
    pub fn run(&self, configuration: Configuration) -> &RunResult {
        self.runs
            .iter()
            .find(|r| r.configuration == configuration)
            .expect("all configurations were run")
    }

    /// The 1-processor baseline.
    pub fn baseline(&self) -> &RunResult {
        self.run(Configuration::P1)
    }
}

/// Campaign-level self-telemetry: the per-run [`cedar_obs::RunStats`]
/// merged across the whole grid, plus the grid's own wall-clock and (on
/// the parallel path) the worker pool's busy/idle accounting.
#[derive(Debug, Default)]
pub struct SuiteTelemetry {
    /// Counter rollup merged across every run (sums, except `*.peak`
    /// counters which take the maximum).
    pub counters: cedar_obs::Counters,
    /// Summed machine-construction wall-clock across runs, nanoseconds.
    pub setup_ns: u64,
    /// Summed event-loop wall-clock across runs, nanoseconds.
    pub run_ns: u64,
    /// Summed result-breakdown wall-clock across runs, nanoseconds.
    pub breakdown_ns: u64,
    /// Wall-clock of the whole grid, nanoseconds.
    pub wall_ns: u64,
    /// Pool telemetry, when the grid ran on the worker pool.
    pub pool: Option<PoolStats>,
    /// Run-cache traffic (hits/misses/writes/bypasses), when the
    /// campaign ran with a cache mode other than `Off`.
    pub cache: Option<CacheStats>,
}

impl SuiteTelemetry {
    fn from_runs(
        runs: &[RunResult],
        wall_ns: u64,
        pool: Option<PoolStats>,
        cache: Option<CacheStats>,
    ) -> SuiteTelemetry {
        let mut t = SuiteTelemetry {
            wall_ns,
            pool,
            cache,
            ..SuiteTelemetry::default()
        };
        for r in runs {
            t.counters.merge(&r.stats.counters);
            t.setup_ns += r.stats.setup_ns;
            t.run_ns += r.stats.run_ns;
            t.breakdown_ns += r.stats.breakdown_ns;
        }
        t
    }

    /// Total simulator events processed across the grid.
    pub fn events_total(&self) -> u64 {
        self.counters.get("events.total")
    }
}

/// Results of the whole campaign.
#[derive(Debug)]
pub struct SuiteResult {
    /// Per-application results, in suite order.
    pub apps: Vec<AppResults>,
    /// The campaign's own telemetry rollup.
    pub telemetry: SuiteTelemetry,
}

/// The grid's cells: every `(app, config)` pair, apps-major, configs in
/// the order given. Both runner paths share it so the result ordering is
/// identical by construction.
fn grid(apps: &[AppSpec], configs: &[SimConfig]) -> Vec<(AppSpec, SimConfig)> {
    let mut cells = Vec::with_capacity(apps.len() * configs.len());
    for app in apps {
        for cfg in configs {
            cells.push((app.clone(), cfg.clone()));
        }
    }
    cells
}

/// Folds a flat grid of runs (in `grid` order) back into per-app groups.
fn regroup(apps: &[AppSpec], per_app: usize, mut runs: Vec<RunResult>) -> Vec<AppResults> {
    let mut out = Vec::with_capacity(apps.len());
    for app in apps.iter().rev() {
        let rest = runs.split_off(runs.len() - per_app);
        out.push(AppResults {
            app: app.name,
            runs: rest,
        });
    }
    out.reverse();
    out
}

impl SuiteResult {
    /// Runs `apps` on every machine in `configs`, one experiment at a
    /// time on the calling thread. This is the reference path the
    /// parallel runner is checked against. Fails with
    /// [`CedarError::CacheIo`] when the configured cache root is
    /// unusable.
    pub fn run_sequential(
        apps: &[AppSpec],
        configs: &[SimConfig],
        opts: &RunOptions,
    ) -> Result<SuiteResult, CedarError> {
        let wall = std::time::Instant::now();
        let session = CacheSession::new(opts)?;
        let runs: Vec<_> = grid(apps, configs)
            .into_iter()
            .map(|(app, cfg)| session.execute(&app, cfg))
            .collect();
        let telemetry = SuiteTelemetry::from_runs(
            &runs,
            wall.elapsed().as_nanos() as u64,
            None,
            session.stats(),
        );
        Ok(SuiteResult {
            apps: regroup(apps, configs.len(), runs),
            telemetry,
        })
    }

    /// Runs the same grid fanned out over the worker pool
    /// (`opts.workers`; `None` → [`pool::default_workers`]). Results
    /// come back in the same deterministic order as
    /// [`SuiteResult::run_sequential`]; a panicking experiment surfaces
    /// as [`CedarError::Internal`] instead of aborting the process or
    /// hanging the pool.
    pub fn run_parallel(
        apps: &[AppSpec],
        configs: &[SimConfig],
        opts: &RunOptions,
    ) -> Result<SuiteResult, CedarError> {
        let wall = std::time::Instant::now();
        // One session serves all workers: pool jobs borrow it (the pool
        // runs on scoped threads) and its counters are atomic.
        let session = CacheSession::new(opts)?;
        let jobs: Vec<_> = grid(apps, configs)
            .into_iter()
            .map(|(app, cfg)| {
                let session = &session;
                move || session.execute(&app, cfg)
            })
            .collect();
        let workers = opts.workers.unwrap_or_else(pool::default_workers);
        let (runs, pool_stats) =
            pool::run_jobs_timed(workers, jobs).map_err(|e| CedarError::Internal(e.to_string()))?;
        let telemetry = SuiteTelemetry::from_runs(
            &runs,
            wall.elapsed().as_nanos() as u64,
            Some(pool_stats),
            session.stats(),
        );
        Ok(SuiteResult {
            apps: regroup(apps, configs.len(), runs),
            telemetry,
        })
    }

    /// Runs `apps` on every machine in `configs` across the worker pool
    /// under `opts`, panicking on any [`CedarError`]. The convenience
    /// entry point for tools and tests.
    pub fn measure(apps: &[AppSpec], configs: &[SimConfig], opts: &RunOptions) -> SuiteResult {
        SuiteResult::run_parallel(apps, configs, opts).expect("campaign failed")
    }

    /// Runs the full campaign under `opts`: the five Perfect
    /// applications, shrunk by `opts.shrink`, on the paper's Cedar at
    /// all five configurations.
    pub fn full_campaign(opts: &RunOptions) -> SuiteResult {
        let apps: Vec<_> = cedar_apps::perfect_suite()
            .into_iter()
            .map(|a| a.shrunk(opts.shrink))
            .collect();
        SuiteResult::measure(&apps, &Configuration::ALL.map(SimConfig::cedar), opts)
    }

    /// Looks up one application's results by name.
    pub fn app(&self, name: &str) -> &AppResults {
        self.apps
            .iter()
            .find(|a| a.app.eq_ignore_ascii_case(name))
            .expect("application was measured")
    }
}
