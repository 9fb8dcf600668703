//! # cedar-core — the reproduction's measurement methodology
//!
//! This crate assembles the substrates — [`cedar_hw`] (clusters, network,
//! global memory), [`cedar_xylem`] (operating system), [`cedar_rtl`]
//! (runtime library), [`cedar_trace`] (cedarhpm / statfx / Q monitors) —
//! into a complete simulated Cedar machine, runs the [`cedar_apps`]
//! workload models on it, and applies the paper's methodology:
//!
//! * **completion-time breakdown** into user / system / interrupt / spin
//!   (Figure 3) with per-activity OS detail (Table 2);
//! * **user-time breakdown** into the Figure 4 taxonomy (Figures 5–9);
//! * **average parallel-loop concurrency** from
//!   `(1 − pf) + pf·par_concurr = avg_concurr` (Table 3,
//!   [`methodology::conc`]);
//! * **global-memory and network contention overhead**
//!   `Ov_cont = (T_p_actual − T_p_ideal)/CT` (Table 4,
//!   [`methodology::contention`]).
//!
//! ## Quickstart
//!
//! ```
//! use cedar_core::prelude::*;
//! use cedar_apps::synthetic;
//!
//! let app = synthetic::uniform_sdoall(2, 2, 4, 8, 200, 8);
//! let cfg = SimConfig::cedar(Configuration::P8).with_scheduler(SchedKind::Calendar);
//! let result = Experiment::new(app, cfg).run();
//! assert!(result.completion_time.0 > 0);
//! assert!(result.stats.counters.get("events.total") > 0);
//! ```
//!
//! Campaign-level runs take a typed [`RunOptions`] (build one, or parse
//! the `CEDAR_*` environment once via [`RunOptions::from_env`]):
//!
//! ```no_run
//! use cedar_core::prelude::*;
//!
//! let opts = RunOptions::default().with_scheduler(SchedKind::Heap);
//! let suite = SuiteResult::full_campaign(&opts);
//! assert_eq!(suite.apps.len(), 5);
//! ```

pub mod cache;
pub mod config;
pub mod events;
pub(crate) mod layout;
pub mod machine;
pub mod methodology;
pub mod metrics;
pub mod pool;
pub mod prelude;
pub(crate) mod program;
pub mod result;
pub mod run;
pub mod suite;

pub use cache::CacheSession;
pub use cedar_cache::CacheStats;
pub use cedar_obs::{CacheMode, CedarError, RunOptions, TelemetryLevel};
pub use config::SimConfig;
pub use pool::{PoolError, PoolStats};
pub use result::RunResult;
pub use run::Experiment;
pub use suite::{AppResults, SuiteResult, SuiteTelemetry};
