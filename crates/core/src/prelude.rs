//! One-import surface for driving experiments.
//!
//! Pulls in the experiment entry points ([`Experiment`], [`SuiteResult`]),
//! the typed configuration surface ([`SimConfig`], [`RunOptions`],
//! [`FaultPlan`] and its [`FaultKind`], [`CacheMode`]), the typed error
//! enum ([`CedarError`]), the workload registry ([`AppSpec`],
//! [`perfect_suite`], [`app_by_name`]), the machine-size enum
//! ([`Configuration`]), and the result types — everything a tool or test
//! needs to set up and run a measurement campaign:
//!
//! ```
//! use cedar_core::prelude::*;
//!
//! let opts = RunOptions::default().with_workers(2);
//! let cfg = SimConfig::cedar(Configuration::P4).with_faults(FaultPlan::canonical_at(1));
//! assert!(!cfg.faults.is_empty());
//! let app = cedar_apps::synthetic::uniform_xdoall(1, 1, 8, 150, 4);
//! let suite = SuiteResult::measure(&[app], &[cfg], &opts);
//! assert_eq!(suite.apps[0].runs.len(), 1);
//! ```
//!
//! Report rendering (tables, figures, golden checks) lives in
//! `cedar-report`; the facade crate's `cedar::prelude` re-exports this
//! prelude together with those entry points.

pub use cedar_apps::{app_by_name, perfect_suite, AppSpec};
pub use cedar_cache::CacheStats;
pub use cedar_faults::{FaultKind, FaultPlan};
pub use cedar_hw::Configuration;
pub use cedar_obs::{CacheMode, CedarError, Counters, RunOptions, RunStats};

pub use crate::cache::CacheSession;
pub use crate::config::SimConfig;
pub use crate::pool::{PoolError, PoolStats};
pub use crate::result::RunResult;
pub use crate::run::Experiment;
pub use crate::suite::{AppResults, SuiteResult, SuiteTelemetry};
