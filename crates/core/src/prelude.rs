//! One-import surface for driving experiments.
//!
//! Pulls in the experiment entry points ([`Experiment`], [`SuiteResult`]),
//! the typed configuration surface ([`SimConfig`], [`RunOptions`],
//! [`SchedKind`], [`TelemetryLevel`], [`FaultPlan`], [`CacheMode`]), the
//! typed error enum ([`CedarError`]), the workload registry
//! ([`AppSpec`], [`perfect_suite`], [`app_by_name`]), the machine-size
//! enum ([`Configuration`]), and the result types — everything a tool or
//! test needs to set up and run a measurement campaign:
//!
//! ```
//! use cedar_core::prelude::*;
//!
//! let opts = RunOptions::default()
//!     .with_scheduler(SchedKind::Heap)
//!     .with_telemetry(TelemetryLevel::Off);
//! let cfg = SimConfig::cedar(Configuration::P4).with_scheduler(opts.scheduler);
//! assert_eq!(cfg.sched, SchedKind::Heap);
//! ```
//!
//! Report rendering (tables, figures, golden checks) lives in
//! `cedar-report`; the facade crate's `cedar::prelude` re-exports this
//! prelude together with those entry points.

pub use cedar_apps::{app_by_name, perfect_suite, AppSpec};
pub use cedar_cache::CacheStats;
pub use cedar_faults::{
    AstBurst, DegradedNetwork, FaultPlan, HelperStall, InterruptStorm, LockInflation, PageFaultWave,
};
pub use cedar_hw::Configuration;
pub use cedar_obs::{CacheMode, CedarError, Counters, RunOptions, RunStats, TelemetryLevel};
pub use cedar_sim::SchedKind;

pub use crate::cache::CacheSession;
pub use crate::config::SimConfig;
pub use crate::pool::{PoolError, PoolStats};
pub use crate::result::RunResult;
pub use crate::run::Experiment;
pub use crate::suite::{AppResults, SuiteResult, SuiteTelemetry};
