//! # cedar-obs — the simulator's own measurement infrastructure
//!
//! The paper instruments Cedar with cedarhpm trigger points, statfx and
//! the Q facility to decompose where a run's time goes. This crate turns
//! the same discipline inward: it is the observability substrate for the
//! *simulator itself*, so a campaign can report where the event loop,
//! scheduler, worker pool and outbox spend wall-clock time.
//!
//! Three pieces:
//!
//! * [`Recorder`] — a lightweight span/counter facility. Spans are
//!   enter/exit wall-clock intervals ([`Recorder::enter`] /
//!   [`Recorder::exit`], or the closure form [`Recorder::time`]);
//!   counters are monotonic named totals ([`Counters`]). A disabled
//!   recorder is a no-op: `enter` never reads the clock and every other
//!   call returns immediately, so instrumented code pays one branch.
//!   For per-event tallies even that is too much; hot loops batch into
//!   a flat [`ScratchCounters`] block and flush it into the rollup at a
//!   phase boundary.
//! * [`RunOptions`] — the single typed run-configuration record
//!   (scheduler kind, worker count, shrink factor, smoke mode,
//!   telemetry level, output directory). Built programmatically with
//!   builder methods, or once at process startup from the environment
//!   via [`RunOptions::from_env`] — the only place in the workspace
//!   (besides the golden-update hook) that reads configuration
//!   environment variables.
//! * [`json`] — a tiny ordered-JSON writer and reader plus the stable
//!   [`fingerprint`](json::fnv1a) hash and [`git_describe`](json::git_describe)
//!   helper used by the run manifest (`results/RUN_manifest.json`) and
//!   the bench regression gate.
//! * [`CedarError`] — the workspace's typed error enum, defined here so
//!   every layer (cache, core, report) shares one fallible surface;
//!   `cedar_core::CedarError` re-exports it as the canonical import
//!   path.

pub mod error;
pub mod json;
pub mod options;
pub mod recorder;
pub mod scratch;

pub use error::CedarError;
pub use options::{CacheMode, RunOptions, TelemetryLevel};
pub use recorder::{Counters, Recorder, RunStats, SpanStat, SpanToken};
pub use scratch::ScratchCounters;
