//! # cedar-obs — the simulator's own measurement infrastructure
//!
//! The paper instruments Cedar with cedarhpm trigger points, statfx and
//! the Q facility to decompose where a run's time goes. This crate turns
//! the same discipline inward: it is the observability substrate for the
//! *simulator itself*, so a campaign can report where the event loop,
//! event queue and worker pool spend wall-clock time.
//!
//! It has no span facility: the run's wall-clock phases are plain
//! `*_ns` fields of [`RunStats`], timed where they happen. The pieces:
//!
//! * [`Counters`] — monotonic named totals, the run's counter rollup.
//!   Hot loops keep their tallies in plain integer fields and add them
//!   to the rollup once at end of run, so per-event tallies never pay a
//!   map probe.
//! * [`RunOptions`] — the single typed record of how the host runs a
//!   campaign (worker count, shrink factor, smoke mode, bench
//!   iterations, output directory, cache mode). Built programmatically
//!   with builder methods, or once at process startup from the
//!   environment via [`RunOptions::from_env`]. It is one of the workspace's three
//!   sanctioned environment readers; the others are
//!   `cedar_check::CheckOptions::from_env` (`CEDAR_CHECK_REPLAY`) and
//!   the golden-update hook (`UPDATE_GOLDEN`).
//! * [`json`] — a tiny ordered-JSON writer and reader plus the stable
//!   [`fingerprint`](json::fnv1a) hash and [`git_describe`](json::git_describe)
//!   helper used by the run manifest (`results/RUN_manifest.json`) and
//!   the bench regression gate.
//! * [`CedarError`] — the workspace's typed error enum, defined here so
//!   every layer (cache, core, report) shares one fallible surface;
//!   `cedar_core::CedarError` re-exports it as the canonical import
//!   path.

pub mod counters;
pub mod error;
pub mod json;
pub mod options;

pub use counters::{Counters, RunStats};
pub use error::CedarError;
pub use options::{CacheMode, RunOptions};
