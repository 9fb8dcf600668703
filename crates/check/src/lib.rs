//! Model-checker-style validation of the reproduction's measurement
//! claims.
//!
//! The workspace makes strong determinism promises: the same campaign
//! measures the same numbers regardless of the worker pool or the run
//! cache, and fault injection lands each
//! disturbance in exactly the Table-2 bucket its class targets. This
//! crate *checks* those promises the way a model checker would — by
//! re-executing each campaign case under systematically permuted
//! simultaneous-event orders ([`cedar_sim::TieBreak`]: FIFO, LIFO, and
//! a seeded shuffle) and across every execution path (sequential vs
//! pooled runner, cold vs warm cache), then
//! asserting a registry of typed invariant oracles ([`OracleKind`]) over
//! the results.
//!
//! What the tie-break exploration established empirically (and the
//! oracles therefore encode): for a *fixed* policy every execution path
//! is byte-identical, and single-cluster (P1) runs are byte-identical
//! under *every* policy — but on parallel configurations the
//! simultaneous-event order is physically meaningful (port FCFS
//! arbitration, lock grant order), so completion time legitimately
//! moves by a few percent between policies. The tie-stability oracle
//! hence asserts a *stable core* (coverage, conservation,
//! configuration identity) plus a bounded completion-time band rather
//! than bit-equality; the determinism and parity oracles stay exact.
//!
//! The laws live in [`law`], each defined once: [`conservation`], run
//! equality ([`same_run`]: every line of the run record but host time,
//! measurements and `queue.*` work counts alike) and its campaign form
//! ([`same_campaign`]), and fault attribution's organic-growth budget
//! ([`growth_budget`]). The oracles and the workspace's tests call
//! them, so a law is as strict in a test as in the checker.
//!
//! On violation, a delta-debugging shrinker ([`shrink()`]) minimizes the
//! `(application, configuration, fault level, workload scale,
//! perturbation seed)` tuple to the smallest case that still violates
//! the same oracle, and the reproducer is written as ordered JSON to
//! `results/CHECK_violations.json` — replayable via the
//! `CEDAR_CHECK_REPLAY` environment knob ([`CheckOptions`]).

pub mod case;
pub mod fingerprint;
pub mod harness;
pub mod law;
pub mod options;
pub mod oracle;
pub mod report;
pub mod shrink;

pub use case::{cases_fingerprint_seed, corpus, smoke_corpus, CheckCase};
pub use fingerprint::fingerprint;
pub use harness::{CheckConfig, Harness, Sabotage};
pub use law::{conservation, growth_budget, same_campaign, same_run};
pub use options::CheckOptions;
pub use oracle::{OracleKind, Violation};
pub use report::CheckReport;
pub use shrink::{shrink, ShrinkOutcome};
