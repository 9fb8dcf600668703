//! # cedar-faults — deterministic fault injection
//!
//! The paper's whole contribution is *attributing* completion time to
//! OS, runtime and contention buckets (Table 2, Figures 3–9). The
//! strongest check of the reproduction's attribution logic is to
//! *inject* a known quantity of each overhead class and assert that it
//! surfaces in the right bucket and nowhere else. This crate provides
//! the injection side of that experiment: a typed [`FaultPlan`]
//! describing which paper-meaningful disturbances to inject, and a
//! [`FaultDriver`] that turns the plan into fully deterministic,
//! seed-reproducible occurrence streams.
//!
//! Six fault classes, each targeting one attribution surface:
//!
//! | class | knob | lands in (Table 2 / Fig. 3) |
//! |-------|------|------------------------------|
//! | [`InterruptStorm`] | extra cross-processor interrupts | `Cpi` / Interrupt |
//! | [`AstBurst`] | extra asynchronous-system-trap deliveries | `Ast` / System |
//! | [`PageFaultWave`] | synthetic faults, concurrent/sequential mix | `PgFlt*` / System |
//! | [`LockInflation`] | kernel-lock hold-time multiplier | `CrSect*` (+ emergent `KernelSpin`) |
//! | [`DegradedNetwork`] | switch/module latency multipliers | gmem queueing, no OS bucket |
//! | [`HelperStall`] | helper-task scheduling stalls | CT only, no OS bucket |
//!
//! Determinism discipline: the driver draws every interval and every
//! per-occurrence decision from its own per-`(class, cluster)`
//! `SplitMix64` streams derived from [`FaultPlan::seed`] — never from
//! the machine's master RNG — so an **empty plan is a no-op** (the
//! machine's event stream is byte-identical with and without the faults
//! subsystem wired in), and a non-empty plan reproduces exactly under
//! any suite worker count.
//!
//! Zero dependencies beyond `cedar-sim`, and no `std::env` reads: the
//! plan travels on `SimConfig`/`RunOptions` as a typed value.

pub mod driver;
pub mod plan;

pub use driver::{FaultDriver, FaultKind, WaveShape};
pub use plan::{
    AstBurst, DegradedNetwork, FaultPlan, HelperStall, InterruptStorm, LockInflation, PageFaultWave,
};
