//! # cedar-faults — deterministic fault injection
//!
//! The paper's whole contribution is *attributing* completion time to
//! OS, runtime and contention buckets (Table 2, Figures 3–9). The
//! strongest check of the reproduction's attribution logic is to
//! *inject* a known quantity of each overhead class and assert that it
//! surfaces in the right bucket and nowhere else. This crate provides
//! the injection side of that experiment: a typed [`FaultPlan`]
//! describing which paper-meaningful disturbances to inject, as
//! [`FaultKind`]s and their constants. `cedar-core`'s machine fires the
//! timed classes from its timer table, which documents how their
//! occurrence streams stay deterministic.
//!
//! A plan is two values: an intensity level (0 injects nothing) and
//! which classes are armed, all six or exactly one. Each class's
//! level-1 intensity is a documented constant; level `n` divides every
//! timed interval by `n` (never below one cycle) and multiplies the
//! lock and network percentages by `n`:
//!
//! | class ([`FaultKind`]) | level-1 intensity, per cluster | lands in (Table 2 / Fig. 3) |
//! |-------|------|------------------------------|
//! | `InterruptStorm` | [`STORM_BURST`] = 3 CPIs every 40,000 cycles | `Cpi` / Interrupt |
//! | `AstBurst` | [`AST_BURST_SIZE`] = 4 ASTs of [`AST_BURST_COST`] = 150 cycles every 60,000 cycles | `Ast` / System |
//! | `PageFaultWave` | [`WAVE_FAULTS`] = 6 faults, each concurrent with probability [`WAVE_CONCURRENT_PCT`] = 50%, costing [`WAVE_SEQ_COST`] = 700 or [`WAVE_CONC_COST`] = 1,100 cycles, every 50,000 cycles | `PgFlt*` / System |
//! | `HelperStall` | a [`STALL_CYCLES`] = 800-cycle freeze of a helper's lead CE every 45,000 cycles | CT only, no OS bucket |
//! | `LockInflation` | every kernel-lock hold 150% longer | `CrSect*` (+ emergent `KernelSpin`) |
//! | `DegradedNetwork` | switch and module latencies 50% longer | gmem queueing, no OS bucket |
//!
//! Zero dependencies beyond `cedar-sim`, and no `std::env` reads: the
//! plan travels on `SimConfig` as a typed value.

pub mod plan;

pub use plan::{
    FaultKind, FaultPlan, AST_BURST_COST, AST_BURST_SIZE, STALL_CYCLES, STORM_BURST,
    WAVE_CONCURRENT_PCT, WAVE_CONC_COST, WAVE_FAULTS, WAVE_SEQ_COST,
};
