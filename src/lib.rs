//! Facade crate re-exporting the Cedar reproduction workspace.
//!
//! The workspace reproduces the ISCA'94 study *Measurement-Based
//! Characterization of Global Memory and Network Contention, Operating
//! System and Parallelization Overheads* (Natarajan, Sharma, Iyer) on a
//! simulated Cedar shared-memory multiprocessor.
//!
//! Most users want [`prelude`] (one import for the whole experiment
//! surface), [`core`] (experiment driver and methodology), [`apps`] (the
//! five Perfect Benchmark workload models) and [`report`] (table/figure
//! rendering). The remaining crates are the simulated substrates:
//! [`hw`] (network + global memory + clusters), [`xylem`] (operating
//! system), [`rtl`] (Cedar Fortran runtime), [`trace`] (cedarhpm /
//! statfx / Q measurement facilities), [`faults`] (deterministic
//! fault-injection campaigns), [`obs`] (the reproduction's own
//! telemetry: `RunOptions`, counters, the run-manifest JSON writer) and
//! [`cache`] (the content-addressed store of completed runs behind
//! `CEDAR_CACHE`), all built on the [`sim`] discrete-event kernel.
//! [`check`] is the model-checker-style harness that re-executes
//! campaigns under permuted event orders and asserts the reproduction's
//! invariant-oracle registry.

pub use cedar_apps as apps;
pub use cedar_cache as cache;
pub use cedar_check as check;
pub use cedar_core as core;
pub use cedar_faults as faults;
pub use cedar_hw as hw;
pub use cedar_obs as obs;
pub use cedar_report as report;
pub use cedar_rtl as rtl;
pub use cedar_sim as sim;
pub use cedar_trace as trace;
pub use cedar_xylem as xylem;

/// Everything needed to configure, run and report a measurement
/// campaign: [`cedar_core::prelude`] plus the report entry points.
///
/// ```
/// use cedar::prelude::*;
///
/// let opts = RunOptions::default();
/// let app = cedar::apps::synthetic::uniform_xdoall(1, 2, 8, 150, 4);
/// let p1 = SimConfig::cedar(Configuration::P1);
/// let suite = SuiteResult::run_sequential(&[app], &[p1], &opts).unwrap();
/// assert!(tables::table1(&suite).contains("1 proc"));
/// ```
pub mod prelude {
    pub use cedar_core::prelude::*;
    pub use cedar_report::{csv, figures, golden, tables};
}
