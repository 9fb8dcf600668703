//! # cedar-report — rendering the paper's tables and figures
//!
//! Formatting of [`cedar_core`] measurement campaigns into the exact
//! table and figure layouts of the paper:
//!
//! * [`tables::table1`] — completion times, speedups and average
//!   concurrency (Table 1);
//! * [`figures::figure3`] — completion-time breakdown into
//!   user/system/interrupt/spin per configuration (Figure 3 a–f);
//! * [`tables::table2`] — detailed OS-activity overheads on the
//!   4-cluster Cedar (Table 2);
//! * [`figures::figures5to9`] — per-task user-time breakdowns
//!   (Figures 5–9);
//! * [`tables::table3`] — average parallel-loop concurrency (Table 3);
//! * [`tables::table4`] — global-memory and network contention overhead
//!   (Table 4).
//!
//! A crate-private aligned-text table backs every rendering, and
//! [`csv`] provides machine-readable output for downstream plotting.
//! [`golden`] locks the rendered artifacts down with checked-in text
//! snapshots (`UPDATE_GOLDEN=1` re-records them).

pub mod csv;
pub mod figures;
pub mod golden;
pub mod paper;
mod table;
pub mod tables;

pub use golden::GoldenStatus;
