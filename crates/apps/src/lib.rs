//! # cedar-apps — workload models of the Perfect Benchmark applications
//!
//! The paper measures five "representative compute-intensive, scientific
//! applications from the Perfect Benchmark Suite" \[12\], compiled by the
//! Cedar Fortran parallelizer \[13\]: **FLO52**, **ARC2D**, **MDG**,
//! **OCEAN** and **ADM** (§2). We do not have the Fortran sources, the
//! KAP-parallelized loop nests, or a machine to run them on — so each
//! application is modelled as the *loop structure* the compiler produced:
//! a sequence of serial sections, main-cluster-only loops, hierarchical
//! SDOALL/CDOALL loops and flat XDOALL loops, with per-iteration compute
//! cost and strided global-memory vector traffic.
//!
//! Three structural facts from the paper anchor each model:
//!
//! * FLO52 uses **only** the hierarchical construct; ADM uses **only**
//!   the flat XDOALL; the other three use both (§2).
//! * Every application also has "a few main cluster-only loops" (§2).
//! * The per-application parallelism profile (Table 1 concurrency,
//!   Table 3 parallel-loop concurrency) constrains iteration counts and
//!   granularity; the contention profile (Table 4) constrains vector
//!   traffic density.
//!
//! Iteration counts are scaled ~1000× below the real runs so a full
//! configuration sweep simulates in minutes; all reported quantities are
//! ratios, which the scaling preserves (see DESIGN.md §2). Calibration
//! constants live in each application's `spec()` and are annotated with
//! the paper figure they target.
//!
//! ## Example
//!
//! ```
//! use cedar_apps::{app_by_name, perfect_suite};
//!
//! assert_eq!(perfect_suite().len(), 5);
//! let flo52 = app_by_name("flo52").unwrap();
//! assert!(flo52.uses_sdoall() && !flo52.uses_xdoall()); // §2
//! ```

pub mod adm;
pub(crate) mod arc2d;
pub(crate) mod builder;
pub mod flo52;
pub mod mdg;
pub mod ocean;
pub mod spec;
pub mod suite;
pub mod synthetic;

pub use builder::AppBuilder;
pub use spec::{AccessPattern, AppSpec, ArraySpec, BodySpec, Phase};
pub use suite::{app_by_name, perfect_suite};
