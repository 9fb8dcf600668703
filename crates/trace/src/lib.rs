//! # cedar-trace — measurement facilities
//!
//! Models of the three measurement tools the paper uses (§3–§4):
//!
//! * [`hpm`] — **cedarhpm**, the non-intrusive hardware performance
//!   monitor developed at UIUC CSRD \[14\]: instrumented code posts events
//!   to hardware trigger points; the monitor records `(event id,
//!   timestamp, processor id)` with 50 ns resolution at the cost of a
//!   single move instruction. In the simulator the cost is exactly zero.
//! * [`statfx`] — the software concurrency monitor: time-weighted average
//!   number of active processors per cluster (Table 1's `Concurr` rows).
//! * [`qmon`] — the **Q** utilization facility: per-cluster breakdown of
//!   completion time into user / system / interrupt / spin (Figure 3),
//!   derived from the one OS ledger (`cedar_xylem::OsAccounting`) the
//!   machine charges, so OS time is charged once.
//!
//! [`event`] defines the instrumentation points inserted into the runtime
//! library, the OS and the applications (§4), [`intervals`] pairs
//! enter/exit events back into intervals, and [`breakdown`] holds the
//! Figure 4 user-time taxonomy that Figures 5–9 are drawn from.
//!
//! ## Example: posting and pairing events
//!
//! ```
//! use cedar_trace::{pair_intervals, HpmMonitor, TraceEventId};
//! use cedar_hw::CeId;
//! use cedar_sim::Cycles;
//!
//! let mut hpm = HpmMonitor::new();
//! hpm.post(TraceEventId::IterStart, CeId(3), 1, Cycles(100));
//! hpm.post(TraceEventId::IterEnd, CeId(3), 0, Cycles(350));
//! let intervals = pair_intervals(hpm.events(), TraceEventId::IterStart, TraceEventId::IterEnd);
//! assert_eq!(intervals[0].duration(), Cycles(250));
//! ```

pub mod breakdown;
pub mod event;
pub mod hpm;
pub mod intervals;
pub mod qmon;
pub mod statfx;

pub use breakdown::{TaskBreakdown, UserBucket};
pub use event::{TraceEvent, TraceEventId};
pub use hpm::HpmMonitor;
pub use intervals::{pair_intervals, Interval};
pub use statfx::Statfx;
