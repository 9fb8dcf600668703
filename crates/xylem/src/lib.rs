//! # cedar-xylem — model of the Xylem operating system
//!
//! Xylem is Cedar's Unix-derived operating system (§2, \[11\]). It manages
//! the hierarchical hardware: a *Xylem process* is made up of cluster
//! tasks sharing portions of an address space; tasks are gang-scheduled
//! within a cluster; the OS provides multitasking, demand-paged virtual
//! memory, task system calls and inter-task synchronization.
//!
//! This crate models every OS activity the paper's instrumentation
//! distinguishes (§4, §5 and Table 2):
//!
//! * **cross-processor interrupts** (`cpi`) issued "during concurrent page
//!   faults, explicit resource scheduling requests, system calls and
//!   context switching requests to obtain a single CE execution thread" —
//!   each CE pays register save/restore plus accounting before
//!   synchronizing ([`config::CPI_COST_PER_CE`]);
//! * **context switching** (`ctx`) between the application task and
//!   system tasks when the OS "must perform some bookkeeping"
//!   ([`config::CTX_INTERVAL`], [`config::DAEMON_DURATION`]);
//! * **concurrent and sequential page faults** — two or more CEs
//!   simultaneously touching a previously untouched page make the fault
//!   *concurrent* and more expensive ([`vm`]);
//! * **cluster and global critical sections** protected by cluster/global
//!   memory locks, whose (negligible) spin time the paper reports
//!   separately ([`KernelLock`]);
//! * **cluster and global system calls** and **asynchronous system
//!   traps** ([`syscall`], [`config::AST_INTERVAL`]).
//!
//! The daemon, the ASTs and a [`BackgroundLoad`]'s stolen quanta fire
//! periodically on every cluster; `cedar-core`'s machine schedules them,
//! with the timed fault classes, from one timer table.
//!
//! Accounted durations flow into [`accounting::OsAccounting`], from which
//! `cedar-core` produces Figure 3's user/system/interrupt/spin breakdown
//! and Table 2's per-activity detail.
//!
//! ## Example: the concurrent-fault distinction
//!
//! ```
//! use cedar_xylem::{AddressSpace, FaultClass, PageTouch};
//! use cedar_hw::{addr::PageId, CeId};
//! use cedar_sim::Cycles;
//!
//! let mut vm = AddressSpace::default();
//! // First toucher: sequential fault.
//! let first = vm.touch(PageId(7), CeId(0), Cycles(0));
//! assert!(matches!(first, PageTouch::Fault { class: FaultClass::Sequential, .. }));
//! // A second CE arriving while the fault is in flight: concurrent,
//! // more expensive, and it raises a cross-processor interrupt (§5.1).
//! let second = vm.touch(PageId(7), CeId(1), Cycles(10));
//! assert!(matches!(second, PageTouch::Fault { class: FaultClass::Concurrent, raise_cpi: true, .. }));
//! ```

pub mod accounting;
pub mod background;
pub mod config;
pub(crate) mod locks;
pub mod syscall;
pub mod vm;

pub use accounting::{OsAccounting, OsActivity};
pub use background::BackgroundLoad;
pub use locks::KernelLock;
pub use vm::{AddressSpace, FaultClass, PageTouch};
