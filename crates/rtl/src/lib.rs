//! # cedar-rtl — the Cedar Fortran runtime library
//!
//! State machines for the runtime protocols §2 of the paper describes:
//!
//! * **Helper tasks**: the runtime creates one helper task per non-master
//!   cluster; when scheduled, a helper "begins spin-waiting for work",
//!   checking the `sdoall_activity` word in global memory every few
//!   cycles ([`activity::WorkWaiter`]).
//! * **SDOALL/CDOALL** (hierarchical): outer iterations are
//!   self-scheduled one at a time to each cluster task — only one
//!   processor per cluster touches the global iteration lock — and the
//!   inner `cdoall` spreads over the cluster's 8 CEs via the concurrency
//!   bus, creating no network traffic.
//! * **XDOALL** (flat): *every* CE independently issues test-and-set
//!   requests to the lock protecting the global loop iteration index
//!   ([`sched::IterClaimer`]); this is the construct whose distribution
//!   overhead grows to >10% of completion time at 32 processors (§6).
//! * **Finish barrier**: after each loop, the main task spin-waits for
//!   all helpers which entered the loop to detach
//!   ([`barrier::FinishBarrier`] over a joined-count word maintained
//!   with fetch-and-add).
//!
//! DOACROSS loops (serialized regions within a parallel loop) have no
//! state machine here: the machine runs their ticket protocol inline in
//! `cedar-core`'s `machine/exec.rs`.
//!
//! Each state machine emits [`WordIssue`]s — single-word global-memory
//! operations with optional delays — that `cedar-core` turns into CE
//! activities, so every lock probe, index update and flag check travels
//! through the simulated network and contributes to the contention the
//! paper measures.
//!
//! ## Example: claiming an iteration
//!
//! ```
//! use cedar_rtl::{ClaimStep, IterClaimer, RtlWords};
//! use cedar_sim::Cycles;
//!
//! let mut claimer = IterClaimer::new(RtlWords::cedar(), 10, Cycles(150));
//! // The pre-check read goes out first...
//! let step = claimer.begin();
//! assert!(matches!(step, ClaimStep::Issue(_)));
//! // ...the index says work is left, so the TAS follows; feed the
//! // simulated memory's responses back until the claim resolves.
//! let step = claimer.on_value(0);      // pre-check: index 0 < 10
//! let step = match step { ClaimStep::Issue(_) => claimer.on_value(0), s => s }; // TAS won
//! let step = match step { ClaimStep::Issue(_) => claimer.on_value(0), s => s }; // fetched 0
//! let step = match step { ClaimStep::Issue(_) => claimer.on_value(0), s => s }; // unset done
//! assert_eq!(step, ClaimStep::Claimed(0));
//! ```

pub mod activity;
pub mod barrier;
pub mod combining;
pub mod config;
pub mod loops;
pub mod sched;
pub mod words;

pub use activity::{WaitStep, WorkWaiter};
pub use barrier::{BarrierStep, FinishBarrier};
pub use combining::{CombiningTree, Propagation};
pub use loops::{LoopDescriptor, LoopKind};
pub use sched::{ClaimStep, IterClaimer};
pub use words::RtlWords;

use cedar_hw::{GlobalAddr, MemOp};
use cedar_sim::Cycles;

/// A single-word global-memory operation requested by a runtime state
/// machine, to be issued `after` cycles from now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordIssue {
    /// Target address.
    pub addr: GlobalAddr,
    /// Operation.
    pub op: MemOp,
    /// Delay before issuing (spin periods, lock backoff).
    pub after: Cycles,
}

impl WordIssue {
    /// An immediate issue.
    pub fn now(addr: GlobalAddr, op: MemOp) -> Self {
        WordIssue {
            addr,
            op,
            after: Cycles::ZERO,
        }
    }

    /// A delayed issue.
    pub fn after(addr: GlobalAddr, op: MemOp, delay: Cycles) -> Self {
        WordIssue {
            addr,
            op,
            after: delay,
        }
    }
}
