//! Per-CE and per-task runtime state.

use std::sync::Arc;

use cedar_apps::BodySpec;
use cedar_hw::cbus::CbusBarrier;
use cedar_hw::ce::CeEngine;
use cedar_hw::{GlobalAddr, MemOp};
use cedar_rtl::{FinishBarrier, IterClaimer, LoopKind, WorkWaiter};
use cedar_sim::{Cycles, SimTime};
use cedar_trace::UserBucket;

/// What a CE is doing, at task-protocol granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CeMode {
    /// Gang-waiting for the next intra-cluster dispatch.
    Idle,
    /// Task has terminated.
    Stopped,
    /// Main lead: executing a serial section's compute.
    SerialCompute,
    /// Main lead: performing a serial section's memory accesses.
    SerialAccess {
        /// Index of the access in flight.
        idx: usize,
    },
    /// Main lead: posting a loop (local setup + three descriptor writes).
    SetupWrite {
        /// 0 = local compute, 1 = index reset, 2 = descriptor,
        /// 3 = activity flag.
        step: u8,
    },
    /// Main lead: spin-waiting at the finish barrier.
    FinishSpin,
    /// Main lead: posting the termination word.
    TerminateWrite,
    /// Helper lead: spin-waiting for work on the activity word.
    WaitWork,
    /// Helper lead: fetch-adding +1 on the joined count.
    JoinAdd,
    /// Helper lead: reading the loop descriptor after joining.
    JoinRead,
    /// Helper lead: fetch-adding −1 on the joined count.
    DetachAdd,
    /// Lead: claiming an outer `sdoall` iteration via the lock protocol.
    ClaimOuter,
    /// Any CE: claiming a flat `xdoall` iteration via the lock protocol.
    ClaimFlat,
    /// Any CE: executing a loop body. `stage` 0 is the compute span;
    /// stages `1..=n` are the body's accesses.
    Body {
        /// Global iteration number (drives address resolution).
        iter: u64,
        /// Current stage.
        stage: u8,
    },
    /// Any CE: arrived at the intra-cluster barrier, waiting for release.
    CbusWait,
    /// Main lead: resetting the DOACROSS ticket before dispatch.
    DoacrossSetup,
    /// Any CE: spinning on the DOACROSS ticket for its turn.
    DoacrossTicket {
        /// Iteration whose serialized region is waiting.
        iter: u64,
    },
    /// Any CE: executing its serialized region.
    DoacrossRegion {
        /// Iteration being serialized.
        iter: u64,
    },
    /// Any CE: writing the next ticket on region exit.
    DoacrossExit {
        /// Iteration that just finished its region.
        iter: u64,
    },
}

impl CeMode {
    /// `true` if this CE counts as an *active processor* for the statfx
    /// concurrency monitor. CEs halted at the concurrency-bus barrier are
    /// *not* active: the Alliant hardware parks them until the release,
    /// which is why the paper's equation can take the concurrency during
    /// non-parallel work as exactly 1 per cluster (§7).
    pub(crate) fn is_busy(self) -> bool {
        !matches!(self, CeMode::Idle | CeMode::Stopped | CeMode::CbusWait)
    }
}

/// One CE's runtime state.
#[derive(Debug)]
pub(crate) struct Ce {
    /// The hardware activity engine.
    pub(crate) engine: CeEngine,
    /// Current protocol mode.
    pub mode: CeMode,
    /// OS service time to serialize before the next activity.
    pub(crate) pending_penalty: Cycles,
    /// Value delivered by the last completed activity.
    pub(crate) stashed_value: u64,
    /// A word operation to issue once the current (delay) compute ends.
    pub(crate) pending_word: Option<(GlobalAddr, MemOp)>,
    /// Per-CE claimer for flat (`xdoall`) loops.
    pub claimer: Option<IterClaimer>,
}

impl Ce {
    /// Creates an idle CE.
    pub fn new(engine: CeEngine) -> Self {
        Ce {
            engine,
            mode: CeMode::Idle,
            pending_penalty: Cycles::ZERO,
            stashed_value: 0,
            pending_word: None,
            claimer: None,
        }
    }
}

/// Task role on its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The application's main task (cluster 0).
    Main,
    /// A helper task created by the runtime.
    Helper,
}

/// The loop a cluster task is currently executing.
#[derive(Debug, Clone)]
pub(crate) struct LoopCtx {
    /// Construct.
    pub kind: LoopKind,
    /// Outer iterations (flat count for `xdoall`).
    pub(crate) outer_total: u32,
    /// Inner iterations per outer (1 for flat/cluster handled as inner
    /// loop of the single outer? No — cluster loops use `outer_total=1`).
    pub(crate) inner_total: u32,
    /// Per-iteration work (shared handle; never deep-copied on entry).
    pub body: Arc<BodySpec>,
    /// DOACROSS: serialized-region work per iteration (zero otherwise).
    pub serial_region: Cycles,
    /// Next inner iteration to hand out (intra-cluster self-scheduling).
    pub(crate) inner_next: u32,
    /// Outer iteration this cluster currently owns (sdoall).
    pub(crate) outer_current: u32,
}

/// One cluster task's runtime state.
#[derive(Debug)]
pub struct Task {
    /// Role.
    pub(crate) role: Role,
    /// Helper: the wait-for-work spin machine.
    pub waiter: WorkWaiter,
    /// Main: the finish-barrier spin machine.
    pub finish: FinishBarrier,
    /// Lead's claimer for outer `sdoall` iterations.
    pub(crate) outer_claimer: Option<IterClaimer>,
    /// Intra-cluster barrier on the concurrency bus.
    pub barrier: CbusBarrier,
    /// Barrier episode counter (stale release guard).
    pub(crate) barrier_episode: u64,
    /// The loop currently being executed, if any.
    pub(crate) cur: Option<LoopCtx>,
    /// Lead-CE user-time bucket currently accruing.
    pub(crate) lead_bucket: Option<UserBucket>,
    /// When the current bucket began accruing.
    pub(crate) lead_since: SimTime,
    /// OS wall time overlapping the current bucket span (subtracted at
    /// charge time so OS stalls are not double-counted as user time).
    pub(crate) lead_overlap: Cycles,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_hw::CeId;

    #[test]
    fn busy_classification() {
        assert!(!CeMode::Idle.is_busy());
        assert!(!CeMode::Stopped.is_busy());
        assert!(CeMode::WaitWork.is_busy(), "spinning counts as active");
        assert!(CeMode::FinishSpin.is_busy());
        assert!(CeMode::Body { iter: 0, stage: 0 }.is_busy());
        assert!(!CeMode::CbusWait.is_busy(), "parked at the cbus barrier");
    }

    #[test]
    fn new_ce_is_idle_with_no_pending_state() {
        let ce = Ce::new(CeEngine::new(CeId(0)));
        assert_eq!(ce.mode, CeMode::Idle);
        assert_eq!(ce.pending_penalty, Cycles::ZERO);
        assert!(ce.pending_word.is_none());
    }
}
