//! Injected-cost accounting of the timed fault classes.
//!
//! The timer table fires each timed fault class; each maps onto exactly
//! one existing OS charging primitive, so an injected disturbance lands
//! in the same Table-2 bucket the organic activity would — and
//! `InjectedCost` records how many cycles each class added, which the
//! attribution-invariant suite compares against the bucket deltas:
//!
//! * interrupt storms → `Machine::raise_cpi` (the `Cpi` bucket, gang
//!   penalty);
//! * AST bursts → `Ast` charge plus a lead penalty, like an organic
//!   AST;
//! * page-fault waves → `PgFlt*` charges plus a lead penalty.
//!   Deliberately **no** CPI and **no** kernel-lock acquire, so the wave
//!   moves only the page-fault buckets (organic concurrent faults do
//!   gather CPIs; the deviation is what lets the tests isolate buckets);
//! * helper stalls → a bare pending penalty on the helper's lead CE.
//!   No OS bucket and no lead-bucket overlap: the lost time stays
//!   attributed to user-side waiting, which is exactly how a descheduled
//!   helper reads in the paper's Figure 4.
//!
//! The two static classes have no timer: lock-hold inflation stretches
//! every kernel-lock hold in `Machine::critical_section`, and network
//! degradation is baked into the memory system's latency parameters at
//! construction.

use cedar_faults::{
    AST_BURST_COST, AST_BURST_SIZE, STALL_CYCLES, STORM_BURST, WAVE_CONC_COST, WAVE_FAULTS,
    WAVE_SEQ_COST,
};
use cedar_sim::Cycles;
use cedar_xylem::config::CPI_COST_PER_CE;
use cedar_xylem::{FaultClass, OsActivity};

use super::state::CeMode;
use super::Machine;

/// Cycles added by the fault campaign so far, per attribution surface.
/// All zero when the plan is empty (nothing ever fires).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InjectedCost {
    /// Per-CE CPI service time from interrupt storms (`Cpi` bucket).
    pub cpi: Cycles,
    /// AST service time from bursts (`Ast` bucket).
    pub ast: Cycles,
    /// Sequential-fault service time from waves (`PgFltSequential`).
    pub pgflt_seq: Cycles,
    /// Concurrent-fault service time from waves (`PgFltConcurrent`).
    pub pgflt_conc: Cycles,
    /// Helper lead-CE freeze time (no OS bucket; user time absorbs it).
    pub stall: Cycles,
    /// Extra cluster-lock hold time from inflation (`CrSectCluster`).
    pub lock_cluster: Cycles,
    /// Extra global-lock hold time from inflation (`CrSectGlobal`).
    pub lock_global: Cycles,
}

impl Machine {
    /// `STORM_BURST` back-to-back cross-processor interrupts, each at
    /// the per-CE CPI cost.
    pub(crate) fn inject_storm(&mut self, cluster: usize) {
        for _ in 0..STORM_BURST {
            self.raise_cpi(cluster);
        }
        self.injected.cpi += CPI_COST_PER_CE * u64::from(STORM_BURST);
    }

    /// `AST_BURST_SIZE` AST deliveries to the cluster's lead CE.
    pub(crate) fn inject_ast_burst(&mut self, cluster: usize) {
        for _ in 0..AST_BURST_SIZE {
            self.charge_os(cluster, OsActivity::Ast, AST_BURST_COST);
            self.lead_penalty(cluster, AST_BURST_COST);
        }
        self.injected.ast += AST_BURST_COST * u64::from(AST_BURST_SIZE);
    }

    /// One wave of synthetic page faults, split sequential/concurrent by
    /// the cluster's wave stream. The counts go to the address space's
    /// *injected* tally, never the organic one.
    pub(crate) fn inject_wave(&mut self, cluster: usize) {
        let concurrent = self.timers.wave_concurrent(cluster);
        let sequential = WAVE_FAULTS - concurrent;
        for _ in 0..sequential {
            self.charge_os(cluster, OsActivity::PgFltSequential, WAVE_SEQ_COST);
            self.lead_penalty(cluster, WAVE_SEQ_COST);
            self.vm.record_injected(FaultClass::Sequential);
        }
        for _ in 0..concurrent {
            self.charge_os(cluster, OsActivity::PgFltConcurrent, WAVE_CONC_COST);
            self.lead_penalty(cluster, WAVE_CONC_COST);
            self.vm.record_injected(FaultClass::Concurrent);
        }
        self.injected.pgflt_seq += WAVE_SEQ_COST * u64::from(sequential);
        self.injected.pgflt_conc += WAVE_CONC_COST * u64::from(concurrent);
    }

    /// Freezes a busy helper lead CE for the stall length. No OS charge
    /// and no lead-bucket overlap: the time stays in whatever user
    /// bucket the lead was accruing (typically helper wait or iteration
    /// execution), stretching completion time the way a descheduled
    /// helper does.
    pub(crate) fn inject_helper_stall(&mut self, cluster: usize) {
        debug_assert!(cluster >= 1, "helper stall on the main cluster");
        let lead = self.lead_of(cluster);
        if !self.ces[lead].mode.is_busy() {
            return; // nothing to freeze (already stopped/idle)
        }
        self.ces[lead].pending_penalty += STALL_CYCLES;
        if self.ces[lead].mode == CeMode::WaitWork {
            self.tasks[cluster].waiter.record_stall(STALL_CYCLES);
        }
        self.injected.stall += STALL_CYCLES;
    }
}
