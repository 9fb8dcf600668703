//! Fault-injection occurrence handling and injected-cost accounting.
//!
//! Each timed fault class maps onto exactly one existing OS charging
//! primitive, so an injected disturbance lands in the same Table-2
//! bucket the organic activity would — and `InjectedCost` records how
//! many cycles each class added, which the attribution-invariant suite
//! compares against the bucket deltas:
//!
//! * interrupt storms → `Machine::raise_cpi` (the `Cpi` bucket, gang
//!   penalty);
//! * AST bursts → `Ast` charge plus a lead penalty, like
//!   `Machine::on_ast`;
//! * page-fault waves → `PgFlt*` charges plus a lead penalty.
//!   Deliberately **no** CPI and **no** kernel-lock acquire, so the wave
//!   moves only the page-fault buckets (organic concurrent faults do
//!   gather CPIs; the deviation is what lets the tests isolate buckets);
//! * helper stalls → a bare pending penalty on the helper's lead CE.
//!   No OS bucket and no lead-bucket overlap: the lost time stays
//!   attributed to user-side waiting, which is exactly how a descheduled
//!   helper reads in the paper's Figure 4.
//!
//! The two static classes never reach `Machine::on_fault`:
//! lock-hold inflation stretches every kernel-lock hold in
//! `Machine::critical_section`, and network degradation is baked into
//! the memory system's latency parameters at construction.

use cedar_faults::{
    FaultKind, AST_BURST_COST, AST_BURST_SIZE, STALL_CYCLES, STORM_BURST, WAVE_CONC_COST,
    WAVE_SEQ_COST,
};
use cedar_sim::Cycles;
use cedar_xylem::config::CPI_COST_PER_CE;
use cedar_xylem::{FaultClass, OsActivity};

use super::state::CeMode;
use super::Machine;
use crate::events::Ev;

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
    /// A timed fault occurrence fires on `cluster`. Mirrors the OS
    /// schedule handlers: bail after program completion, reschedule
    /// first (the next occurrence time never depends on what this one
    /// does), then inject.
    pub(crate) fn on_fault(&mut self, kind: FaultKind, cluster: usize) {
        if self.finished_at.is_some() {
            return; // program over: stop rescheduling
        }
        let next = self
            .fault_driver
            .as_mut()
            .expect("fault event dispatched without a driver")
            .next_after(kind, cluster, self.now);
        self.queue.schedule(next, Ev::Fault { kind, cluster });
        match kind {
            FaultKind::InterruptStorm => self.inject_storm(cluster),
            FaultKind::AstBurst => self.inject_ast_burst(cluster),
            FaultKind::PageFaultWave => self.inject_wave(cluster),
            FaultKind::HelperStall => self.inject_helper_stall(cluster),
            FaultKind::LockInflation | FaultKind::DegradedNetwork => {
                unreachable!("static fault class {kind:?} has no occurrences")
            }
        }
    }

    /// `STORM_BURST` back-to-back cross-processor interrupts, each at
    /// the per-CE CPI cost.
    fn inject_storm(&mut self, cluster: usize) {
        for _ in 0..STORM_BURST {
            self.raise_cpi(cluster);
        }
        self.injected.cpi += CPI_COST_PER_CE * u64::from(STORM_BURST);
    }

    /// `AST_BURST_SIZE` AST deliveries to the cluster's lead CE.
    fn inject_ast_burst(&mut self, cluster: usize) {
        for _ in 0..AST_BURST_SIZE {
            self.charge_os(cluster, OsActivity::Ast, AST_BURST_COST);
            self.lead_penalty(cluster, AST_BURST_COST);
        }
        self.injected.ast += AST_BURST_COST * u64::from(AST_BURST_SIZE);
    }

    /// One wave of synthetic page faults, split sequential/concurrent by
    /// the driver's per-cluster stream. The counts go to the address
    /// space's *injected* tally, never the organic one.
    fn inject_wave(&mut self, cluster: usize) {
        let shape = self
            .fault_driver
            .as_mut()
            .expect("wave fired without a driver")
            .wave_shape(cluster);
        for _ in 0..shape.sequential {
            self.charge_os(cluster, OsActivity::PgFltSequential, WAVE_SEQ_COST);
            self.lead_penalty(cluster, WAVE_SEQ_COST);
            self.vm.record_injected(FaultClass::Sequential);
        }
        for _ in 0..shape.concurrent {
            self.charge_os(cluster, OsActivity::PgFltConcurrent, WAVE_CONC_COST);
            self.lead_penalty(cluster, WAVE_CONC_COST);
            self.vm.record_injected(FaultClass::Concurrent);
        }
        self.injected.pgflt_seq += WAVE_SEQ_COST * u64::from(shape.sequential);
        self.injected.pgflt_conc += WAVE_CONC_COST * u64::from(shape.concurrent);
    }

    /// Freezes a busy helper lead CE for the stall length. No OS charge
    /// and no lead-bucket overlap: the time stays in whatever user
    /// bucket the lead was accruing (typically helper wait or iteration
    /// execution), stretching completion time the way a descheduled
    /// helper does.
    fn inject_helper_stall(&mut self, cluster: usize) {
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
