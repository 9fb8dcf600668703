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
//! lock-hold inflation rides every kernel-lock acquire via
//! `Machine::lock_inflate_pct`, and network degradation is baked into
//! the memory system's latency parameters at construction.

use cedar_faults::FaultKind;
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
    /// Extra kernel-lock hold percentage the campaign dictates (0 when
    /// lock inflation is not armed — `acquire_scaled` is then exactly
    /// `acquire`).
    pub(crate) fn lock_inflate_pct(&self) -> u32 {
        self.cfg
            .faults
            .lock_inflation
            .map(|l| l.hold_pct)
            .unwrap_or(0)
    }

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
        }
    }

    /// `burst` back-to-back cross-processor interrupts, each at the
    /// per-CE CPI cost.
    fn inject_storm(&mut self, cluster: usize) {
        let spec = self
            .cfg
            .faults
            .interrupt_storm
            .expect("storm fired unarmed");
        for _ in 0..spec.burst {
            self.raise_cpi(cluster);
        }
        self.injected.cpi += CPI_COST_PER_CE * spec.burst as u64;
    }

    /// `burst` AST deliveries to the cluster's lead CE.
    fn inject_ast_burst(&mut self, cluster: usize) {
        let spec = self.cfg.faults.ast_burst.expect("ast burst fired unarmed");
        for _ in 0..spec.burst {
            self.charge_os(cluster, OsActivity::Ast, spec.cost);
            self.lead_penalty(cluster, spec.cost);
        }
        self.injected.ast += spec.cost * spec.burst as u64;
    }

    /// One wave of synthetic page faults, split sequential/concurrent by
    /// the driver's per-cluster stream. The counts go to the address
    /// space's *injected* tally, never the organic one.
    fn inject_wave(&mut self, cluster: usize) {
        let spec = self.cfg.faults.page_fault_wave.expect("wave fired unarmed");
        let shape = self
            .fault_driver
            .as_mut()
            .expect("wave fired without a driver")
            .wave_shape(cluster);
        for _ in 0..shape.sequential {
            self.charge_os(cluster, OsActivity::PgFltSequential, spec.seq_cost);
            self.lead_penalty(cluster, spec.seq_cost);
            self.vm.record_injected(FaultClass::Sequential);
        }
        for _ in 0..shape.concurrent {
            self.charge_os(cluster, OsActivity::PgFltConcurrent, spec.conc_cost);
            self.lead_penalty(cluster, spec.conc_cost);
            self.vm.record_injected(FaultClass::Concurrent);
        }
        self.injected.pgflt_seq += spec.seq_cost * shape.sequential as u64;
        self.injected.pgflt_conc += spec.conc_cost * shape.concurrent as u64;
    }

    /// Freezes a busy helper lead CE for the stall length. No OS charge
    /// and no lead-bucket overlap: the time stays in whatever user
    /// bucket the lead was accruing (typically helper wait or iteration
    /// execution), stretching completion time the way a descheduled
    /// helper does.
    fn inject_helper_stall(&mut self, cluster: usize) {
        debug_assert!(cluster >= 1, "helper stall on the main cluster");
        let spec = self.cfg.faults.helper_stall.expect("stall fired unarmed");
        let lead = self.lead_of(cluster);
        if !self.ces[lead].mode.is_busy() {
            return; // nothing to freeze (already stopped/idle)
        }
        self.ces[lead].pending_penalty += spec.stall;
        if self.ces[lead].mode == CeMode::WaitWork {
            self.tasks[cluster].waiter.record_stall(spec.stall);
        }
        self.injected.stall += spec.stall;
    }
}
