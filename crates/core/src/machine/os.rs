//! Operating-system activity: daemons, ASTs, page-fault charging,
//! cross-processor interrupts and system calls.
//!
//! All OS time is charged once, per activity, into
//! [`OsAccounting`](cedar_xylem::OsAccounting) (Table 2); Figure 3's
//! per-cluster categories are summed from that ledger when the run's
//! result is assembled. CE timelines are extended through the penalty
//! mechanism (the service time serializes in front of the CE's next
//! activity boundary), and a lead CE's user-time bucket subtracts the
//! overlap so user and OS time never double-count.

use cedar_hw::ClusterId;
use cedar_sim::Cycles;
use cedar_trace::TraceEventId;
use cedar_xylem::config::{CPI_COST_PER_CE, CR_SECT_CLUSTER, CR_SECT_GLOBAL, CTX_COST_PER_CE};
use cedar_xylem::syscall::CrSect;
use cedar_xylem::{FaultClass, OsActivity, SyscallKind};

use super::Machine;
use crate::events::Ev;

impl Machine {
    /// Charges `wall` cycles of OS time on `cluster` to `activity`.
    pub(crate) fn charge_os(&mut self, cluster: usize, activity: OsActivity, wall: Cycles) {
        self.os_acct
            .charge(ClusterId(cluster as u8), activity, wall);
    }

    /// Extends every busy CE of `cluster` by `wall` (gang preemption) and
    /// records the lead-bucket overlap.
    pub(crate) fn gang_penalty(&mut self, cluster: usize, wall: Cycles) {
        let lead = self.lead_of(cluster);
        for pos in self.cluster_ces(cluster) {
            if self.ces[pos].mode.is_busy() {
                self.ces[pos].pending_penalty += wall;
                if pos == lead {
                    self.tasks[cluster].lead_overlap += wall;
                }
            }
        }
    }

    /// Extends only the lead CE (single-CE OS deliveries such as ASTs).
    pub(crate) fn lead_penalty(&mut self, cluster: usize, wall: Cycles) {
        let lead = self.lead_of(cluster);
        if self.ces[lead].mode.is_busy() {
            self.ces[lead].pending_penalty += wall;
            self.tasks[cluster].lead_overlap += wall;
        }
    }

    /// Raises a cross-processor interrupt on `cluster`: every CE performs
    /// register saves/restores and accounting before synchronizing to a
    /// single execution thread (§5.1).
    pub(crate) fn raise_cpi(&mut self, cluster: usize) {
        self.charge_os(cluster, OsActivity::Cpi, CPI_COST_PER_CE);
        self.gang_penalty(cluster, CPI_COST_PER_CE);
    }

    /// Enters a kernel critical section from `cluster` for `hold`, under
    /// the cluster's lock or the global one. Lock-hold inflation
    /// stretches the hold, and the extra lands in the injected tally; any
    /// spin for the lock is charged to `KernelSpin`. Returns
    /// `(spin, held)`: the caller charges its own critical-section bucket.
    fn critical_section(&mut self, cluster: usize, sect: CrSect, hold: Cycles) -> (Cycles, Cycles) {
        let pct = self.lock_inflate_pct();
        let (lock, injected) = match sect {
            CrSect::Cluster => (
                &mut self.cluster_locks[cluster],
                &mut self.injected.lock_cluster,
            ),
            CrSect::Global => (&mut self.global_lock, &mut self.injected.lock_global),
        };
        let (_, spin, held) = lock.acquire_scaled(self.now, hold, pct);
        *injected += held - hold;
        if spin > Cycles::ZERO {
            self.charge_os(cluster, OsActivity::KernelSpin, spin);
        }
        (spin, held)
    }

    /// Charges one system call issued on `cluster`, including the
    /// critical section its handler enters.
    pub(crate) fn charge_syscall(&mut self, cluster: usize, kind: SyscallKind) {
        let cost = kind.cost();
        let activity = if kind.is_global() {
            OsActivity::SyscallGlobal
        } else {
            OsActivity::SyscallCluster
        };
        self.charge_os(cluster, activity, cost);
        let penalty = match kind.critical_section() {
            Some(sect) => {
                let (hold, bucket) = match sect {
                    CrSect::Cluster => (CR_SECT_CLUSTER, OsActivity::CrSectCluster),
                    CrSect::Global => (CR_SECT_GLOBAL, OsActivity::CrSectGlobal),
                };
                let (spin, held) = self.critical_section(cluster, sect, hold);
                self.charge_os(cluster, bucket, held);
                cost + held + spin
            }
            None => cost,
        };
        self.lead_penalty(cluster, penalty);
    }

    /// Charges one page fault taken by CE `pos` and stalls it for
    /// `stall` (the time until the page is mapped plus the service cost).
    pub(crate) fn charge_fault(
        &mut self,
        pos: usize,
        class: FaultClass,
        cost: Cycles,
        stall: Cycles,
    ) {
        let cluster = self.cluster_of(pos);
        let activity = match class {
            FaultClass::Sequential => OsActivity::PgFltSequential,
            FaultClass::Concurrent => OsActivity::PgFltConcurrent,
        };
        self.charge_os(cluster, activity, cost);
        // The fault handler spends part of its service inside a cluster
        // critical section; only the *extra* spin (if another handler
        // holds the lock) is charged on top. Under lock-hold inflation
        // the handler occupies the lock longer; the extra hold is
        // critical-section time and extends the stall.
        let hold = cost.scale(0.12);
        let (spin, held) = self.critical_section(cluster, CrSect::Cluster, hold);
        let extra = held - hold;
        if extra > Cycles::ZERO {
            self.charge_os(cluster, OsActivity::CrSectCluster, extra);
        }
        // The faulting CE is stalled for the whole mapping time.
        self.ces[pos].pending_penalty += stall + spin + extra;
        if pos == self.lead_of(cluster) {
            self.tasks[cluster].lead_overlap += stall + spin + extra;
        }
    }

    /// The periodic bookkeeping daemon fires on `cluster` (§5.1): the
    /// application task is context-switched out, the system task runs,
    /// and a CPI gathers the single-CE execution thread.
    pub(crate) fn on_daemon(&mut self, cluster: usize) {
        if self.finished_at.is_some() {
            return; // program over: stop rescheduling
        }
        let work = {
            let (next_at, work) = self.daemons[cluster].next_after(self.now);
            self.queue.schedule(next_at, Ev::Daemon { cluster });
            work
        };
        let lead = self.lead_of(cluster);
        self.post(TraceEventId::ContextSwitch, lead, 0);
        // Save/restore plus the non-categorized bookkeeping time.
        self.charge_os(cluster, OsActivity::Ctx, work.ctx_per_ce + work.other);
        // Cluster critical sections the system task enters.
        let (spin, held) = self.critical_section(cluster, CrSect::Cluster, work.cr_sect);
        self.charge_os(cluster, OsActivity::CrSectCluster, held);
        let extra = held - work.cr_sect;
        // Cluster system calls the system task makes.
        self.charge_os(cluster, OsActivity::SyscallCluster, work.syscall);
        // The context-switch request interrupts every CE.
        self.raise_cpi(cluster);
        // The cluster is held for the whole daemon duration.
        self.gang_penalty(cluster, work.ctx_per_ce + work.duration() + spin + extra);
    }

    /// A competing job's gang quantum steals `cluster` (multiprogrammed
    /// extension): the application pays two context switches, and the
    /// whole cluster loses the quantum.
    pub(crate) fn on_background(&mut self, cluster: usize) {
        if self.finished_at.is_some() {
            return;
        }
        let quantum = {
            let (next_at, quantum) = self.background[cluster].next_after(self.now);
            self.queue.schedule(next_at, Ev::Background { cluster });
            quantum
        };
        // Switch out + switch in.
        let ctx = CTX_COST_PER_CE * 2;
        self.charge_os(cluster, OsActivity::Ctx, ctx);
        self.raise_cpi(cluster);
        self.background_stolen += quantum;
        self.gang_penalty(cluster, ctx + quantum);
    }

    /// An asynchronous system trap fires on `cluster`.
    pub(crate) fn on_ast(&mut self, cluster: usize) {
        if self.finished_at.is_some() {
            return;
        }
        let cost = {
            let (next_at, cost) = self.asts[cluster].next_after(self.now);
            self.queue.schedule(next_at, Ev::Ast { cluster });
            cost
        };
        self.charge_os(cluster, OsActivity::Ast, cost);
        self.lead_penalty(cluster, cost);
    }

    /// Total OS wall time charged on a cluster so far (test aid).
    #[cfg(test)]
    pub(crate) fn os_wall(&self, cluster: usize) -> Cycles {
        let acct = self.os_acct.cluster(ClusterId(cluster as u8));
        cedar_trace::qmon::ClusterUtilization::from_accounting(acct).os_total()
    }

    /// Category totals snapshot (test aid).
    #[cfg(test)]
    pub(crate) fn category_total(&self, category: cedar_xylem::accounting::Category) -> Cycles {
        self.os_acct.category_total(category)
    }
}
