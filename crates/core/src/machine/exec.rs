//! Loop-protocol execution: phase sequencing, SDOALL/CDOALL and XDOALL
//! orchestration, body execution and the finish barrier.

use std::sync::Arc;

use cedar_apps::{AccessPattern, BodySpec};
use cedar_hw::addr::pages_touched;
use cedar_hw::{MemOp, VectorAccess};
use cedar_rtl::loops::{pack_activity, TERMINATE_CODE};
use cedar_rtl::{
    BarrierStep, ClaimStep, IterClaimer, LoopDescriptor, LoopKind, WaitStep, WordIssue,
};
use cedar_sim::Cycles;
use cedar_trace::event::loop_kind_code;
use cedar_trace::TraceEventId;
use cedar_xylem::{PageTouch, SyscallKind};

use super::state::{CeMode, LoopCtx, Role};
use super::Machine;
use crate::program::CompiledPhase;

/// The loop currently posted by the main task (ground truth shared with
/// joining helpers; the real runtime reads this from the descriptor
/// words, which the simulated helpers also do for timing).
#[derive(Debug, Clone)]
pub(crate) struct PostedLoop {
    pub(crate) kind: LoopKind,
    pub(crate) seq: u32,
    pub(crate) outer: u32,
    pub(crate) inner: u32,
    pub(crate) body: Arc<BodySpec>,
}

impl Machine {
    // ---- program start / end ----------------------------------------

    /// Charges task-creation syscalls, arms the OS schedules, starts the
    /// helpers spinning and enters the first phase.
    pub(crate) fn startup(&mut self) {
        self.post(TraceEventId::ProgramStart, 0, 0);
        // The runtime creates and starts one helper task per non-master
        // cluster through global system calls (§2).
        for cluster in 1..self.tasks.len() {
            for kind in [SyscallKind::TaskCreate, SyscallKind::TaskStart] {
                self.charge_syscall(0, kind);
            }
            let lead = self.lead_of(cluster);
            self.set_mode(lead, CeMode::WaitWork);
            self.post(TraceEventId::WaitForWorkEnter, lead, 0);
            let step = self.tasks[cluster].waiter.begin();
            self.apply_wait_step(lead, step);
        }
        for cluster in 0..self.tasks.len() {
            let (t, _) = self.daemons[cluster].next_after(self.now);
            self.queue
                .schedule(t, crate::events::Ev::Daemon { cluster });
            let (t, _) = self.asts[cluster].next_after(self.now);
            self.queue.schedule(t, crate::events::Ev::Ast { cluster });
            if !self.background.is_empty() {
                let (t, _) = self.background[cluster].next_after(self.now);
                self.queue
                    .schedule(t, crate::events::Ev::Background { cluster });
            }
        }
        // Arm the fault campaign's timed occurrence streams.
        if let Some(driver) = self.fault_driver.as_mut() {
            for (t, kind, cluster) in driver.first_events() {
                self.queue
                    .schedule(t, crate::events::Ev::Fault { kind, cluster });
            }
        }
        self.next_phase();
    }

    /// Advances the main task to its next phase (or termination).
    pub(crate) fn next_phase(&mut self) {
        let lead = 0;
        let idx = self.phase_idx;
        self.phase_idx += 1;
        // Copy the phase's scalars (and the shared body handle) out so
        // the program borrow ends before the protocol mutates `self`.
        enum Next {
            Serial(Cycles),
            Loop(LoopKind, u32, u32, Arc<BodySpec>, Cycles),
        }
        let next = match self.program.phase(idx) {
            Some(CompiledPhase::Serial { work, .. }) => Next::Serial(*work),
            Some(CompiledPhase::Loop {
                kind,
                outer,
                inner,
                body,
                serial_region,
            }) => Next::Loop(*kind, *outer, *inner, body.clone(), *serial_region),
            None => {
                // Program over: signal the helpers and stop.
                self.loop_seq += 1;
                let word = pack_activity(self.loop_seq, TERMINATE_CODE);
                self.set_mode(lead, CeMode::TerminateWrite);
                let activity = self.layout.words().activity;
                self.start_word(lead, activity, MemOp::Write(word));
                return;
            }
        };
        match next {
            Next::Serial(work) => {
                self.post(TraceEventId::SerialStart, lead, 0);
                self.set_mode(lead, CeMode::SerialCompute);
                self.start_compute(lead, work);
            }
            Next::Loop(kind, outer, inner, body, serial_region) => {
                self.loop_seq += 1;
                let posted = PostedLoop {
                    kind,
                    seq: self.loop_seq,
                    outer,
                    inner,
                    body,
                };
                if kind.is_cross_cluster() {
                    // SDOALL / XDOALL: post to global memory so helpers
                    // can join.
                    self.post(TraceEventId::MainEncounterLoop, lead, kind.code());
                    self.post(TraceEventId::LoopSetupEnter, lead, kind.code());
                    self.posted = Some(posted);
                    self.set_mode(lead, CeMode::SetupWrite { step: 0 });
                    let setup = self.cfg.rtl.setup_local;
                    self.start_compute(lead, setup);
                } else {
                    // Main-cluster-only loop: no posting, no helpers.
                    self.post(TraceEventId::ClusterLoopStart, lead, kind.code());
                    self.tasks[0].cur = Some(LoopCtx {
                        kind,
                        outer_total: posted.outer,
                        inner_total: posted.inner,
                        body: posted.body,
                        serial_region,
                        inner_next: 0,
                        outer_current: 0,
                    });
                    if kind == LoopKind::Doacross {
                        // Reset the serialization ticket, then dispatch.
                        let ticket = self.layout.words().ticket;
                        self.set_mode(lead, CeMode::DoacrossSetup);
                        self.start_word(lead, ticket, MemOp::Write(0));
                    } else {
                        self.dispatch_cluster(0);
                    }
                }
            }
        }
    }

    // ---- the protocol dispatcher --------------------------------------

    /// Advances CE `pos` after its activity completed with `value`.
    pub(crate) fn advance(&mut self, pos: usize, value: u64) {
        let mode = self.ces[pos].mode;
        match mode {
            CeMode::Idle | CeMode::Stopped => {}
            CeMode::SerialCompute => match self.serial_access(0) {
                None => {
                    self.post(TraceEventId::SerialEnd, pos, 0);
                    self.next_phase();
                }
                Some(a) => {
                    self.set_mode(pos, CeMode::SerialAccess { idx: 0 });
                    self.serial_counter += 1;
                    self.start_access(pos, &a, self.serial_counter);
                }
            },
            CeMode::SerialAccess { idx } => {
                let next = idx + 1;
                match self.serial_access(next) {
                    Some(a) => {
                        self.set_mode(pos, CeMode::SerialAccess { idx: next });
                        self.start_access(pos, &a, self.serial_counter);
                    }
                    None => {
                        self.post(TraceEventId::SerialEnd, pos, 0);
                        self.next_phase();
                    }
                }
            }
            CeMode::SetupWrite { step } => self.advance_setup(pos, step),
            CeMode::ClaimOuter => {
                let cluster = self.cluster_of(pos);
                let step = self.tasks[cluster]
                    .outer_claimer
                    .as_mut()
                    .expect("outer claimer present in ClaimOuter")
                    .on_value(value);
                self.apply_outer_claim(pos, step);
            }
            CeMode::ClaimFlat => {
                let step = self.ces[pos]
                    .claimer
                    .as_mut()
                    .expect("flat claimer present in ClaimFlat")
                    .on_value(value);
                self.apply_flat_claim(pos, step);
            }
            CeMode::Body { iter, stage } => self.advance_body(pos, iter, stage),
            CeMode::FinishSpin => {
                let step = self.tasks[0].finish.on_value(value);
                self.apply_finish_step(pos, step);
            }
            CeMode::WaitWork => {
                let cluster = self.cluster_of(pos);
                let step = self.tasks[cluster].waiter.on_value(value);
                self.apply_wait_step(pos, step);
            }
            CeMode::JoinAdd => {
                // The +1 landed; read the descriptor to learn the loop.
                self.set_mode(pos, CeMode::JoinRead);
                let descriptor = self.layout.words().descriptor;
                self.start_word(pos, descriptor, MemOp::Read);
            }
            CeMode::JoinRead => {
                let cluster = self.cluster_of(pos);
                self.post(TraceEventId::HelperJoinLoop, pos, 0);
                // Suppress a duplicate join if this helper raced the
                // activity word (it re-validates against the descriptor).
                let seq = self.posted.as_ref().expect("loop posted").seq;
                self.tasks[cluster].waiter.mark_seen(seq);
                let join_local = self.cfg.rtl.join_local;
                self.ces[pos].pending_penalty += join_local;
                self.enter_posted_loop(cluster, value as u32);
            }
            CeMode::DetachAdd => {
                self.post(TraceEventId::TaskDetach, pos, 0);
                let cluster = self.cluster_of(pos);
                self.tasks[cluster].cur = None;
                self.set_mode(pos, CeMode::WaitWork);
                self.post(TraceEventId::WaitForWorkEnter, pos, 0);
                let cluster = self.cluster_of(pos);
                let step = self.tasks[cluster].waiter.begin();
                self.apply_wait_step(pos, step);
            }
            CeMode::DoacrossSetup => {
                // Ticket reset landed: fan the loop out.
                self.dispatch_cluster(self.cluster_of(pos));
            }
            CeMode::DoacrossTicket { iter } => {
                if value == iter {
                    // Our turn: run the serialized region.
                    let cluster = self.cluster_of(pos);
                    let region = self.tasks[cluster]
                        .cur
                        .as_ref()
                        .expect("in doacross loop")
                        .serial_region;
                    self.set_mode(pos, CeMode::DoacrossRegion { iter });
                    self.start_compute(pos, region);
                } else {
                    // Not yet: re-read the ticket after a spin period.
                    let ticket = self.layout.words().ticket;
                    let period = self.cfg.rtl.barrier_spin_period;
                    self.start_delayed_word(pos, period, ticket, MemOp::Read);
                }
            }
            CeMode::DoacrossRegion { iter } => {
                // Region done: pass the ticket to the next iteration.
                let ticket = self.layout.words().ticket;
                self.set_mode(pos, CeMode::DoacrossExit { iter });
                self.start_word(pos, ticket, MemOp::Write(iter + 1));
            }
            CeMode::DoacrossExit { iter } => {
                let _ = iter;
                self.claim_inner_or_barrier(pos, Cycles::ZERO);
            }
            CeMode::TerminateWrite => {
                self.finished_at = Some(self.now);
                self.post(TraceEventId::ProgramEnd, pos, 0);
                self.set_mode(pos, CeMode::Stopped);
            }
            CeMode::CbusWait => unreachable!("no activity completes in {mode:?}"),
        }
    }

    fn advance_setup(&mut self, pos: usize, step: u8) {
        let words = self.layout.words();
        let posted = self.posted.clone().expect("posted loop during setup");
        match step {
            0 => {
                self.set_mode(pos, CeMode::SetupWrite { step: 1 });
                self.start_word(pos, words.index, MemOp::Write(0));
            }
            1 => {
                self.set_mode(pos, CeMode::SetupWrite { step: 2 });
                self.start_word(pos, words.descriptor, MemOp::Write(posted.outer as u64));
            }
            2 => {
                self.set_mode(pos, CeMode::SetupWrite { step: 3 });
                let desc = LoopDescriptor {
                    kind: posted.kind,
                    seq: posted.seq,
                    total_iters: posted.outer,
                };
                self.start_word(pos, words.activity, MemOp::Write(desc.activity_word()));
            }
            3 => {
                self.post(TraceEventId::LoopSetupExit, pos, posted.kind.code());
                let cluster = self.cluster_of(pos);
                self.enter_posted_loop(cluster, posted.outer);
            }
            _ => unreachable!("setup has four steps"),
        }
    }

    // ---- entering loops ------------------------------------------------

    /// A cluster (main after setup, helper after join) enters the posted
    /// loop.
    pub(crate) fn enter_posted_loop(&mut self, cluster: usize, observed_total: u32) {
        let posted = self.posted.clone().expect("a loop is posted");
        debug_assert_eq!(observed_total, posted.outer, "descriptor round trip");
        self.tasks[cluster].cur = Some(LoopCtx {
            kind: posted.kind,
            outer_total: posted.outer,
            inner_total: posted.inner,
            body: posted.body.clone(),
            serial_region: Cycles::ZERO,
            inner_next: 0,
            outer_current: 0,
        });
        let lead = self.lead_of(cluster);
        match posted.kind {
            LoopKind::Sdoall => {
                // Only the lead touches the global iteration lock; the
                // cluster's CEs wait for the inner dispatch.
                self.begin_outer_claim(lead);
            }
            LoopKind::Xdoall => {
                // Every CE competes for iterations independently, after
                // the concurrency-bus dispatch fans them out (§2).
                let dispatch = self.cfg.hw.cluster.cbus_dispatch;
                for pos in self.cluster_ces(cluster) {
                    self.begin_flat_claim(pos, dispatch);
                }
            }
            LoopKind::Cluster | LoopKind::Doacross => {
                unreachable!("cluster loops are not posted to helpers")
            }
        }
    }

    /// Fans a cluster-only loop (or a claimed outer chunk) out across the
    /// cluster's CEs.
    pub(crate) fn dispatch_cluster(&mut self, cluster: usize) {
        let dispatch = self.cfg.hw.cluster.cbus_dispatch;
        for pos in self.cluster_ces(cluster) {
            self.claim_inner_or_barrier(pos, dispatch);
        }
    }

    fn begin_outer_claim(&mut self, lead: usize) {
        let cluster = self.cluster_of(lead);
        let kind = self.tasks[cluster].cur.as_ref().expect("in loop").kind;
        let (outer_total, words, backoff) = {
            let ctx = self.tasks[cluster].cur.as_ref().unwrap();
            (
                ctx.outer_total,
                self.layout.words(),
                self.cfg.rtl.lock_backoff,
            )
        };
        self.post(TraceEventId::PickIterEnter, lead, kind.code());
        self.set_mode(lead, CeMode::ClaimOuter);
        let mut claimer = IterClaimer::new(words, outer_total, backoff);
        let step = claimer.begin();
        self.tasks[cluster].outer_claimer = Some(claimer);
        self.apply_outer_claim(lead, step);
    }

    fn begin_flat_claim(&mut self, pos: usize, extra_delay: Cycles) {
        let cluster = self.cluster_of(pos);
        let ctx = self.tasks[cluster].cur.as_ref().expect("in loop");
        let total = ctx.outer_total;
        let words = self.layout.words();
        let backoff = self.cfg.rtl.lock_backoff;
        self.post(TraceEventId::PickIterEnter, pos, loop_kind_code::XDOALL);
        self.set_mode(pos, CeMode::ClaimFlat);
        let mut claimer = IterClaimer::new(words, total, backoff);
        let step = claimer.begin();
        self.ces[pos].claimer = Some(claimer);
        match step {
            ClaimStep::Issue(wi) => {
                self.start_delayed_word(pos, wi.after + extra_delay, wi.addr, wi.op)
            }
            _ => unreachable!("begin() always issues"),
        }
    }

    fn apply_outer_claim(&mut self, pos: usize, step: ClaimStep) {
        let cluster = self.cluster_of(pos);
        match step {
            ClaimStep::Issue(wi) => self.issue(pos, wi),
            ClaimStep::Claimed(o) => {
                self.post(TraceEventId::PickIterExit, pos, loop_kind_code::SDOALL);
                {
                    let ctx = self.tasks[cluster].cur.as_mut().expect("in loop");
                    ctx.outer_current = o;
                    ctx.inner_next = 0;
                }
                self.dispatch_cluster(cluster);
            }
            ClaimStep::Exhausted => {
                self.post(TraceEventId::PickIterExit, pos, loop_kind_code::SDOALL);
                self.tasks[cluster].outer_claimer = None;
                self.leave_loop(pos);
            }
        }
    }

    fn apply_flat_claim(&mut self, pos: usize, step: ClaimStep) {
        match step {
            ClaimStep::Issue(wi) => self.issue(pos, wi),
            ClaimStep::Claimed(i) => {
                self.post(TraceEventId::PickIterExit, pos, loop_kind_code::XDOALL);
                self.begin_body(pos, i as u64, Cycles::ZERO);
            }
            ClaimStep::Exhausted => {
                self.post(TraceEventId::PickIterExit, pos, loop_kind_code::XDOALL);
                self.ces[pos].claimer = None;
                self.cbus_arrive(pos);
            }
        }
    }

    /// A task's lead leaves the current loop (outer iterations exhausted
    /// and, for flat loops, the cluster barrier passed).
    fn leave_loop(&mut self, pos: usize) {
        let cluster = self.cluster_of(pos);
        match self.tasks[cluster].role {
            Role::Main => {
                self.tasks[cluster].cur = None;
                self.post(TraceEventId::FinishBarrierEnter, pos, 0);
                self.set_mode(pos, CeMode::FinishSpin);
                let step = self.tasks[0].finish.begin();
                self.apply_finish_step(pos, step);
            }
            Role::Helper => {
                // Decision-time ground truth: the detach is committed now;
                // the fetch-add packet is the traffic it costs.
                self.joined_truth -= 1;
                self.set_mode(pos, CeMode::DetachAdd);
                let joined = self.layout.words().joined;
                self.start_word(pos, joined, MemOp::FetchAdd(-1));
            }
        }
    }

    fn apply_finish_step(&mut self, pos: usize, step: BarrierStep) {
        match step {
            BarrierStep::Issue(wi) => self.issue(pos, wi),
            BarrierStep::Released => {
                if self.joined_truth != 0 {
                    // A helper's join fetch-add is still in flight; the
                    // observed zero is stale. Keep spinning.
                    let step = self.tasks[0].finish.begin();
                    self.apply_finish_step(pos, step);
                    return;
                }
                self.post(TraceEventId::FinishBarrierExit, pos, 0);
                self.tasks[0].cur = None;
                self.next_phase();
            }
        }
    }

    fn apply_wait_step(&mut self, pos: usize, step: WaitStep) {
        match step {
            WaitStep::Issue(wi) => self.issue(pos, wi),
            WaitStep::NewWork { seq, kind } => {
                let _ = (seq, kind);
                self.post(TraceEventId::WaitForWorkExit, pos, kind.code());
                // Commit the join at decision time (see leave_loop).
                self.joined_truth += 1;
                self.set_mode(pos, CeMode::JoinAdd);
                let joined = self.layout.words().joined;
                self.start_word(pos, joined, MemOp::FetchAdd(1));
            }
            WaitStep::Terminate => {
                // Helper stops through a task-stop system call.
                let cluster = self.cluster_of(pos);
                self.charge_syscall(cluster, SyscallKind::TaskStop);
                self.post(TraceEventId::WaitForWorkExit, pos, TERMINATE_CODE);
                self.set_mode(pos, CeMode::Stopped);
            }
        }
    }

    // ---- bodies ---------------------------------------------------------

    /// Claims the next inner (`cdoall`) iteration for CE `pos`, or sends
    /// it to the cluster barrier when the chunk is exhausted.
    pub(crate) fn claim_inner_or_barrier(&mut self, pos: usize, extra_delay: Cycles) {
        let cluster = self.cluster_of(pos);
        let claimed = {
            let ctx = self.tasks[cluster].cur.as_mut().expect("in loop");
            if ctx.inner_next < ctx.inner_total {
                let i = ctx.inner_next;
                ctx.inner_next += 1;
                Some((i, ctx.outer_current, ctx.inner_total))
            } else {
                None
            }
        };
        match claimed {
            Some((i, outer, inner_total)) => {
                let iter = outer as u64 * inner_total as u64 + i as u64;
                let claim = self.cfg.rtl.inner_claim;
                self.begin_body(pos, iter, extra_delay + claim);
            }
            None => self.cbus_arrive(pos),
        }
    }

    /// Starts executing one loop body: the jittered compute span, then
    /// the body's accesses.
    pub(crate) fn begin_body(&mut self, pos: usize, iter: u64, extra: Cycles) {
        let cluster = self.cluster_of(pos);
        let kind = self.tasks[cluster].cur.as_ref().expect("in loop").kind;
        self.post(TraceEventId::IterStart, pos, kind.code());
        self.set_mode(pos, CeMode::Body { iter, stage: 0 });
        let compute = {
            let ctx = self.tasks[cluster].cur.as_ref().unwrap();
            self.jittered(ctx.body.compute, ctx.body.jitter_pct)
        };
        self.start_compute(pos, extra + compute);
    }

    fn advance_body(&mut self, pos: usize, iter: u64, stage: u8) {
        let cluster = self.cluster_of(pos);
        let n_accesses = {
            let ctx = self.tasks[cluster].cur.as_ref().expect("in loop");
            ctx.body.accesses.len()
        };
        if (stage as usize) < n_accesses {
            let next = stage + 1;
            self.set_mode(pos, CeMode::Body { iter, stage: next });
            self.start_body_stage(pos, iter, next);
        } else {
            // Body complete.
            let kind = self.tasks[cluster].cur.as_ref().unwrap().kind;
            self.post(TraceEventId::IterEnd, pos, kind.code());
            self.scratch.bump(super::SCRATCH_BODIES);
            match kind {
                LoopKind::Doacross => {
                    // Enter the serialized region in iteration order.
                    let ticket = self.layout.words().ticket;
                    self.set_mode(pos, CeMode::DoacrossTicket { iter });
                    self.start_word(pos, ticket, MemOp::Read);
                }
                LoopKind::Xdoall => {
                    self.post(TraceEventId::PickIterEnter, pos, loop_kind_code::XDOALL);
                    self.set_mode(pos, CeMode::ClaimFlat);
                    let step = self.ces[pos]
                        .claimer
                        .as_mut()
                        .expect("flat claimer persists across bodies")
                        .begin();
                    self.apply_flat_claim(pos, step);
                }
                _ => self.claim_inner_or_barrier(pos, Cycles::ZERO),
            }
        }
    }

    /// Starts body stage `stage` (≥ 1): the access at index `stage − 1`.
    pub(crate) fn start_body_stage(&mut self, pos: usize, iter: u64, stage: u8) {
        let cluster = self.cluster_of(pos);
        let a = {
            let ctx = self.tasks[cluster].cur.as_ref().expect("in loop");
            ctx.body.accesses[(stage - 1) as usize]
        };
        self.start_access(pos, &a, iter);
    }

    /// Resolves and launches one vector access, handling demand paging.
    pub(crate) fn start_access(&mut self, pos: usize, a: &AccessPattern, iter: u64) {
        let access: VectorAccess = self.layout.resolve(a, iter, MemOp::Read);
        self.touch_pages(pos, &access);
        self.start_vector(pos, &access);
    }

    /// First-touch demand paging for an access: faults charge the OS
    /// buckets and extend the CE's activity via the penalty mechanism.
    fn touch_pages(&mut self, pos: usize, access: &VectorAccess) {
        let page_bytes = self.layout.page_bytes();
        let pages = pages_touched(access.base, access.words, access.stride_dwords, page_bytes);
        let ce_id = self.ce_id(pos);
        for page in pages {
            match self.vm.touch(page, ce_id, self.now) {
                PageTouch::Mapped => {}
                PageTouch::Fault {
                    class,
                    resume_at,
                    cost,
                    raise_cpi,
                } => {
                    let stall = resume_at - self.now;
                    self.charge_fault(pos, class, cost, stall);
                    if raise_cpi {
                        self.raise_cpi(self.cluster_of(pos));
                    }
                }
            }
        }
    }

    // ---- cluster barrier release ----------------------------------------

    /// All of a cluster's CEs reached the concurrency-bus barrier.
    pub(crate) fn on_cbus_release(&mut self, cluster: usize) {
        let kind = self.tasks[cluster].cur.as_ref().expect("in loop").kind;
        let lead = self.lead_of(cluster);
        // Non-lead CEs go back to gang-waiting.
        for pos in self.cluster_ces(cluster) {
            if pos != lead {
                self.set_mode(pos, CeMode::Idle);
            }
        }
        match kind {
            LoopKind::Sdoall => self.begin_outer_claim(lead),
            LoopKind::Xdoall => self.leave_loop(lead),
            LoopKind::Cluster | LoopKind::Doacross => {
                self.post(TraceEventId::ClusterLoopEnd, lead, kind.code());
                self.tasks[cluster].cur = None;
                self.next_phase();
            }
        }
    }

    // ---- helpers ---------------------------------------------------------

    fn issue(&mut self, pos: usize, wi: WordIssue) {
        self.start_delayed_word(pos, wi.after, wi.addr, wi.op);
    }

    /// The current serial phase's `idx`-th access, if any (by-value: the
    /// pattern is `Copy`, so the serial walk never clones the vector).
    fn serial_access(&self, idx: usize) -> Option<AccessPattern> {
        match self.program.phase(self.phase_idx - 1) {
            Some(CompiledPhase::Serial { accesses, .. }) => accesses.get(idx).copied(),
            _ => None,
        }
    }

    /// Applies per-execution jitter to a body's compute cost.
    pub(crate) fn jittered(&mut self, compute: Cycles, jitter_pct: u8) -> Cycles {
        if jitter_pct == 0 || compute == Cycles::ZERO {
            return compute;
        }
        let span = compute.0 * jitter_pct as u64 / 100;
        if span == 0 {
            return compute;
        }
        let lo = compute.0 - span / 2;
        Cycles(lo + self.rng.next_below(span + 1))
    }
}
