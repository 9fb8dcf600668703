//! Loop-protocol execution: phase sequencing, SDOALL/CDOALL and XDOALL
//! orchestration, body execution and the finish barrier.

use cedar_apps::{AccessPattern, BodySpec, Phase};
use cedar_hw::addr::pages_touched;
use cedar_hw::config::CBUS_DISPATCH;
use cedar_hw::{MemOp, VectorAccess};
use cedar_rtl::config::{BARRIER_SPIN_PERIOD, INNER_CLAIM, JOIN_LOCAL, LOCK_BACKOFF, SETUP_LOCAL};
use cedar_rtl::loops::{pack_activity, TERMINATE_CODE};
use cedar_rtl::{BarrierStep, ClaimStep, IterClaimer, LoopKind, WaitStep, WordIssue};
use cedar_sim::Cycles;
use cedar_trace::TraceEventId;
use cedar_xylem::config::PAGE_BYTES;
use cedar_xylem::PageTouch;

use super::state::{CeMode, LoopCtx};
use super::Machine;

/// The loop the main task posted last (ground truth shared with joining
/// helpers; the real runtime reads this from the descriptor words, which
/// the simulated helpers also do for timing).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PostedLoop {
    /// The loop's sequence number, as the activity word carries it.
    pub(crate) seq: u32,
    /// Index of the loop's phase.
    pub(crate) phase: usize,
}

/// A loop phase as the runtime runs it: `outer` iterations, each of
/// `inner` bodies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopShape<'a> {
    pub(crate) kind: LoopKind,
    pub(crate) outer: u32,
    pub(crate) inner: u32,
    pub(crate) body: &'a BodySpec,
    /// DOACROSS: serialized-region work per iteration (zero otherwise).
    pub(crate) serial_region: Cycles,
}

/// How a Cedar Fortran construct maps onto the runtime's outer/inner
/// split: a cluster loop runs 1 × iters, an SDOALL outer × inner, an
/// XDOALL iters × 1 and a DOACROSS 1 × iters with its serialized region.
/// `None` for serial code.
pub(crate) fn loop_shape(phase: &Phase) -> Option<LoopShape<'_>> {
    let zero = Cycles::ZERO;
    let (kind, outer, inner, body, serial_region) = match phase {
        Phase::Serial { .. } => return None,
        Phase::ClusterLoop { iters, body } => (LoopKind::Cluster, 1, *iters, body, zero),
        Phase::Sdoall { outer, inner, body } => (LoopKind::Sdoall, *outer, *inner, body, zero),
        Phase::Xdoall { iters, body } => (LoopKind::Xdoall, *iters, 1, body, zero),
        Phase::Doacross {
            iters,
            body,
            serial_region,
        } => (LoopKind::Doacross, 1, *iters, body, *serial_region),
        Phase::Repeat { .. } => unreachable!("the machine runs flattened phases"),
    };
    Some(LoopShape {
        kind,
        outer,
        inner,
        body,
        serial_region,
    })
}

impl Machine {
    // ---- program start / end ----------------------------------------

    /// Charges task-creation syscalls, starts the helpers spinning, arms
    /// the timers and enters the first phase.
    pub(crate) fn startup(&mut self) {
        self.post(TraceEventId::ProgramStart, 0, 0);
        // The runtime creates and starts one helper task per non-master
        // cluster through global system calls (§2).
        for cluster in 1..self.tasks.len() {
            // Task create and task start.
            self.charge_syscall(0);
            self.charge_syscall(0);
            let lead = self.lead_of(cluster);
            self.set_mode(lead, CeMode::WaitWork);
            self.post(TraceEventId::WaitForWorkEnter, lead, 0);
            let step = self.tasks[cluster].waiter.begin();
            self.apply_wait_step(lead, step);
        }
        self.arm_timers();
        self.next_phase();
    }

    /// Advances the main task to its next phase (or termination).
    pub(crate) fn next_phase(&mut self) {
        let lead = 0;
        let phase = self.phase_idx;
        self.phase_idx += 1;
        let kind = match self.phases.get(phase) {
            Some(&Phase::Serial { work, .. }) => {
                self.post(TraceEventId::SerialStart, lead, 0);
                self.set_mode(lead, CeMode::SerialCompute);
                self.start_compute(lead, work);
                return;
            }
            Some(_) => self.shape_of(phase).kind,
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
        self.loop_seq += 1;
        if kind.is_cross_cluster() {
            // SDOALL / XDOALL: post to global memory so helpers can join.
            self.post(TraceEventId::MainEncounterLoop, lead, kind.code());
            self.post(TraceEventId::LoopSetupEnter, lead, kind.code());
            self.posted = Some(PostedLoop {
                seq: self.loop_seq,
                phase,
            });
            self.set_mode(lead, CeMode::SetupWrite { step: 0 });
            self.start_compute(lead, SETUP_LOCAL);
        } else {
            // Main-cluster-only loop: no posting, no helpers.
            self.post(TraceEventId::ClusterLoopStart, lead, kind.code());
            self.tasks[0].cur = Some(LoopCtx::new(phase));
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
                let seq = self.posted.expect("loop posted").seq;
                self.tasks[cluster].waiter.mark_seen(seq);
                self.ces[pos].pending_penalty += JOIN_LOCAL;
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
                    let region = self.running_loop(self.cluster_of(pos)).serial_region;
                    self.set_mode(pos, CeMode::DoacrossRegion { iter });
                    self.start_compute(pos, region);
                } else {
                    // Not yet: re-read the ticket after a spin period.
                    let ticket = self.layout.words().ticket;
                    self.start_delayed_word(pos, BARRIER_SPIN_PERIOD, ticket, MemOp::Read);
                }
            }
            CeMode::DoacrossRegion { iter } => {
                // Region done: pass the ticket to the next iteration.
                let ticket = self.layout.words().ticket;
                self.set_mode(pos, CeMode::DoacrossExit);
                self.start_word(pos, ticket, MemOp::Write(iter + 1));
            }
            CeMode::DoacrossExit => self.claim_inner_or_barrier(pos, Cycles::ZERO),
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
        let (posted, shape) = self.posted_loop();
        let (kind, outer) = (shape.kind, shape.outer);
        match step {
            0 => {
                self.set_mode(pos, CeMode::SetupWrite { step: 1 });
                self.start_word(pos, words.index, MemOp::Write(0));
            }
            1 => {
                self.set_mode(pos, CeMode::SetupWrite { step: 2 });
                self.start_word(pos, words.descriptor, MemOp::Write(outer as u64));
            }
            2 => {
                self.set_mode(pos, CeMode::SetupWrite { step: 3 });
                let word = pack_activity(posted.seq, kind.code());
                self.start_word(pos, words.activity, MemOp::Write(word));
            }
            3 => {
                self.post(TraceEventId::LoopSetupExit, pos, kind.code());
                let cluster = self.cluster_of(pos);
                self.enter_posted_loop(cluster, outer);
            }
            _ => unreachable!("setup has four steps"),
        }
    }

    // ---- entering loops ------------------------------------------------

    /// A cluster (main after setup, helper after join) enters the posted
    /// loop.
    pub(crate) fn enter_posted_loop(&mut self, cluster: usize, observed_total: u32) {
        let (posted, shape) = self.posted_loop();
        let kind = shape.kind;
        debug_assert_eq!(observed_total, shape.outer, "descriptor round trip");
        self.tasks[cluster].cur = Some(LoopCtx::new(posted.phase));
        let lead = self.lead_of(cluster);
        match kind {
            LoopKind::Sdoall => {
                // Only the lead touches the global iteration lock; the
                // cluster's CEs wait for the inner dispatch.
                self.begin_outer_claim(lead);
            }
            LoopKind::Xdoall => {
                // Every CE competes for iterations independently, after
                // the concurrency-bus dispatch fans them out (§2).
                for pos in self.cluster_ces(cluster) {
                    self.begin_flat_claim(pos, CBUS_DISPATCH);
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
        for pos in self.cluster_ces(cluster) {
            self.claim_inner_or_barrier(pos, CBUS_DISPATCH);
        }
    }

    fn begin_outer_claim(&mut self, lead: usize) {
        let cluster = self.cluster_of(lead);
        let running = self.running_loop(cluster);
        let (kind, outer_total) = (running.kind, running.outer);
        let words = self.layout.words();
        self.post(TraceEventId::PickIterEnter, lead, kind.code());
        self.set_mode(lead, CeMode::ClaimOuter);
        let mut claimer = IterClaimer::new(words, outer_total, LOCK_BACKOFF);
        let step = claimer.begin();
        self.tasks[cluster].outer_claimer = Some(claimer);
        self.apply_outer_claim(lead, step);
    }

    fn begin_flat_claim(&mut self, pos: usize, extra_delay: Cycles) {
        let total = self.running_loop(self.cluster_of(pos)).outer;
        let words = self.layout.words();
        self.post(TraceEventId::PickIterEnter, pos, LoopKind::Xdoall.code());
        self.set_mode(pos, CeMode::ClaimFlat);
        let mut claimer = IterClaimer::new(words, total, LOCK_BACKOFF);
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
                self.post(TraceEventId::PickIterExit, pos, LoopKind::Sdoall.code());
                let ctx = self.tasks[cluster].cur.as_mut().expect("in loop");
                ctx.outer_current = o;
                ctx.inner_next = 0;
                self.dispatch_cluster(cluster);
            }
            ClaimStep::Exhausted => {
                self.post(TraceEventId::PickIterExit, pos, LoopKind::Sdoall.code());
                self.tasks[cluster].outer_claimer = None;
                self.leave_loop(pos);
            }
        }
    }

    fn apply_flat_claim(&mut self, pos: usize, step: ClaimStep) {
        match step {
            ClaimStep::Issue(wi) => self.issue(pos, wi),
            ClaimStep::Claimed(i) => {
                self.post(TraceEventId::PickIterExit, pos, LoopKind::Xdoall.code());
                self.begin_body(pos, i as u64, Cycles::ZERO);
            }
            ClaimStep::Exhausted => {
                self.post(TraceEventId::PickIterExit, pos, LoopKind::Xdoall.code());
                self.ces[pos].claimer = None;
                self.cbus_arrive(pos);
            }
        }
    }

    /// A task's lead leaves the current loop (outer iterations exhausted
    /// and, for flat loops, the cluster barrier passed).
    fn leave_loop(&mut self, pos: usize) {
        let cluster = self.cluster_of(pos);
        if cluster == 0 {
            // The main task.
            self.tasks[cluster].cur = None;
            self.post(TraceEventId::FinishBarrierEnter, pos, 0);
            self.set_mode(pos, CeMode::FinishSpin);
            let step = self.tasks[0].finish.begin();
            self.apply_finish_step(pos, step);
        } else {
            // A helper. Decision-time ground truth: the detach is
            // committed now; the fetch-add packet is the traffic it costs.
            self.joined_truth -= 1;
            self.set_mode(pos, CeMode::DetachAdd);
            let joined = self.layout.words().joined;
            self.start_word(pos, joined, MemOp::FetchAdd(-1));
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
            WaitStep::NewWork { kind, .. } => {
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
                self.charge_syscall(cluster); // task stop
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
        let inner = self.running_loop(cluster).inner;
        let ctx = self.tasks[cluster].cur.as_mut().expect("in loop");
        if ctx.inner_next < inner {
            let iter = ctx.outer_current as u64 * inner as u64 + ctx.inner_next as u64;
            ctx.inner_next += 1;
            self.begin_body(pos, iter, extra_delay + INNER_CLAIM);
        } else {
            self.cbus_arrive(pos);
        }
    }

    /// Starts executing one loop body: the jittered compute span, then
    /// the body's accesses.
    pub(crate) fn begin_body(&mut self, pos: usize, iter: u64, extra: Cycles) {
        let running = self.running_loop(self.cluster_of(pos));
        let (kind, body) = (running.kind, running.body);
        let (compute, jitter_pct) = (body.compute, body.jitter_pct);
        self.post(TraceEventId::IterStart, pos, kind.code());
        self.set_mode(pos, CeMode::Body { iter, stage: 0 });
        let compute = self.jittered(compute, jitter_pct);
        self.start_compute(pos, extra + compute);
    }

    /// Body stage `stage` ended: starts the access at index `stage`, or
    /// completes the body.
    fn advance_body(&mut self, pos: usize, iter: u64, stage: u8) {
        let running = self.running_loop(self.cluster_of(pos));
        let kind = running.kind;
        if let Some(&a) = running.body.accesses.get(stage as usize) {
            self.set_mode(
                pos,
                CeMode::Body {
                    iter,
                    stage: stage + 1,
                },
            );
            self.start_access(pos, &a, iter);
            return;
        }
        self.post(TraceEventId::IterEnd, pos, kind.code());
        self.bodies += 1;
        match kind {
            LoopKind::Doacross => {
                // Enter the serialized region in iteration order.
                let ticket = self.layout.words().ticket;
                self.set_mode(pos, CeMode::DoacrossTicket { iter });
                self.start_word(pos, ticket, MemOp::Read);
            }
            LoopKind::Xdoall => {
                self.post(TraceEventId::PickIterEnter, pos, LoopKind::Xdoall.code());
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

    /// Resolves and launches one vector access, handling demand paging.
    pub(crate) fn start_access(&mut self, pos: usize, a: &AccessPattern, iter: u64) {
        let access: VectorAccess = self.layout.resolve(a, iter, MemOp::Read);
        self.touch_pages(pos, &access);
        self.start_vector(pos, &access);
    }

    /// First-touch demand paging for an access: faults charge the OS
    /// buckets and extend the CE's activity via the penalty mechanism.
    fn touch_pages(&mut self, pos: usize, access: &VectorAccess) {
        let pages = pages_touched(access.base, access.words, access.stride_dwords, PAGE_BYTES);
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
        let kind = self.running_loop(cluster).kind;
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
        match self.phases.get(self.phase_idx - 1) {
            Some(Phase::Serial { accesses, .. }) => accesses.get(idx).copied(),
            _ => None,
        }
    }

    /// The shape of loop phase `phase`.
    fn shape_of(&self, phase: usize) -> LoopShape<'_> {
        loop_shape(&self.phases[phase]).expect("a loop phase")
    }

    /// The loop cluster `cluster`'s task is running.
    pub(crate) fn running_loop(&self, cluster: usize) -> LoopShape<'_> {
        self.shape_of(self.tasks[cluster].cur.as_ref().expect("in loop").phase)
    }

    /// The loop the main task posted last, and its shape.
    fn posted_loop(&self) -> (PostedLoop, LoopShape<'_>) {
        let posted = self.posted.expect("a loop is posted");
        (posted, self.shape_of(posted.phase))
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

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;

    #[test]
    fn constructs_map_to_loop_kinds() {
        let phases = synthetic::uniform_xdoall(1, 1, 16, 100, 4).flattened();
        let kinds: Vec<_> = phases
            .iter()
            .filter_map(loop_shape)
            .map(|s| s.kind)
            .collect();
        assert_eq!(kinds, vec![LoopKind::Xdoall]);
    }

    #[test]
    fn sdoall_keeps_outer_inner_split() {
        let phases = synthetic::uniform_sdoall(1, 1, 4, 8, 100, 4).flattened();
        let found = phases.iter().filter_map(loop_shape).any(|s| {
            matches!(
                s,
                LoopShape {
                    kind: LoopKind::Sdoall,
                    outer: 4,
                    inner: 8,
                    ..
                }
            )
        });
        assert!(found);
    }

    #[test]
    fn xdoall_has_inner_one() {
        let phases = synthetic::uniform_xdoall(1, 1, 16, 100, 4).flattened();
        for shape in phases.iter().filter_map(loop_shape) {
            assert_eq!(shape.inner, 1);
        }
    }

    #[test]
    fn total_bodies_matches_spec() {
        let app = synthetic::uniform_sdoall(3, 2, 4, 8, 100, 4);
        let bodies: u64 = app
            .flattened()
            .iter()
            .filter_map(loop_shape)
            .map(|s| s.outer as u64 * s.inner as u64)
            .sum();
        assert_eq!(bodies, app.total_bodies());
    }
}
