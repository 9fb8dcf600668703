//! The assembled Cedar machine: event loop and primitive operations.
//!
//! The machine owns every component (global-memory system, CE engines,
//! task state machines, OS models, monitors) and routes the master event
//! stream between them. Loop-protocol logic lives in `exec`; OS
//! activity handling lives in [`os`].

pub(crate) mod exec;
pub mod faults;
pub mod os;
pub mod state;

#[cfg(test)]
mod tests;

use cedar_apps::AppSpec;
use cedar_hw::cbus::CbusBarrier;
use cedar_hw::ce::{Activity, CeEngine};
use cedar_hw::config::CBUS_BARRIER;
use cedar_hw::{
    CeId, ClusterId, GlobalAddr, GlobalMemorySystem, MemOp, NetConfig, Step, VectorAccess,
};
use cedar_rtl::{FinishBarrier, WorkWaiter};
use cedar_sim::{Cycles, EventQueue, SimTime, SplitMix64};
use cedar_trace::qmon::ClusterUtilization;
use cedar_trace::{HpmMonitor, Statfx, TraceEventId, UserBucket};
use cedar_xylem::config::PAGE_BYTES;
use cedar_xylem::{AddressSpace, AstSchedule, DaemonSchedule, KernelLock, OsAccounting};

use crate::config::SimConfig;
use crate::events::{Ev, EV_CLASS_NAMES};
use crate::layout::MemoryLayout;
use crate::program::CompiledProgram;
use crate::result::RunResult;
use state::{Ce, CeMode, Role, Task};

/// Safety valve: [`Machine::run`] aborts once a run dispatches more
/// events than this.
const MAX_EVENTS: u64 = 4_000_000_000;

/// Counter name of each hold-histogram bucket, by index.
pub(crate) const HOLD_NAMES: [&str; cedar_sim::HOLD_BUCKETS] = [
    "queue.hold.p2_00",
    "queue.hold.p2_01",
    "queue.hold.p2_02",
    "queue.hold.p2_03",
    "queue.hold.p2_04",
    "queue.hold.p2_05",
    "queue.hold.p2_06",
    "queue.hold.p2_07",
    "queue.hold.p2_08",
    "queue.hold.p2_09",
    "queue.hold.p2_10",
    "queue.hold.p2_11",
    "queue.hold.p2_12",
    "queue.hold.p2_13",
    "queue.hold.p2_14",
    "queue.hold.p2_15",
];

/// The complete simulated machine for one run.
pub struct Machine {
    pub(crate) cfg: SimConfig,
    pub(crate) app_name: &'static str,
    pub(crate) layout: MemoryLayout,
    pub(crate) program: CompiledProgram,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) gmem: GlobalMemorySystem,
    pub(crate) ces: Vec<Ce>,
    pub(crate) tasks: Vec<Task>,
    pub(crate) vm: AddressSpace,
    pub(crate) os_acct: OsAccounting,
    pub(crate) statfx: Statfx,
    pub(crate) hpm: HpmMonitor,
    pub(crate) cluster_locks: Vec<KernelLock>,
    pub(crate) global_lock: KernelLock,
    pub(crate) daemons: Vec<DaemonSchedule>,
    pub(crate) asts: Vec<AstSchedule>,
    pub(crate) background: Vec<cedar_xylem::BackgroundSchedule>,
    pub(crate) background_stolen: Cycles,
    /// Occurrence engine of the fault-injection campaign; `None` when
    /// the plan is empty, so the unperturbed machine carries no fault
    /// state at all.
    pub(crate) fault_driver: Option<cedar_faults::FaultDriver>,
    /// Cycles injected so far, per attribution surface.
    pub(crate) injected: faults::InjectedCost,
    pub(crate) rng: SplitMix64,
    pub(crate) joined_truth: i32,
    pub(crate) now: SimTime,
    pub(crate) finished_at: Option<SimTime>,
    pub(crate) loop_seq: u32,
    pub(crate) posted: Option<exec::PostedLoop>,
    pub(crate) phase_idx: usize,
    pub(crate) serial_counter: u64,
    /// Events dispatched so far.
    pub(crate) events: u64,
    /// Events dispatched so far, per class (indexed by [`Ev::class`]),
    /// except packet hops: the hop count is `events` minus the others,
    /// derived at rollup, so the hot path tallies nothing per hop.
    pub(crate) class_events: [u64; EV_CLASS_NAMES.len()],
    /// Loop bodies executed so far.
    pub(crate) bodies: u64,
    pub(crate) breakdowns: Vec<cedar_trace::TaskBreakdown>,
}

impl Machine {
    /// Builds the machine for `app` under `cfg`.
    pub fn new(app: &AppSpec, cfg: SimConfig) -> Self {
        let configuration = cfg.configuration();
        let n_clusters = configuration.clusters() as usize;
        let per = configuration.ces_per_cluster();
        let layout = MemoryLayout::new(app);
        let program = CompiledProgram::compile(app);
        let mut rng = SplitMix64::new(cfg.seed);

        let mut vm = AddressSpace::default();
        // The runtime data area (locks, flags, counters) is warmed before
        // the measured region; only application arrays demand-fault.
        let words = layout.words();
        for a in [
            words.activity,
            words.lock,
            words.index,
            words.descriptor,
            words.joined,
            words.ticket,
        ] {
            vm.premap(a.page(PAGE_BYTES));
        }

        let ces: Vec<Ce> = configuration
            .ces()
            .map(|id| Ce::new(CeEngine::new(id)))
            .collect();

        // The hpm trace buffer only matters when the run keeps a trace;
        // gating it here makes the per-event post() a no-op otherwise.
        let mut hpm = HpmMonitor::new();
        hpm.set_enabled(cfg.keep_trace);

        let tasks = (0..n_clusters)
            .map(|c| Task {
                role: if c == 0 { Role::Main } else { Role::Helper },
                waiter: WorkWaiter::new(words),
                finish: FinishBarrier::new(words),
                outer_claimer: None,
                barrier: CbusBarrier::new(per, CBUS_BARRIER),
                barrier_episode: 0,
                cur: None,
                lead_bucket: None,
                lead_since: Cycles::ZERO,
                lead_overlap: Cycles::ZERO,
            })
            .collect();

        let daemons = (0..n_clusters)
            .map(|_| DaemonSchedule::new(rng.next_u64()))
            .collect();
        let asts = (0..n_clusters)
            .map(|_| AstSchedule::new(rng.next_u64()))
            .collect();
        let background = cfg
            .background
            .map(|load| {
                (0..n_clusters)
                    .map(|_| cedar_xylem::BackgroundSchedule::new(load, rng.next_u64()))
                    .collect()
            })
            .unwrap_or_default();

        // Every configuration shares Cedar's one network (§3.2). A
        // degraded-network fault statically stretches its latencies;
        // everything downstream (min_round_trip, queueing stats) stays
        // consistent.
        let net = match cfg.faults.degraded_network {
            Some(d) => NetConfig::cedar().slowed(d.switch_pct, d.module_pct),
            None => NetConfig::cedar(),
        };
        let fault_driver = (!cfg.faults.is_empty())
            .then(|| cedar_faults::FaultDriver::new(&cfg.faults, n_clusters));

        Machine {
            app_name: app.name,
            layout,
            program,
            queue: EventQueue::new().with_tiebreak(cfg.tiebreak),
            gmem: GlobalMemorySystem::new(net),
            ces,
            tasks,
            vm,
            os_acct: OsAccounting::new(n_clusters as u8),
            statfx: Statfx::new(n_clusters as u8, per),
            hpm,
            cluster_locks: (0..n_clusters).map(|_| KernelLock::new()).collect(),
            global_lock: KernelLock::new(),
            daemons,
            asts,
            background,
            background_stolen: Cycles::ZERO,
            fault_driver,
            injected: faults::InjectedCost::default(),
            rng,
            joined_truth: 0,
            now: Cycles::ZERO,
            finished_at: None,
            loop_seq: 0,
            posted: None,
            phase_idx: 0,
            serial_counter: 0,
            events: 0,
            class_events: [0; EV_CLASS_NAMES.len()],
            bodies: 0,
            breakdowns: (0..n_clusters)
                .map(|_| cedar_trace::TaskBreakdown::new())
                .collect(),
            cfg,
        }
    }

    // ---- topology helpers -------------------------------------------

    /// Active CEs per cluster.
    pub(crate) fn per_cluster(&self) -> usize {
        self.cfg.configuration().ces_per_cluster() as usize
    }

    /// Cluster position of CE position `pos`.
    pub(crate) fn cluster_of(&self, pos: usize) -> usize {
        pos / self.per_cluster()
    }

    /// The hardware `CeId` of CE position `pos`: a CE's id is its
    /// position.
    pub(crate) fn ce_id(&self, pos: usize) -> CeId {
        CeId(pos as u16)
    }

    /// `true` if `pos` is its cluster's lead CE.
    pub(crate) fn is_lead(&self, pos: usize) -> bool {
        pos.is_multiple_of(self.per_cluster())
    }

    /// Lead CE position of cluster `cluster`.
    pub(crate) fn lead_of(&self, cluster: usize) -> usize {
        cluster * self.per_cluster()
    }

    /// CE positions of cluster `cluster`.
    pub(crate) fn cluster_ces(&self, cluster: usize) -> std::ops::Range<usize> {
        let per = self.per_cluster();
        cluster * per..(cluster + 1) * per
    }

    // ---- mode & accounting ------------------------------------------

    /// Transitions CE `pos` to `mode`, updating the concurrency monitor
    /// and (for lead CEs) the task's user-time bucket.
    pub(crate) fn set_mode(&mut self, pos: usize, mode: CeMode) {
        let was_busy = self.ces[pos].mode.is_busy();
        self.ces[pos].mode = mode;
        let ce_id = self.ce_id(pos);
        if mode.is_busy() && !was_busy {
            self.statfx.mark_busy(ce_id, self.now);
        } else if !mode.is_busy() && was_busy {
            self.statfx.mark_idle(ce_id, self.now);
        }
        if self.is_lead(pos) {
            let cluster = self.cluster_of(pos);
            let bucket = self.bucket_for(cluster, mode);
            self.set_lead_bucket(cluster, bucket);
        }
    }

    /// Maps a lead CE's mode to its Figure 4 bucket.
    fn bucket_for(&self, cluster: usize, mode: CeMode) -> Option<UserBucket> {
        let kind = self.tasks[cluster].cur.as_ref().map(|l| l.kind);
        match mode {
            CeMode::Idle | CeMode::Stopped => None,
            CeMode::SerialCompute | CeMode::SerialAccess { .. } | CeMode::TerminateWrite => {
                Some(UserBucket::Serial)
            }
            CeMode::SetupWrite { .. } => Some(UserBucket::LoopSetup),
            CeMode::FinishSpin => Some(UserBucket::BarrierWait),
            CeMode::WaitWork | CeMode::JoinAdd | CeMode::JoinRead | CeMode::DetachAdd => {
                Some(UserBucket::HelperWait)
            }
            CeMode::ClaimOuter => Some(UserBucket::PickupSdoall),
            CeMode::ClaimFlat => Some(UserBucket::PickupXdoall),
            CeMode::Body { .. } => match kind {
                Some(cedar_rtl::LoopKind::Cluster) | Some(cedar_rtl::LoopKind::Doacross) => {
                    Some(UserBucket::ClusterLoop)
                }
                _ => Some(UserBucket::IterExec),
            },
            CeMode::CbusWait => Some(UserBucket::ClusterSync),
            CeMode::DoacrossSetup
            | CeMode::DoacrossTicket { .. }
            | CeMode::DoacrossRegion { .. }
            | CeMode::DoacrossExit { .. } => Some(UserBucket::ClusterLoop),
        }
    }

    /// Charges the elapsed span to the cluster's current lead bucket and
    /// switches to `bucket`.
    pub(crate) fn set_lead_bucket(&mut self, cluster: usize, bucket: Option<UserBucket>) {
        let now = self.now;
        let task = &mut self.tasks[cluster];
        if let Some(old) = task.lead_bucket {
            let elapsed = now - task.lead_since;
            let overlap_used = task.lead_overlap.min(elapsed);
            task.lead_overlap -= overlap_used;
            self.breakdowns[cluster].charge(old, elapsed - overlap_used);
        } else {
            // No bucket was accruing; drop any overlap accrued while
            // unattributed.
            task.lead_overlap = Cycles::ZERO;
        }
        task.lead_bucket = bucket;
        task.lead_since = now;
    }

    // ---- primitive activity starts ----------------------------------

    /// Starts a pure-compute activity on CE `pos` and schedules its
    /// completion.
    pub(crate) fn start_compute(&mut self, pos: usize, dur: Cycles) {
        let gen = self.ces[pos].engine.begin(&Activity::Compute(dur));
        self.queue
            .schedule(self.now + dur, Ev::CeDone { ce: pos, gen });
    }

    /// Starts a compute delay after which `word` is issued (spin periods
    /// and lock backoff).
    pub(crate) fn start_delayed_word(
        &mut self,
        pos: usize,
        delay: Cycles,
        addr: GlobalAddr,
        op: MemOp,
    ) {
        if delay == Cycles::ZERO {
            self.start_word(pos, addr, op);
        } else {
            self.ces[pos].pending_word = Some((addr, op));
            self.start_compute(pos, delay);
        }
    }

    /// Issues a single-word global-memory operation from CE `pos`.
    pub(crate) fn start_word(&mut self, pos: usize, addr: GlobalAddr, op: MemOp) {
        self.ces[pos].engine.begin(&Activity::Word { addr, op });
        let ce_id = self.ce_id(pos);
        let (at, hop) = self.gmem.inject(ce_id, addr, op, self.now);
        self.queue.schedule(at, Ev::Gmem(hop));
    }

    /// Issues a vector burst from CE `pos`, pipelined one word per cycle.
    pub(crate) fn start_vector(&mut self, pos: usize, access: &VectorAccess) {
        assert!(access.words > 0, "empty vector access");
        self.ces[pos].engine.begin(&Activity::Vector(*access));
        let ce_id = self.ce_id(pos);
        for (k, addr) in access.addresses().enumerate() {
            let (at, hop) = self.gmem.inject(ce_id, addr, access.op, self.now);
            // Word k's first hop fires k cycles later (issue pipeline).
            self.queue.schedule(at + Cycles(k as u64), Ev::Gmem(hop));
        }
    }

    /// Posts a trace event for CE `pos`.
    pub(crate) fn post(&mut self, id: TraceEventId, pos: usize, arg: u32) {
        let ce = self.ce_id(pos);
        self.hpm.post(id, ce, arg, self.now);
    }

    // ---- intra-cluster barrier ---------------------------------------

    /// CE `pos` arrives at its cluster's concurrency-bus barrier.
    pub(crate) fn cbus_arrive(&mut self, pos: usize) {
        let cluster = self.cluster_of(pos);
        self.set_mode(pos, CeMode::CbusWait);
        let episode = self.tasks[cluster].barrier_episode;
        if let Some(release_at) = self.tasks[cluster].barrier.arrive(self.now) {
            self.queue
                .schedule(release_at, Ev::CbusRelease { cluster, episode });
        }
    }

    // ---- event loop ---------------------------------------------------

    /// Runs the program to completion and returns the measured results.
    ///
    /// The result carries the run's self-telemetry
    /// ([`RunResult::stats`]): wall-clock per phase (the event loop vs.
    /// result assembly; machine construction is timed by the caller,
    /// `crate::run::execute`) and the counter rollup.
    ///
    /// A packet hop, 99% of a FLO52 run's events, is handled inline: its
    /// successor goes back through [`EventQueue::reschedule`], and the
    /// stop check is skipped, since only a delivery or a CE, barrier or
    /// OS event can finish a task.
    ///
    /// # Panics
    ///
    /// Panics if the run dispatches more than 4 × 10⁹ events — a
    /// deadlock guard for malformed workloads.
    pub fn run(mut self) -> RunResult {
        let t_loop = std::time::Instant::now();
        self.startup();
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.events += 1;
            assert!(
                self.events <= MAX_EVENTS,
                "event bound exceeded at {} — likely deadlock or runaway workload",
                self.now
            );
            match ev {
                Ev::Gmem(hop) => match self.gmem.handle(hop, t) {
                    Step::Next(at, hop) => {
                        self.queue.reschedule(at, Ev::Gmem(hop));
                        continue;
                    }
                    Step::Delivered(resp) => self.on_response(resp),
                },
                ev => self.dispatch(ev),
            }
            if self.all_stopped() {
                break;
            }
        }
        assert!(
            self.finished_at.is_some(),
            "event queue drained before the main task finished (deadlock)"
        );
        let run_ns = t_loop.elapsed().as_nanos() as u64;
        let t_breakdown = std::time::Instant::now();
        let mut result = self.into_result();
        result.stats.run_ns = run_ns;
        result.stats.breakdown_ns = t_breakdown.elapsed().as_nanos() as u64;
        result
    }

    /// Tallies and handles every event but a packet hop, which
    /// [`run`](Self::run) handles inline.
    fn dispatch(&mut self, ev: Ev) {
        self.class_events[ev.class()] += 1;
        match ev {
            Ev::Gmem(_) => unreachable!("Machine::run handles packet hops inline"),
            Ev::CeDone { ce, gen } => {
                if self.ces[ce].engine.is_current(gen) {
                    self.on_activity_complete(ce, 0);
                }
            }
            Ev::CeResume { ce } => self.proceed(ce, self.ces[ce].stashed_value),
            Ev::CbusRelease { cluster, episode } => {
                if self.tasks[cluster].barrier_episode == episode {
                    self.tasks[cluster].barrier_episode += 1;
                    self.on_cbus_release(cluster);
                }
            }
            Ev::Daemon { cluster } => self.on_daemon(cluster),
            Ev::Ast { cluster } => self.on_ast(cluster),
            Ev::Background { cluster } => self.on_background(cluster),
            Ev::Fault { kind, cluster } => self.on_fault(kind, cluster),
        }
    }

    fn on_response(&mut self, resp: cedar_hw::MemResponse) {
        // A CE's activity completes only when every response has
        // arrived, and its next activity begins only after that, so the
        // engine's outstanding count covers every in-flight request of
        // the CE. CEs are numbered densely from 0, so a CE's id is its
        // position.
        let pos = resp.ce.0 as usize;
        if self.ces[pos].engine.outstanding() == 0 {
            return; // response for a stopped task's stray request
        }
        if self.ces[pos].engine.on_response() {
            self.on_activity_complete(pos, resp.value);
        }
    }

    /// Common completion path: finish the engine activity, serialize any
    /// pending OS penalty, then advance the protocol with `value`, the
    /// last response's value (zero for compute completions, which do not
    /// consume it).
    fn on_activity_complete(&mut self, pos: usize, value: u64) {
        self.ces[pos].engine.finish();
        let penalty = std::mem::take(&mut self.ces[pos].pending_penalty);
        if penalty > Cycles::ZERO {
            self.ces[pos].stashed_value = value;
            self.queue
                .schedule(self.now + penalty, Ev::CeResume { ce: pos });
        } else {
            self.proceed(pos, value);
        }
    }

    /// Issues a deferred word (spin/backoff pattern) or advances the
    /// protocol.
    fn proceed(&mut self, pos: usize, value: u64) {
        if let Some((addr, op)) = self.ces[pos].pending_word.take() {
            self.start_word(pos, addr, op);
        } else {
            self.advance(pos, value);
        }
    }

    /// Folds the machine's self-telemetry counters — per-class event
    /// totals and queue statistics (with the hold-distance histogram) —
    /// into one [`cedar_obs::Counters`] rollup.
    fn telemetry_counters(&self) -> cedar_obs::Counters {
        let mut c = cedar_obs::Counters::new();
        // Every event class is reported, zero or not, so the rollup's
        // names do not depend on traffic.
        c.add("events.total", self.events);
        let mut class_events = self.class_events;
        class_events[Ev::GMEM_CLASS] = self.events - class_events.iter().sum::<u64>();
        for (name, &count) in EV_CLASS_NAMES.iter().zip(&class_events) {
            c.add(name, count);
        }
        c.add("bodies", self.bodies);
        let q = self.queue.stats();
        c.add("queue.scheduled", q.scheduled);
        c.add("queue.popped", q.popped);
        c.record_max("queue.pending.peak", q.pending_peak);
        c.add("queue.overflow_spills", q.overflow_spills);
        c.record_max("queue.wheel.peak", q.wheel_peak);
        for (name, &count) in HOLD_NAMES.iter().zip(&q.hold_hist) {
            if count > 0 {
                c.add(name, count);
            }
        }
        // Fault-campaign counters only exist when a plan is armed, so an
        // empty plan leaves the rollup byte-identical to the pre-faults
        // machine.
        if !self.cfg.faults.is_empty() {
            c.add("faults.injected.cpi", self.injected.cpi.0);
            c.add("faults.injected.ast", self.injected.ast.0);
            c.add("faults.injected.pgflt_seq", self.injected.pgflt_seq.0);
            c.add("faults.injected.pgflt_conc", self.injected.pgflt_conc.0);
            c.add("faults.injected.stall", self.injected.stall.0);
            c.add("faults.injected.lock_cluster", self.injected.lock_cluster.0);
            c.add("faults.injected.lock_global", self.injected.lock_global.0);
            let (inj_seq, inj_conc) = self.vm.injected_faults();
            c.add("faults.count.pgflt_seq", inj_seq);
            c.add("faults.count.pgflt_conc", inj_conc);
            if let Some(driver) = &self.fault_driver {
                for kind in cedar_faults::FaultKind::ALL {
                    c.add(kind.counter_name(), driver.occurrences(kind));
                }
            }
            let waiter_stalled: u64 = self.tasks.iter().map(|t| t.waiter.stalled().0).sum();
            c.add("faults.waiter_stalled", waiter_stalled);
        }
        c
    }

    /// Assembles the run's measurements.
    fn into_result(mut self) -> RunResult {
        let ct = self.finished_at.expect("run finished");
        self.now = ct;
        // Flush the lead buckets at completion time.
        for cluster in 0..self.tasks.len() {
            self.set_lead_bucket(cluster, None);
        }
        let n = self.tasks.len();
        let utilization = (0..n)
            .map(|c| ClusterUtilization::from_accounting(self.os_acct.cluster(ClusterId(c as u8))))
            .collect();
        let concurrency = (0..n)
            .map(|c| self.statfx.cluster_average(ClusterId(c as u8), ct))
            .collect();
        let stats = cedar_obs::RunStats {
            counters: self.telemetry_counters(),
            ..cedar_obs::RunStats::default()
        };
        RunResult {
            app: self.app_name,
            configuration: self.cfg.configuration(),
            completion_time: ct,
            breakdowns: self.breakdowns,
            utilization,
            os: self.os_acct,
            concurrency,
            gmem: self.gmem.stats(),
            background_stolen: self.background_stolen,
            bodies: self.bodies,
            faults: (self.vm.seq_faults(), self.vm.conc_faults()),
            events: self.events,
            trace: if self.cfg.keep_trace {
                Some(self.hpm.into_events())
            } else {
                None
            },
            stats,
        }
    }

    fn all_stopped(&self) -> bool {
        if self.finished_at.is_none() {
            return false;
        }
        (1..self.tasks.len()).all(|c| self.ces[self.lead_of(c)].mode == CeMode::Stopped)
    }
}
