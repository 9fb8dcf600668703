//! The complete global-memory system: forward network, memory modules and
//! reverse network, composed as one event-driven component.

use std::hint::select_unpredictable;
use std::ops::Range;

use cedar_sim::stats::LatencyHistogram;
use cedar_sim::{Cycles, SimTime};

use crate::addr::GlobalAddr;
use crate::config::NetConfig;
use crate::module::MemoryModule;
use crate::packet::{GmemEvent, Hop, MemOp, MemResponse};
use crate::route::{self, RADIX};
use crate::switch::PortServer;
use crate::topology::{CeId, CLUSTERS, CLUSTER_PORTS, MODULES};

/// FCFS layers a packet crosses after injection, one per hop before
/// `Delivered`: forward stage 1, forward stage 2, the modules, reverse
/// stage 1, reverse stage 2.
const LAYERS: usize = Hop::NEXT.len();

/// Servers per layer: a network stage has 4 switches of 8 output ports,
/// and there are 32 modules.
const SERVERS_PER_LAYER: usize = MODULES;

/// What one hop of a packet leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The packet's next hop, to be scheduled at the given time.
    Next(SimTime, GmemEvent),
    /// The round trip is complete; the response is addressed to the
    /// issuing CE.
    Delivered(MemResponse),
}

/// Aggregate contention statistics for a run.
#[derive(Debug, Clone)]
pub struct GmemStats {
    /// Packets injected into the forward network.
    pub packets: u64,
    /// Queueing delay at the shared per-cluster injection paths.
    pub cluster_path_queued: Cycles,
    /// Total queueing delay in forward-network switch ports.
    pub fwd_queued: Cycles,
    /// Total queueing delay in reverse-network switch ports.
    pub rev_queued: Cycles,
    /// Total queueing delay at memory modules.
    pub module_queued: Cycles,
    /// Per-module request counts (hot-spot detection).
    pub module_requests: Vec<u64>,
    /// Per-module synchronization-request counts.
    pub module_sync_requests: Vec<u64>,
    /// End-to-end round-trip latency distribution.
    pub latency: LatencyHistogram,
    /// Contention-free round-trip for comparison.
    pub min_round_trip: Cycles,
}

impl GmemStats {
    /// Total queueing delay anywhere in the memory system.
    pub fn total_queued(&self) -> Cycles {
        self.cluster_path_queued + self.fwd_queued + self.rev_queued + self.module_queued
    }

    /// Mean queueing delay per packet.
    pub fn mean_queued_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_queued().0 as f64 / self.packets as f64
        }
    }
}

/// The index in [`GlobalMemorySystem`]'s table of the server a packet
/// from `ce` to `module` crosses at `hop`, any hop but `Delivered`. Each
/// CE has its own Global Interface into the network (§2), so CE ids are
/// the forward network's inputs and the reverse network's outputs.
///
/// A layer's servers start at `hop × 32`. A network stage numbers its
/// ports switch-major, so a stage-2 port's number is its endpoint, and
/// so is a module's. Hops of every kind interleave in the event stream,
/// so the index is chosen by selects: a branch on the hop is hard to
/// predict.
#[inline(always)]
fn server(hop: Hop, ce: u16, module: u16) -> usize {
    let reverse = hop as u8 >= Hop::RevStage1 as u8;
    let src = select_unpredictable(reverse, module, ce);
    let dst = select_unpredictable(reverse, ce, module);
    let stage1 = route::stage1_switch(src) * RADIX as u16 + route::stage1_port(dst);
    let stage2 = route::stage2_switch(dst) * RADIX as u16 + route::stage2_port(dst);
    let first = (hop == Hop::FwdStage1) | (hop == Hop::RevStage1);
    hop as usize * SERVERS_PER_LAYER + usize::from(select_unpredictable(first, stage1, stage2))
}

/// Forward network + 32 memory modules + reverse network.
///
/// Drive it with [`inject`](Self::inject), which returns a packet's
/// first hop, and feed each hop back through [`handle`](Self::handle),
/// which returns the next one. When a round trip completes, `handle`
/// returns the [`MemResponse`], addressed to the issuing CE.
///
/// Every FCFS resource a packet crosses after injection is one
/// [`PortServer`] in a single table, layer by layer in route order, with
/// each layer's occupancy and onward latency from [`NetConfig`]; the
/// modules keep only their words and request counts.
#[derive(Debug)]
pub struct GlobalMemorySystem {
    cfg: NetConfig,
    /// The switch output ports and modules, `SERVERS_PER_LAYER` per
    /// layer; see [`server`].
    servers: [PortServer; LAYERS * SERVERS_PER_LAYER],
    /// Each layer's service time per packet: port occupancy, or the
    /// module's busy time.
    occupancy: [Cycles; LAYERS],
    /// Each layer's time from the end of service to the next hop: the
    /// stage latency, the module's DRAM access, or the last stage's
    /// latency plus delivery to the CE.
    onward: [Cycles; LAYERS],
    modules: Vec<MemoryModule>,
    /// Each cluster's shared injection path (round-robin over its ports).
    cluster_paths: [[PortServer; CLUSTER_PORTS]; CLUSTERS],
    cluster_rr: [usize; CLUSTERS],
    /// Packets that have crossed forward stage 1, counted once each.
    packets: u64,
    latency: LatencyHistogram,
}

impl GlobalMemorySystem {
    /// Builds the memory system for `cfg`.
    pub fn new(cfg: NetConfig) -> Self {
        let (occ, switch) = (cfg.port_occupancy, cfg.switch_latency);
        GlobalMemorySystem {
            servers: std::array::from_fn(|_| PortServer::new()),
            occupancy: [occ, occ, cfg.module_service, occ, occ],
            onward: [
                switch,
                switch,
                cfg.module_access,
                switch,
                switch + cfg.delivery,
            ],
            modules: vec![MemoryModule::default(); MODULES],
            cluster_paths: Default::default(),
            cluster_rr: [0; CLUSTERS],
            packets: 0,
            latency: LatencyHistogram::new(24),
            cfg,
        }
    }

    /// Injects a request from `ce` for `addr`/`op` at time `now` and
    /// returns its first hop with the time it fires.
    ///
    /// Always inlined, like [`handle`](Self::handle), so the hop reaches
    /// the caller's queue without a round trip through memory.
    #[inline(always)]
    pub fn inject(
        &mut self,
        ce: CeId,
        addr: GlobalAddr,
        op: MemOp,
        now: SimTime,
    ) -> (SimTime, GmemEvent) {
        // The cluster's shared path to its Global Interfaces serializes
        // the cluster's aggregate issue stream.
        let cluster = ce.cluster().0 as usize;
        let port = self.cluster_rr[cluster];
        self.cluster_rr[cluster] = (port + 1) % CLUSTER_PORTS;
        let through = self.cluster_paths[cluster][port].accept(now, Cycles(1));
        (
            through + self.cfg.gi_inject,
            GmemEvent::new(ce, addr, op, now),
        )
    }

    /// Advances one packet one hop at `now`: returns its next hop, or the
    /// response when it has reached its CE.
    ///
    /// Only delivery and the module's word operation branch on the hop;
    /// every other hop goes through the same table lookup.
    ///
    /// Always inlined: a call returns the 32-byte [`Step`] through memory,
    /// written field by field and read straight back with wide loads,
    /// which defeats store forwarding on every hop.
    #[inline(always)]
    pub fn handle(&mut self, mut p: GmemEvent, now: SimTime) -> Step {
        let module = p.addr.module();
        if p.hop == Hop::Delivered {
            let age = p.age(now);
            self.latency.record(age);
            return Step::Delivered(MemResponse {
                ce: p.ce,
                value: p.word,
                module,
                injected_at: now.0 - age.0,
            });
        }
        if p.hop == Hop::AtModule {
            p.word = self.modules[module.0 as usize].apply(p.addr.dword_index(), p.op());
        }
        let layer = p.hop as usize;
        let through =
            self.servers[server(p.hop, p.ce.0, module.0)].accept(now, self.occupancy[layer]);
        self.packets += u64::from(p.hop == Hop::FwdStage1);
        p.hop = Hop::NEXT[layer];
        Step::Next(through + self.onward[layer], p)
    }

    /// Total queueing delay at the shared per-cluster injection paths.
    pub fn cluster_path_queued(&self) -> Cycles {
        self.cluster_paths
            .iter()
            .flatten()
            .map(PortServer::queued)
            .sum()
    }

    /// Total queueing delay at the servers of the layers `hops` names.
    fn queued(&self, hops: Range<Hop>) -> Cycles {
        let servers =
            hops.start as usize * SERVERS_PER_LAYER..hops.end as usize * SERVERS_PER_LAYER;
        self.servers[servers].iter().map(PortServer::queued).sum()
    }

    /// Contention statistics accumulated so far.
    pub fn stats(&self) -> GmemStats {
        GmemStats {
            packets: self.packets,
            cluster_path_queued: self.cluster_path_queued(),
            fwd_queued: self.queued(Hop::FwdStage1..Hop::AtModule),
            rev_queued: self.queued(Hop::RevStage1..Hop::Delivered),
            module_queued: self.queued(Hop::AtModule..Hop::RevStage1),
            module_requests: self.modules.iter().map(MemoryModule::requests).collect(),
            module_sync_requests: self
                .modules
                .iter()
                .map(MemoryModule::sync_requests)
                .collect(),
            latency: self.latency.clone(),
            min_round_trip: self.cfg.min_round_trip(),
        }
    }

    /// Peeks at a stored global-memory word (tests/debugging only).
    pub fn peek(&self, addr: GlobalAddr) -> u64 {
        self.modules[addr.module().0 as usize].peek(addr.dword_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ModuleId;
    use cedar_sim::EventQueue;

    /// A response with the time it was delivered.
    type Delivery = (SimTime, MemResponse);

    /// Drives the memory system to quiescence, returning delivered
    /// responses with their delivery times (and the system's final state
    /// in `sys`).
    fn run_to_completion(
        sys: &mut GlobalMemorySystem,
        injections: Vec<(CeId, GlobalAddr, MemOp, SimTime)>,
    ) -> Vec<Delivery> {
        let mut q = EventQueue::new();
        for (ce, addr, op, at) in injections {
            let (first, hop) = sys.inject(ce, addr, op, at);
            q.schedule(first, hop);
        }
        let mut delivered = Vec::new();
        while let Some((now, ev)) = q.pop() {
            match sys.handle(ev, now) {
                Step::Next(at, hop) => q.reschedule(at, hop),
                Step::Delivered(resp) => delivered.push((now, resp)),
            }
        }
        delivered
    }

    /// Walks one packet from CE 3 by hand: five `Next` steps, each firing
    /// strictly later, then `Delivered`. Returns the delivery time.
    fn walk(sys: &mut GlobalMemorySystem, addr: GlobalAddr, op: MemOp, t0: SimTime) -> Delivery {
        let (mut now, mut hop) = sys.inject(CeId(3), addr, op, t0);
        assert!(now > t0, "{op:?}: the first hop fires after injection");
        let mut nexts = 0;
        loop {
            match sys.handle(hop, now) {
                Step::Next(at, next) => {
                    assert!(at > now, "{op:?}: step {nexts} fires after now");
                    nexts += 1;
                    (now, hop) = (at, next);
                }
                Step::Delivered(resp) => {
                    assert_eq!(nexts, 5, "{op:?}: Next steps before delivery");
                    return (now, resp);
                }
            }
        }
    }

    /// A packet from `ce` for `addr`/`op`, injected at 0, about to take
    /// `hop`.
    fn packet(hop: Hop, ce: u16, addr: GlobalAddr, op: MemOp) -> GmemEvent {
        let mut p = GmemEvent::new(CeId(ce), addr, op, Cycles(0));
        p.hop = hop;
        p
    }

    /// The hop `handle` returns for `p` at `now`.
    fn next(sys: &mut GlobalMemorySystem, p: GmemEvent, now: SimTime) -> (SimTime, GmemEvent) {
        match sys.handle(p, now) {
            Step::Next(at, p) => (at, p),
            Step::Delivered(resp) => panic!("{:?} delivered {resp:?}", p.hop),
        }
    }

    /// A read from `src` through forward stage 1 towards module `dst`
    /// at `now`: its arrival at stage 2.
    fn transit_stage1(sys: &mut GlobalMemorySystem, src: u16, dst: u16, now: SimTime) -> SimTime {
        let p = packet(Hop::FwdStage1, src, GlobalAddr(dst as u64 * 8), MemOp::Read);
        next(sys, p, now).0
    }

    /// `op` on `addr` through its module's server at `now`: when the
    /// response is ready (service plus DRAM access), with its value.
    fn serve(
        sys: &mut GlobalMemorySystem,
        addr: GlobalAddr,
        op: MemOp,
        now: SimTime,
    ) -> (SimTime, u64) {
        let (ready, p) = next(sys, packet(Hop::AtModule, 0, addr, op), now);
        (ready, p.word)
    }

    #[test]
    fn handle_charges_the_server_the_route_names() {
        let hops = [
            Hop::FwdStage1,
            Hop::FwdStage2,
            Hop::AtModule,
            Hop::RevStage1,
            Hop::RevStage2,
        ];
        let radix = RADIX as u16;
        for ce in 0..32u16 {
            for module in 0..32u16 {
                let named = [
                    route::stage1_switch(ce) * radix + route::stage1_port(module),
                    route::stage2_switch(module) * radix + route::stage2_port(module),
                    module,
                    route::stage1_switch(module) * radix + route::stage1_port(ce),
                    route::stage2_switch(ce) * radix + route::stage2_port(ce),
                ];
                for (layer, hop) in hops.into_iter().enumerate() {
                    let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
                    let addr = GlobalAddr(module as u64 * 8);
                    next(&mut sys, packet(hop, ce, addr, MemOp::Read), Cycles(0));
                    let charged: Vec<usize> = (0..sys.servers.len())
                        .filter(|&i| sys.servers[i].free_at() > Cycles::ZERO)
                        .collect();
                    let want = layer * SERVERS_PER_LAYER + named[layer] as usize;
                    assert_eq!(charged, [want], "ce {ce} module {module} {hop:?}");
                }
            }
        }
    }

    #[test]
    fn uncontended_two_stage_transit() {
        let mut n = GlobalMemorySystem::new(NetConfig::cedar());
        let cfg = NetConfig::cedar();
        let at_stage2 = transit_stage1(&mut n, 0, 17, Cycles(0));
        // occupancy 1 + latency 4
        assert_eq!(at_stage2, cfg.port_occupancy + cfg.switch_latency);
        let p = packet(Hop::FwdStage2, 0, GlobalAddr(17 * 8), MemOp::Read);
        let (at_dst, _) = next(&mut n, p, at_stage2);
        assert_eq!(at_dst, at_stage2 + cfg.port_occupancy + cfg.switch_latency);
        assert_eq!(n.stats().fwd_queued, Cycles::ZERO);
    }

    #[test]
    fn hot_destination_queues() {
        let mut n = GlobalMemorySystem::new(NetConfig::cedar());
        // 8 CEs of cluster 0 all target module 5 simultaneously: they share
        // one stage-1 switch and one output port, so they serialize.
        let arrivals: Vec<_> = (0..8)
            .map(|src| transit_stage1(&mut n, src, 5, Cycles(0)))
            .collect();
        for w in arrivals.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 1, "packets serialize one per cycle");
        }
        assert!(n.stats().fwd_queued > Cycles::ZERO);
    }

    #[test]
    fn distinct_destinations_from_distinct_sources_do_not_queue() {
        let mut n = GlobalMemorySystem::new(NetConfig::cedar());
        // CEs in different clusters (different stage-1 switches) to
        // different modules in different groups: fully conflict-free.
        let a = transit_stage1(&mut n, 0, 0, Cycles(0));
        let b = transit_stage1(&mut n, 8, 9, Cycles(0));
        assert_eq!(a, b);
        assert_eq!(n.stats().fwd_queued, Cycles::ZERO);
    }

    #[test]
    fn unit_stride_vector_spreads_over_parallel_links() {
        let mut n = GlobalMemorySystem::new(NetConfig::cedar());
        // One CE issuing words to modules 0..8 pipelined at 1/cycle never
        // waits: consecutive modules alternate stage-1 links and spread
        // across stage-2 switches.
        for k in 0..8u16 {
            let t = transit_stage1(&mut n, 0, k, Cycles(k as u64));
            assert_eq!(t.0, k as u64 + 5, "word {k} should not queue");
        }
        assert_eq!(n.stats().fwd_queued, Cycles::ZERO);
    }

    #[test]
    fn read_of_untouched_word_is_zero() {
        let mut m = GlobalMemorySystem::new(NetConfig::cedar());
        let (ready, v) = serve(&mut m, GlobalAddr(10 * 8), MemOp::Read, Cycles(0));
        assert_eq!(v, 0);
        assert_eq!(ready, Cycles(12)); // 4 service + 8 access
    }

    #[test]
    fn simultaneous_requests_serialize_four_cycles_apart() {
        let mut m = GlobalMemorySystem::new(NetConfig::cedar());
        // Double words 0, 32 and 64 all interleave to module 0.
        let (r1, _) = serve(&mut m, GlobalAddr(0), MemOp::Read, Cycles(0));
        let (r2, _) = serve(&mut m, GlobalAddr(32 * 8), MemOp::Read, Cycles(0));
        let (r3, _) = serve(&mut m, GlobalAddr(64 * 8), MemOp::Read, Cycles(0));
        assert_eq!(r1, Cycles(12));
        assert_eq!(r2, Cycles(16)); // queued 4 cycles
        assert_eq!(r3, Cycles(20)); // queued 8 cycles
        assert_eq!(m.stats().module_queued, Cycles(12));
    }

    #[test]
    fn statistics_track_sync_ops() {
        let mut m = GlobalMemorySystem::new(NetConfig::cedar());
        serve(&mut m, GlobalAddr(0), MemOp::Read, Cycles(0));
        serve(&mut m, GlobalAddr(0), MemOp::TestAndSet, Cycles(0));
        serve(&mut m, GlobalAddr(0), MemOp::FetchAdd(1), Cycles(0));
        let stats = m.stats();
        assert_eq!(stats.module_requests[0], 3);
        assert_eq!(stats.module_sync_requests[0], 2);
        // Every request arrived at cycle 0, so module 0 has been busy
        // from 0 until it is next free.
        let busy = m.servers[server(Hop::AtModule, 0, 0)].free_at();
        assert_eq!(busy, Cycles(12));
    }

    #[test]
    fn paper_example_back_to_back_same_module() {
        // §7: "if the processor issues two requests in successive clock
        // cycles to the same memory module the second one would be
        // delayed" — by 3 cycles here (arrives at t=1, module busy to 4).
        let mut m = GlobalMemorySystem::new(NetConfig::cedar());
        serve(&mut m, GlobalAddr(0), MemOp::Read, Cycles(0));
        let before = m.stats().module_queued;
        serve(&mut m, GlobalAddr(32 * 8), MemOp::Read, Cycles(1)); // same module, next cycle
        assert_eq!(m.stats().module_queued - before, Cycles(3));
    }

    /// A debug build catches an arrival presented after a later one,
    /// which the server would charge queueing it never saw; a module is
    /// a server of the table like every switch port.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "port arrival at cycle 9 after one at cycle 10")]
    fn out_of_order_arrival_panics_in_debug() {
        let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
        let p = packet(Hop::AtModule, 0, GlobalAddr(0), MemOp::Read);
        sys.handle(p, Cycles(10));
        sys.handle(p, Cycles(10));
        sys.handle(p, Cycles(9));
    }

    #[test]
    fn each_op_walks_five_hops_and_carries_the_module_value_back() {
        let min = NetConfig::cedar().min_round_trip();
        let word = GlobalAddr(0x2A8);
        // (op, value delivered, word stored afterwards) on a word holding 41.
        let cases = [
            (MemOp::Read, 41, 41),
            (MemOp::Write(7), 0, 7),
            (MemOp::TestAndSet, 41, 1),
            (MemOp::Unset, 0, 0),
            (MemOp::FetchAdd(-2), 41, 39),
        ];
        for (op, value, stored) in cases {
            let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
            let (at, resp) = walk(&mut sys, word, MemOp::Write(41), Cycles(0));
            assert_eq!((at, resp.value), (min, 0), "seeding write");
            let t0 = Cycles(1_000);
            let (at, r) = walk(&mut sys, word, op, t0);
            let got = (at, r.value, r.ce, r.module, r.injected_at, sys.peek(word));
            let want = (t0 + min, value, CeId(3), word.module(), t0.0, stored);
            assert_eq!(got, want, "{op:?}");
        }
    }

    #[test]
    fn single_request_takes_min_round_trip() {
        let cfg = NetConfig::cedar();
        let min = cfg.min_round_trip();
        let mut sys = GlobalMemorySystem::new(cfg);
        let done = run_to_completion(
            &mut sys,
            vec![(CeId(0), GlobalAddr(0x80), MemOp::Read, Cycles(0))],
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, min);
    }

    #[test]
    fn every_ce_reaches_every_module_in_min_round_trip() {
        let min = NetConfig::cedar().min_round_trip();
        for ce in 0..32u16 {
            for module in 0..32u16 {
                let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
                // Double word `module` interleaves to that module.
                let addr = GlobalAddr(module as u64 * 8);
                let done =
                    run_to_completion(&mut sys, vec![(CeId(ce), addr, MemOp::Read, Cycles(0))]);
                let [(at, resp)] = done[..] else {
                    panic!("ce {ce} module {module}: {} responses", done.len());
                };
                assert_eq!(at, min, "ce {ce} module {module}");
                assert_eq!(resp.module, ModuleId(module), "ce {ce}");
                assert_eq!(resp.ce, CeId(ce), "module {module}");
            }
        }
    }

    #[test]
    fn contention_delays_second_request_to_same_module() {
        let cfg = NetConfig::cedar();
        let min = cfg.min_round_trip();
        let mut sys = GlobalMemorySystem::new(cfg);
        // Two CEs on different clusters target the same address at t=0:
        // no shared switch on stage 1, but they serialize at stage 2 and
        // at the module.
        let done = run_to_completion(
            &mut sys,
            vec![
                (CeId(0), GlobalAddr(0x40), MemOp::Read, Cycles(0)),
                (CeId(8), GlobalAddr(0x40), MemOp::Read, Cycles(0)),
            ],
        );
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, min);
        assert!(done[1].0 > min, "second request must queue");
        assert!(sys.stats().total_queued() > Cycles::ZERO);
    }

    #[test]
    fn spread_requests_do_not_interfere() {
        let cfg = NetConfig::cedar();
        let min = cfg.min_round_trip();
        let mut sys = GlobalMemorySystem::new(cfg);
        // 4 CEs on 4 different clusters to 4 modules in different groups
        // and different parallel links: fully parallel.
        let done = run_to_completion(
            &mut sys,
            vec![
                (CeId(0), GlobalAddr(0), MemOp::Read, Cycles(0)),
                (CeId(8), GlobalAddr(8 * 9), MemOp::Read, Cycles(0)),
                (CeId(16), GlobalAddr(8 * 18), MemOp::Read, Cycles(0)),
                (CeId(24), GlobalAddr(8 * 27), MemOp::Read, Cycles(0)),
            ],
        );
        assert!(done.iter().all(|(t, _)| *t == min));
    }

    #[test]
    fn tas_round_trip_carries_lock_semantics() {
        let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
        let lock = GlobalAddr(0x1000);
        let done = run_to_completion(
            &mut sys,
            vec![
                (CeId(0), lock, MemOp::TestAndSet, Cycles(0)),
                (CeId(1), lock, MemOp::TestAndSet, Cycles(0)),
            ],
        );
        let values: Vec<u64> = done.iter().map(|(_, r)| r.value).collect();
        assert_eq!(values, vec![0, 1], "exactly one winner");
        assert_eq!(sys.peek(lock), 1);
    }

    #[test]
    fn responses_map_back_to_issuing_ce() {
        let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
        let done = run_to_completion(
            &mut sys,
            vec![
                (CeId(5), GlobalAddr(0x100), MemOp::Read, Cycles(0)),
                (CeId(21), GlobalAddr(0x200), MemOp::Read, Cycles(0)),
            ],
        );
        let ces: Vec<_> = done.iter().map(|(_, r)| r.ce).collect();
        assert!(ces.contains(&CeId(5)) && ces.contains(&CeId(21)));
    }

    #[test]
    fn stats_record_per_module_hot_spot() {
        let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
        let hot = GlobalAddr(0x40);
        let hot_module = hot.module().0 as usize;
        let injections = (0..16)
            .map(|c| (CeId(c), hot, MemOp::TestAndSet, Cycles(0)))
            .collect();
        run_to_completion(&mut sys, injections);
        let stats = sys.stats();
        assert_eq!(stats.module_requests[hot_module], 16);
        assert_eq!(stats.module_sync_requests[hot_module], 16);
        assert_eq!(stats.packets, 16);
        assert!(stats.mean_queued_per_packet() > 0.0);
    }
}
