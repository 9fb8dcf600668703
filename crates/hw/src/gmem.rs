//! The complete global-memory system: forward network, memory modules and
//! reverse network, composed as one event-driven component.

use cedar_sim::stats::LatencyHistogram;
use cedar_sim::{Cycles, SimTime};

use crate::addr::GlobalAddr;
use crate::config::NetConfig;
use crate::module::MemoryModule;
use crate::net::DeltaNet;
use crate::packet::{GmemEvent, Hop, MemOp, MemResponse};
use crate::switch::PortServer;
use crate::topology::{CeId, CLUSTERS, CLUSTER_PORTS, MODULES};

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

/// Forward network + 32 memory modules + reverse network.
///
/// Drive it with [`inject`](Self::inject), which returns a packet's
/// first hop, and feed each hop back through [`handle`](Self::handle),
/// which returns the next one. When a round trip completes, `handle`
/// returns the [`MemResponse`], addressed to the issuing CE.
#[derive(Debug)]
pub struct GlobalMemorySystem {
    cfg: NetConfig,
    forward: DeltaNet,
    reverse: DeltaNet,
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
        let modules = (0..MODULES)
            .map(|_| MemoryModule::new(cfg.module_service, cfg.module_access))
            .collect();
        GlobalMemorySystem {
            forward: DeltaNet::new(&cfg),
            reverse: DeltaNet::new(&cfg),
            modules,
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
    /// Always inlined: a call returns the 32-byte [`Step`] through memory,
    /// written field by field and read straight back with wide loads,
    /// which defeats store forwarding on every hop.
    #[inline(always)]
    pub fn handle(&mut self, mut p: GmemEvent, now: SimTime) -> Step {
        let module = p.addr.module();
        let (at, next) = match p.hop {
            // Each CE has its own Global Interface into the network (§2),
            // so CE ids are the forward network's inputs.
            Hop::FwdStage1 => {
                self.packets += 1;
                (
                    self.forward.transit_stage1(p.ce.0, module.0, now),
                    Hop::FwdStage2,
                )
            }
            Hop::FwdStage2 => (self.forward.transit_stage2(module.0, now), Hop::AtModule),
            Hop::AtModule => {
                let (ready, value) =
                    self.modules[module.0 as usize].serve(p.addr.dword_index(), p.op(), now);
                p.word = value;
                (ready, Hop::RevStage1)
            }
            Hop::RevStage1 => (
                self.reverse.transit_stage1(module.0, p.ce.0, now),
                Hop::RevStage2,
            ),
            Hop::RevStage2 => (
                self.reverse.transit_stage2(p.ce.0, now) + self.cfg.delivery,
                Hop::Delivered,
            ),
            Hop::Delivered => {
                let age = p.age(now);
                self.latency.record(age);
                return Step::Delivered(MemResponse {
                    ce: p.ce,
                    value: p.word,
                    module,
                    injected_at: now.0 - age.0,
                });
            }
        };
        p.hop = next;
        Step::Next(at, p)
    }

    /// Total queueing delay at the shared per-cluster injection paths.
    pub fn cluster_path_queued(&self) -> Cycles {
        self.cluster_paths
            .iter()
            .flatten()
            .map(PortServer::queued)
            .sum()
    }

    /// Contention statistics accumulated so far.
    pub fn stats(&self) -> GmemStats {
        GmemStats {
            packets: self.packets,
            cluster_path_queued: self.cluster_path_queued(),
            fwd_queued: self.forward.total_queued(),
            rev_queued: self.reverse.total_queued(),
            module_queued: self.modules.iter().map(MemoryModule::queued).sum(),
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
