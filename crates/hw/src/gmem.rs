//! The complete global-memory system: forward network, memory modules and
//! reverse network, composed as one event-driven component.

use cedar_sim::stats::LatencyHistogram;
use cedar_sim::{Cycles, Outbox, SimTime};

use crate::addr::GlobalAddr;
use crate::config::NetConfig;
use crate::module::MemoryModule;
use crate::net::DeltaNet;
use crate::packet::{MemOp, MemRequest, MemResponse};
use crate::switch::PortServer;
use crate::topology::{CeId, CLUSTERS, CLUSTER_PORTS, MODULES};

/// Internal events of the global-memory system. `cedar-core` wraps these
/// in its master event enum and feeds them back into [`GlobalMemorySystem::handle`].
#[derive(Debug, Clone, Copy)]
pub enum GmemEvent {
    /// Request packet arrives at its stage-1 (forward) switch.
    FwdStage1(MemRequest),
    /// Request packet arrives at its stage-2 (forward) switch.
    FwdStage2(MemRequest),
    /// Request packet arrives at its memory module.
    AtModule(MemRequest),
    /// Response packet arrives at its stage-1 (reverse) switch.
    RevStage1(MemResponse),
    /// Response packet arrives at its stage-2 (reverse) switch.
    RevStage2(MemResponse),
    /// Response packet reaches the requesting CE's Global Interface.
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
/// Drive it with [`inject`](Self::inject) and route the emitted
/// [`GmemEvent`]s back through [`handle`](Self::handle); when a request's
/// round trip completes, `handle` returns its [`MemResponse`], addressed
/// to the issuing CE.
#[derive(Debug)]
pub struct GlobalMemorySystem {
    cfg: NetConfig,
    forward: DeltaNet,
    reverse: DeltaNet,
    modules: Vec<MemoryModule>,
    /// Each cluster's shared injection path (round-robin over its ports).
    cluster_paths: [[PortServer; CLUSTER_PORTS]; CLUSTERS],
    cluster_rr: [usize; CLUSTERS],
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
            latency: LatencyHistogram::new(24),
            cfg,
        }
    }

    /// Network configuration in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Injects a request from `ce` for `addr`/`op` at time `now`. Its
    /// response surfaces later from [`handle`](Self::handle).
    pub fn inject(
        &mut self,
        ce: CeId,
        addr: GlobalAddr,
        op: MemOp,
        now: SimTime,
        out: &mut Outbox<GmemEvent>,
    ) {
        let req = MemRequest {
            ce,
            addr,
            module: addr.module(),
            op,
            injected_at: now.0,
        };
        // The cluster's shared path to its Global Interfaces serializes
        // the cluster's aggregate issue stream.
        let cluster = ce.cluster().0 as usize;
        let port = self.cluster_rr[cluster];
        self.cluster_rr[cluster] = (port + 1) % CLUSTER_PORTS;
        let through = self.cluster_paths[cluster][port].accept(now, Cycles(1));
        out.emit(
            through - now + self.cfg.gi_inject,
            GmemEvent::FwdStage1(req),
        );
    }

    /// Advances one packet one hop. Returns the response when it reaches
    /// its CE.
    pub fn handle(
        &mut self,
        ev: GmemEvent,
        now: SimTime,
        out: &mut Outbox<GmemEvent>,
    ) -> Option<MemResponse> {
        match ev {
            GmemEvent::FwdStage1(req) => {
                // Each CE has its own Global Interface into the network
                // (§2), so CE ids are the forward network's inputs.
                let arrive = self.forward.transit_stage1(req.ce.0, req.module.0, now);
                out.emit(arrive - now, GmemEvent::FwdStage2(req));
                None
            }
            GmemEvent::FwdStage2(req) => {
                let arrive = self.forward.transit_stage2(req.module.0, now);
                out.emit(arrive - now, GmemEvent::AtModule(req));
                None
            }
            GmemEvent::AtModule(req) => {
                let (ready, value) =
                    self.modules[req.module.0 as usize].serve(req.addr.dword_index(), req.op, now);
                let resp = MemResponse {
                    ce: req.ce,
                    value,
                    module: req.module,
                    injected_at: req.injected_at,
                };
                out.emit(ready - now, GmemEvent::RevStage1(resp));
                None
            }
            GmemEvent::RevStage1(resp) => {
                let arrive = self.reverse.transit_stage1(resp.module.0, resp.ce.0, now);
                out.emit(arrive - now, GmemEvent::RevStage2(resp));
                None
            }
            GmemEvent::RevStage2(resp) => {
                let arrive = self.reverse.transit_stage2(resp.ce.0, now);
                out.emit(arrive - now + self.cfg.delivery, GmemEvent::Delivered(resp));
                None
            }
            GmemEvent::Delivered(resp) => {
                self.latency
                    .record(Cycles(now.0.saturating_sub(resp.injected_at)));
                Some(resp)
            }
        }
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
            packets: self.forward.packets(),
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
    use cedar_sim::{EventQueue, SchedKind};

    /// Drives the memory system to quiescence through `q`, returning
    /// delivered responses with their delivery times. The caller picks
    /// the scheduler, so the same producers run against every kind.
    fn drive(
        q: &mut EventQueue<GmemEvent>,
        sys: &mut GlobalMemorySystem,
        injections: &[(CeId, GlobalAddr, MemOp, SimTime)],
    ) -> Vec<(SimTime, MemResponse)> {
        let mut out = Outbox::new();
        for &(ce, addr, op, at) in injections {
            sys.inject(ce, addr, op, at, &mut out);
            out.flush_into(at, q);
        }
        let mut delivered = Vec::new();
        while let Some((now, ev)) = q.pop() {
            if let Some(resp) = sys.handle(ev, now, &mut out) {
                delivered.push((now, resp));
            }
            out.flush_into(now, q);
        }
        delivered
    }

    /// Runs the injection schedule under both schedulers, asserts the
    /// delivery streams are identical, and returns one of them (along
    /// with the calendar-driven system's final state in `sys`).
    fn run_to_completion(
        sys: &mut GlobalMemorySystem,
        injections: Vec<(CeId, GlobalAddr, MemOp, SimTime)>,
    ) -> Vec<(SimTime, MemResponse)> {
        let mut heap_sys = GlobalMemorySystem::new(sys.config().clone());
        let mut heap_q = EventQueue::with_kind(SchedKind::Heap);
        let heap_run = drive(&mut heap_q, &mut heap_sys, &injections);

        let mut q = EventQueue::with_kind(SchedKind::Calendar);
        let delivered = drive(&mut q, sys, &injections);

        assert_eq!(delivered, heap_run, "A/B delivery stream");
        delivered
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
