//! One direction of the interconnection network: two crossbar stages
//! wired as a delta network.

use cedar_sim::{Cycles, SimTime};

use crate::config::NetConfig;
use crate::route::{self, SWITCHES_PER_STAGE};
use crate::switch::Crossbar;

/// A two-stage delta network in one direction (forward: CEs → memory;
/// reverse: memory → CEs).
///
/// `transit_stage1` / `transit_stage2` return the *absolute* time the
/// packet arrives at the next hop, accounting for queueing at the chosen
/// switch output port.
#[derive(Debug, Clone)]
pub(crate) struct DeltaNet {
    stage1: [Crossbar; SWITCHES_PER_STAGE],
    stage2: [Crossbar; SWITCHES_PER_STAGE],
}

impl DeltaNet {
    /// Builds the network with `cfg`'s latencies.
    pub fn new(cfg: &NetConfig) -> Self {
        let make =
            || std::array::from_fn(|_| Crossbar::new(cfg.switch_latency, cfg.port_occupancy));
        DeltaNet {
            stage1: make(),
            stage2: make(),
        }
    }

    /// Packet from endpoint `src` bound for endpoint `dst` arrives at its
    /// stage-1 switch at `now`; returns arrival time at the stage-2 switch.
    pub fn transit_stage1(&mut self, src: u16, dst: u16, now: SimTime) -> SimTime {
        let sw = route::stage1_switch(src) as usize;
        self.stage1[sw].transit(route::stage1_port(dst), now)
    }

    /// Packet bound for endpoint `dst` arrives at its stage-2 switch at
    /// `now`; returns arrival time at the destination endpoint.
    pub fn transit_stage2(&mut self, dst: u16, now: SimTime) -> SimTime {
        let sw = route::stage2_switch(dst) as usize;
        self.stage2[sw].transit(route::stage2_port(dst), now)
    }

    /// Total packets that crossed stage 1 (== packets injected).
    pub fn packets(&self) -> u64 {
        self.stage1.iter().map(Crossbar::total_packets).sum()
    }

    /// Total queueing delay accumulated in both stages — the direct
    /// measure of network contention.
    pub fn total_queued(&self) -> Cycles {
        self.stage1
            .iter()
            .chain(self.stage2.iter())
            .map(Crossbar::total_queued)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> DeltaNet {
        DeltaNet::new(&NetConfig::cedar())
    }

    #[test]
    fn uncontended_two_stage_transit() {
        let mut n = net();
        let cfg = NetConfig::cedar();
        let at_stage2 = n.transit_stage1(0, 17, Cycles(0));
        // occupancy 1 + latency 4
        assert_eq!(at_stage2, cfg.port_occupancy + cfg.switch_latency);
        let at_dst = n.transit_stage2(17, at_stage2);
        assert_eq!(at_dst, at_stage2 + cfg.port_occupancy + cfg.switch_latency);
        assert_eq!(n.total_queued(), Cycles::ZERO);
    }

    #[test]
    fn hot_destination_queues() {
        let mut n = net();
        // 8 CEs of cluster 0 all target module 5 simultaneously: they share
        // one stage-1 switch and one output port, so they serialize.
        let arrivals: Vec<_> = (0..8)
            .map(|src| n.transit_stage1(src, 5, Cycles(0)))
            .collect();
        for w in arrivals.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 1, "packets serialize one per cycle");
        }
        assert!(n.total_queued() > Cycles::ZERO);
    }

    #[test]
    fn distinct_destinations_from_distinct_sources_do_not_queue() {
        let mut n = net();
        // CEs in different clusters (different stage-1 switches) to
        // different modules in different groups: fully conflict-free.
        let a = n.transit_stage1(0, 0, Cycles(0));
        let b = n.transit_stage1(8, 9, Cycles(0));
        assert_eq!(a, b);
        assert_eq!(n.total_queued(), Cycles::ZERO);
    }

    #[test]
    fn packet_count_tracks_stage1_crossings() {
        let mut n = net();
        for src in 0..4 {
            n.transit_stage1(src, src, Cycles(0));
        }
        assert_eq!(n.packets(), 4);
    }

    #[test]
    fn unit_stride_vector_spreads_over_parallel_links() {
        let mut n = net();
        // One CE issuing words to modules 0..8 pipelined at 1/cycle never
        // waits: consecutive modules alternate stage-1 links and spread
        // across stage-2 switches.
        for k in 0..8u16 {
            let t = n.transit_stage1(0, k, Cycles(k as u64));
            assert_eq!(t.0, k as u64 + 5, "word {k} should not queue");
        }
        assert_eq!(n.total_queued(), Cycles::ZERO);
    }
}
