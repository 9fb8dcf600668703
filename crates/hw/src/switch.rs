//! Output-queued crossbar switch model.
//!
//! Each switch output port is a FCFS server with a configurable per-packet
//! occupancy. Because the simulation processes packet arrivals in global
//! time order, a port can be modelled by a single `free_at` timestamp:
//! a packet arriving at `now` begins transmission at `max(now, free_at)`,
//! occupies the port for `occupancy`, and reaches the next hop after the
//! stage latency. Queueing delay — the contention the paper measures — is
//! `start - now`.

use cedar_sim::{Cycles, SimTime};

use crate::route::RADIX;

/// One FCFS output port.
#[derive(Debug, Clone, Default)]
pub struct PortServer {
    free_at: SimTime,
    packets: u64,
    busy: Cycles,
    queued: Cycles,
}

impl PortServer {
    /// Creates an idle port.
    pub fn new() -> Self {
        PortServer::default()
    }

    /// Accepts a packet arriving at `now`; returns the time it finishes
    /// transiting the port (start of service + `occupancy`).
    ///
    /// # Panics
    ///
    /// Panics if arrivals are presented out of time order **and** that
    /// would move `free_at` backwards (cannot happen when driven from an
    /// [`EventQueue`](cedar_sim::EventQueue)).
    pub fn accept(&mut self, now: SimTime, occupancy: Cycles) -> SimTime {
        let start = now.max(self.free_at);
        self.queued += start - now;
        self.free_at = start + occupancy;
        self.busy += occupancy;
        self.packets += 1;
        self.free_at
    }

    /// Total packets that have crossed this port.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Cumulative transmission time (utilization numerator).
    pub fn busy(&self) -> Cycles {
        self.busy
    }

    /// Cumulative queueing delay experienced at this port.
    pub fn queued(&self) -> Cycles {
        self.queued
    }

    /// Time the port next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

/// A `RADIX`-output crossbar switch (inputs need no modelling: an ideal
/// crossbar only conflicts at outputs). Its eight ports live inline, so
/// the packet hot path never chases a pointer.
#[derive(Debug, Clone)]
pub(crate) struct Crossbar {
    ports: [PortServer; RADIX],
    latency: Cycles,
    occupancy: Cycles,
}

impl Crossbar {
    /// Creates an idle switch.
    pub fn new(latency: Cycles, occupancy: Cycles) -> Self {
        Crossbar {
            ports: Default::default(),
            latency,
            occupancy,
        }
    }

    /// Routes a packet arriving at `now` to output `port`; returns when it
    /// arrives at the next hop (service start + stage latency).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub(crate) fn transit(&mut self, port: u16, now: SimTime) -> SimTime {
        let served_by = self.ports[port as usize].accept(now, self.occupancy);
        // The packet leaves the port when transmission completes, then
        // takes the stage latency to reach the next hop.
        served_by + self.latency
    }

    /// Total packets across all ports.
    pub(crate) fn total_packets(&self) -> u64 {
        self.ports.iter().map(PortServer::packets).sum()
    }

    /// Total queueing delay across all ports.
    pub fn total_queued(&self) -> Cycles {
        self.ports.iter().map(PortServer::queued).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_packet_takes_occupancy_plus_latency() {
        let mut sw = Crossbar::new(Cycles(4), Cycles(1));
        let out = sw.transit(3, Cycles(100));
        assert_eq!(out, Cycles(105)); // 100 + 1 occupancy + 4 latency
        assert_eq!(sw.ports[3].queued(), Cycles::ZERO);
    }

    #[test]
    fn back_to_back_packets_queue_at_port() {
        let mut sw = Crossbar::new(Cycles(4), Cycles(1));
        let a = sw.transit(0, Cycles(10));
        let b = sw.transit(0, Cycles(10)); // same instant, same port
        assert_eq!(a, Cycles(15));
        assert_eq!(b, Cycles(16)); // one cycle behind
        assert_eq!(sw.ports[0].queued(), Cycles(1));
    }

    #[test]
    fn different_ports_do_not_conflict() {
        let mut sw = Crossbar::new(Cycles(4), Cycles(1));
        let a = sw.transit(0, Cycles(10));
        let b = sw.transit(1, Cycles(10));
        assert_eq!(a, b);
    }

    #[test]
    fn port_statistics_accumulate() {
        let mut sw = Crossbar::new(Cycles(2), Cycles(1));
        for _ in 0..5 {
            sw.transit(2, Cycles(0));
        }
        assert_eq!(sw.ports[2].packets(), 5);
        assert_eq!(sw.ports[2].busy(), Cycles(5));
        // Packets arrived simultaneously: 0+1+2+3+4 cycles of queueing.
        assert_eq!(sw.ports[2].queued(), Cycles(10));
        assert_eq!(sw.total_packets(), 5);
        assert_eq!(sw.total_queued(), Cycles(10));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut sw = Crossbar::new(Cycles(1), Cycles(3));
        sw.transit(0, Cycles(0)); // busy until 3
        let out = sw.transit(0, Cycles(50)); // long after
        assert_eq!(out, Cycles(54));
        assert_eq!(sw.ports[0].queued(), Cycles::ZERO);
    }
}
