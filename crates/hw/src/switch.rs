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
    queued: Cycles,
    /// The latest arrival accepted, for the time-order check.
    #[cfg(debug_assertions)]
    last_arrival: SimTime,
}

impl PortServer {
    /// Creates an idle port.
    pub fn new() -> Self {
        PortServer::default()
    }

    /// Accepts a packet arriving at `now`; returns the time it finishes
    /// transiting the port (start of service + `occupancy`).
    ///
    /// Precondition: arrivals are presented in time order. The port
    /// serves packets in the order they are presented, so an earlier
    /// arrival presented late would wait behind every packet already
    /// accepted and be charged queueing it never saw. The machine
    /// guarantees the order: it reaches a port only through
    /// [`GlobalMemorySystem::inject`](crate::GlobalMemorySystem::inject)
    /// and [`handle`](crate::GlobalMemorySystem::handle), which it
    /// calls at the time of the last event it popped from its
    /// [`EventQueue`](cedar_sim::EventQueue).
    ///
    /// # Panics
    ///
    /// In a debug build, panics if `now` is earlier than an arrival
    /// already accepted. A release build does not check.
    pub fn accept(&mut self, now: SimTime, occupancy: Cycles) -> SimTime {
        #[cfg(debug_assertions)]
        {
            assert!(
                now >= self.last_arrival,
                "port arrival at cycle {} after one at cycle {}",
                now.0,
                self.last_arrival.0
            );
            self.last_arrival = now;
        }
        let start = now.max(self.free_at);
        self.queued += start - now;
        self.free_at = start + occupancy;
        self.free_at
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
        // Packets arrived simultaneously: 0+1+2+3+4 cycles of queueing.
        assert_eq!(sw.ports[2].queued(), Cycles(10));
        assert_eq!(sw.total_queued(), Cycles(10));
    }

    /// A debug build catches an arrival presented after a later one,
    /// which the port would charge queueing it never saw.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "port arrival at cycle 9 after one at cycle 10")]
    fn out_of_order_arrival_panics_in_debug() {
        let mut port = PortServer::new();
        port.accept(Cycles(10), Cycles(1));
        port.accept(Cycles(10), Cycles(1));
        port.accept(Cycles(9), Cycles(1));
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
