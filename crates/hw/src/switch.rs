//! The FCFS server every queueing resource of the memory system is
//! built from: a cluster path port, a switch output port, a module.
//!
//! Because the simulation processes packet arrivals in global time
//! order, a server can be modelled by a single `free_at` timestamp: a
//! packet arriving at `now` begins service at `max(now, free_at)` and
//! holds the server for its `occupancy`. Queueing delay — the
//! contention the paper measures — is `start - now`. An ideal crossbar
//! only conflicts at its outputs, so a switch is its output ports.

use cedar_sim::{Cycles, SimTime};

/// One FCFS server.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet's arrival at the next hop through switch output `port`,
    /// with Cedar's 1-cycle occupancy and 4-cycle stage latency.
    fn transit(port: &mut PortServer, now: SimTime) -> SimTime {
        port.accept(now, Cycles(1)) + Cycles(4)
    }

    #[test]
    fn uncontended_packet_takes_occupancy_plus_latency() {
        let mut port = PortServer::new();
        let out = transit(&mut port, Cycles(100));
        assert_eq!(out, Cycles(105)); // 100 + 1 occupancy + 4 latency
        assert_eq!(port.queued(), Cycles::ZERO);
    }

    #[test]
    fn back_to_back_packets_queue_at_port() {
        let mut port = PortServer::new();
        let a = transit(&mut port, Cycles(10));
        let b = transit(&mut port, Cycles(10)); // same instant, same port
        assert_eq!(a, Cycles(15));
        assert_eq!(b, Cycles(16)); // one cycle behind
        assert_eq!(port.queued(), Cycles(1));
    }

    #[test]
    fn different_ports_do_not_conflict() {
        let mut ports = [PortServer::new(), PortServer::new()];
        let a = transit(&mut ports[0], Cycles(10));
        let b = transit(&mut ports[1], Cycles(10));
        assert_eq!(a, b);
    }

    #[test]
    fn port_statistics_accumulate() {
        let mut ports: [PortServer; 8] = Default::default();
        for _ in 0..5 {
            ports[2].accept(Cycles(0), Cycles(1));
        }
        // Packets arrived simultaneously: 0+1+2+3+4 cycles of queueing.
        assert_eq!(ports[2].queued(), Cycles(10));
        let total: Cycles = ports.iter().map(PortServer::queued).sum();
        assert_eq!(total, Cycles(10));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut port = PortServer::new();
        port.accept(Cycles(0), Cycles(3)); // busy until 3
        let out = port.accept(Cycles(50), Cycles(3)) + Cycles(1); // long after
        assert_eq!(out, Cycles(54));
        assert_eq!(port.queued(), Cycles::ZERO);
    }
}
