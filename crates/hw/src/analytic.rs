//! Closed-form queueing predictions for the memory system.
//!
//! The measurement methodology of the paper is deliberately empirical,
//! but its related work (\[1\], \[3\], \[4\]) builds analytic performance
//! models. This module provides the textbook counterpart of the
//! simulator's FCFS servers — M/D/1 waiting times — so simulated
//! contention can be sanity-checked against theory (see the validation
//! tests and `examples/network_study.rs`).
//!
//! All servers in `cedar-hw` have deterministic service times, so with
//! (approximately) Poisson arrivals the mean wait is the M/D/1 value
//!
//! ```text
//! W = s·ρ / (2(1 − ρ)),   ρ = λ·s
//! ```
//!
//! which is half the M/M/1 wait. The simulator's arrivals are more
//! bursty than Poisson (vector trains), so measured waits should fall
//! between the M/D/1 prediction and a small multiple of it.

use cedar_sim::Cycles;

use crate::config::NetConfig;
use crate::topology::{CLUSTER_PORTS, MODULES};

/// Utilization `ρ = λ·s` of a deterministic server with arrival rate
/// `lambda` (requests per cycle) and service time `service`.
pub fn utilization(lambda: f64, service: Cycles) -> f64 {
    lambda * service.0 as f64
}

/// Mean M/D/1 waiting time (cycles in queue, excluding service) for a
/// deterministic server.
///
/// Returns `f64::INFINITY` at or beyond saturation.
///
/// # Panics
///
/// Panics if `lambda` is negative.
pub(crate) fn md1_wait(lambda: f64, service: Cycles) -> f64 {
    assert!(lambda >= 0.0, "arrival rate must be non-negative");
    let rho = utilization(lambda, service);
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    let s = service.0 as f64;
    s * rho / (2.0 * (1.0 - rho))
}

/// Predicted mean queueing per request at the memory modules for a
/// machine-wide request rate `total_rate` (words per cycle) spread
/// uniformly over the modules.
pub(crate) fn module_wait(cfg: &NetConfig, total_rate: f64) -> f64 {
    let per_module = total_rate / MODULES as f64;
    md1_wait(per_module, cfg.module_service)
}

/// Predicted mean queueing per request at a cluster's shared injection
/// path, for a per-cluster request rate (words per cycle).
pub(crate) fn cluster_path_wait(cluster_rate: f64) -> f64 {
    // Round-robin over the ports splits the stream evenly.
    let per_port = cluster_rate / CLUSTER_PORTS as f64;
    md1_wait(per_port, Cycles(1))
}

/// Predicted mean queueing per request at one forward-network stage, for
/// a machine-wide rate spread uniformly over destinations (each stage
/// has one port per destination-group link; uniform traffic splits the
/// rate over 32 effective ports).
pub(crate) fn stage_wait(cfg: &NetConfig, total_rate: f64) -> f64 {
    let per_port = total_rate / MODULES as f64;
    md1_wait(per_port, cfg.port_occupancy)
}

/// End-to-end round-trip prediction for uniform random word traffic at
/// `total_rate` words/cycle machine-wide from `clusters` active clusters:
/// minimum latency plus the queueing at the cluster path, two forward
/// stages and the module (reverse-path queueing mirrors forward).
pub fn round_trip(cfg: &NetConfig, total_rate: f64, clusters: u16) -> f64 {
    let base = cfg.min_round_trip().0 as f64;
    let per_cluster = total_rate / clusters.max(1) as f64;
    base + cluster_path_wait(per_cluster)
        + 2.0 * stage_wait(cfg, total_rate)
        + module_wait(cfg, total_rate)
        + 2.0 * stage_wait(cfg, total_rate) // reverse stages
}

/// The offered load (words/cycle machine-wide) at which the memory
/// modules saturate for uniform traffic.
pub fn module_saturation_rate(cfg: &NetConfig) -> f64 {
    MODULES as f64 / cfg.module_service.0 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md1_wait_matches_textbook_values() {
        // ρ = 0.5, s = 4: W = 4 * 0.5 / (2 * 0.5) = 2.
        assert!((md1_wait(0.125, Cycles(4)) - 2.0).abs() < 1e-12);
        // Zero load: no waiting.
        assert_eq!(md1_wait(0.0, Cycles(4)), 0.0);
        // Saturation: infinite.
        assert!(md1_wait(0.25, Cycles(4)).is_infinite());
    }

    #[test]
    fn saturation_rate_for_cedar() {
        // 32 modules at 4 cycles each: 8 words/cycle.
        assert!((module_saturation_rate(&NetConfig::cedar()) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_grows_monotonically_with_load() {
        let cfg = NetConfig::cedar();
        let mut last = 0.0;
        for rate in [0.0, 1.0, 2.0, 4.0, 6.0] {
            let rt = round_trip(&cfg, rate, 4);
            assert!(rt > last, "round trip must grow with load");
            last = rt;
        }
        assert!(round_trip(&cfg, 8.0, 4).is_infinite());
    }

    #[test]
    fn cluster_path_dominates_single_cluster_streaming() {
        // One cluster pushing 1.8 words/cycle through a 2-port path:
        // per-port ρ = 0.9 — this wait dwarfs the module wait, which is
        // the analytic form of FLO52's single-cluster contention peak.
        let cfg = NetConfig::cedar();
        let path = cluster_path_wait(1.8);
        let module = module_wait(&cfg, 1.8);
        assert!(path > 4.0 * module, "path {path} vs module {module}");
    }

    /// The validation test: simulate uniform random single-word traffic
    /// and compare the measured mean queueing with the M/D/1 prediction.
    #[test]
    fn simulated_queueing_tracks_the_prediction() {
        use crate::gmem::{GlobalMemorySystem, Step};
        use crate::{CeId, GlobalAddr, GmemEvent, MemOp};
        use cedar_sim::{EventQueue, SplitMix64};

        let cfg = NetConfig::cedar();
        // 16 CEs on 2 clusters, each issuing a word every 8 cycles:
        // total rate = 2 w/cy, per-cluster 1.0 (ports at ρ = 0.5).
        let mut sys = GlobalMemorySystem::new(cfg.clone());
        let mut q: EventQueue<GmemEvent> = EventQueue::new();
        let mut rng = SplitMix64::new(42);
        let n_requests_per_ce = 500u64;
        // Generate every request first, then inject in global time order
        // (PortServer arrivals must be chronological, as in the machine).
        let mut requests: Vec<(u64, u16, u64)> = Vec::new();
        for ce in 0..16u16 {
            let mut t = rng.next_below(8);
            for _ in 0..n_requests_per_ce {
                requests.push((t, ce, rng.next_below(1 << 20) * 8));
                // Exponential-ish gaps around a mean of 8 cycles.
                t += 1 + rng.next_below(15);
            }
        }
        requests.sort_unstable();
        for (t, ce, addr) in requests {
            let (at, hop) = sys.inject(CeId(ce), GlobalAddr(addr), MemOp::Read, Cycles(t));
            q.schedule(at, hop);
        }
        let mut delivered = 0u64;
        while let Some((now, ev)) = q.pop() {
            match sys.handle(ev, now) {
                Step::Next(at, hop) => q.reschedule(at, hop),
                Step::Delivered(_) => delivered += 1,
            }
        }
        assert_eq!(delivered, 16 * n_requests_per_ce);

        let measured = sys.stats().mean_queued_per_packet();
        let rate = 16.0 / 8.0; // words per cycle machine-wide
        let predicted =
            cluster_path_wait(rate / 2.0) + 4.0 * stage_wait(&cfg, rate) + module_wait(&cfg, rate);
        // Simulated arrivals are burstier than Poisson; accept a band.
        assert!(
            measured > predicted * 0.3 && measured < predicted * 4.0 + 2.0,
            "measured {measured} vs predicted {predicted}"
        );
    }
}
