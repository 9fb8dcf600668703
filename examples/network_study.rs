//! Network study: measured round-trip latency vs the analytic M/D/1
//! prediction, as offered load sweeps toward module saturation.
//!
//! The `cedar-hw` memory system is driven directly (no OS or runtime)
//! with uniform random word traffic; the latency histogram's quantiles
//! show the distribution fattening as load approaches the 8 words/cycle
//! module bound.
//!
//! ```sh
//! cargo run --release --example network_study
//! ```

use cedar::hw::analytic;
use cedar::hw::{CeId, GlobalAddr, GlobalMemorySystem, GmemEvent, MemOp, NetConfig};
use cedar::sim::{Cycles, EventQueue, Outbox, SplitMix64};

/// Drives uniform random traffic at ~`rate` words/cycle from 32 CEs and
/// returns (mean measured RTT, p50 bound, p99 bound).
fn measure(rate: f64) -> (f64, u64, u64) {
    let cfg = NetConfig::cedar();
    let mut sys = GlobalMemorySystem::new(cfg);
    let mut q: EventQueue<GmemEvent> = EventQueue::new();
    let mut out: Outbox<GmemEvent> = Outbox::new();
    let mut rng = SplitMix64::new(7);
    let n_ces = 32u64;
    let mean_gap = (n_ces as f64 / rate).max(1.0) as u64;
    let per_ce = 400u64;
    let mut requests: Vec<(u64, u16, u64)> = Vec::new();
    for ce in 0..n_ces {
        let mut t = rng.next_below(mean_gap.max(2));
        for _ in 0..per_ce {
            requests.push((t, ce as u16, rng.next_below(1 << 20) * 8));
            t += 1 + rng.next_below(2 * mean_gap - 1);
        }
    }
    requests.sort_unstable();
    for (t, ce, addr) in requests {
        sys.inject(CeId(ce), GlobalAddr(addr), MemOp::Read, Cycles(t), &mut out);
        out.flush_into(Cycles(t), &mut q);
    }
    let mut total_rtt = 0u64;
    let mut count = 0u64;
    while let Some((now, ev)) = q.pop() {
        if let Some(resp) = sys.handle(ev, now, &mut out) {
            total_rtt += now.0 - resp.injected_at;
            count += 1;
        }
        out.flush_into(now, &mut q);
    }
    let stats = sys.stats();
    let p50 = stats.latency.quantile_bound(0.5).map(|c| c.0).unwrap_or(0);
    let p99 = stats.latency.quantile_bound(0.99).map(|c| c.0).unwrap_or(0);
    (total_rtt as f64 / count.max(1) as f64, p50, p99)
}

fn main() {
    let cfg = NetConfig::cedar();
    println!(
        "uniform random word traffic from 32 CEs; module saturation at {} w/cy\n",
        analytic::module_saturation_rate(&cfg)
    );
    println!(
        "{:>10} | {:>12} | {:>12} | {:>8} | {:>8}",
        "load w/cy", "RTT meas.", "RTT M/D/1", "p50 <=", "p99 <="
    );
    println!("{}", "-".repeat(62));
    for rate in [0.5, 1.0, 2.0, 4.0, 6.0, 7.0] {
        let (measured, p50, p99) = measure(rate);
        let predicted = analytic::round_trip(&cfg, rate, 4);
        println!(
            "{:>10.1} | {:>12.1} | {:>12.1} | {:>8} | {:>8}",
            rate, measured, predicted, p50, p99
        );
    }
    println!();
    println!("Mean latencies track the M/D/1 prediction; the p99 bound fattens");
    println!("much faster — queueing tails are what vector bursts feel first,");
    println!("which is why contention shows up in Table 4 well before saturation.");
}
