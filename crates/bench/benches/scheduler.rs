//! Event-queue microbenchmarks on the event patterns that dominate a
//! measurement campaign, plus a suite-level and a fault-path timing.
//!
//! Runs on the in-repo harness (`cargo bench --offline`); JSON lands in
//! `results/BENCH_scheduler.json`, which `scripts/bench_check.sh` gates
//! in CI: the suite and fault-path timings must stay within the
//! regression budget of `results/bench_baseline.json`. The queue
//! entries (`sched/*/calendar`) are timed and reported, not gated.

use cedar_apps::perfect_suite;
use cedar_bench::harness::{black_box, Harness};
use cedar_core::prelude::FaultPlan;
use cedar_core::suite::SuiteResult;
use cedar_core::{Experiment, SimConfig};
use cedar_hw::{
    CeId, Configuration, GlobalAddr, GlobalMemorySystem, GmemEvent, MemOp, NetConfig, Step,
};
use cedar_sim::{Cycles, EventQueue, SplitMix64};

/// The classic hold model: keep `pending` events in flight, pop one and
/// reschedule it a short, random distance ahead, `steps` times. This is
/// the steady state of a discrete-event kernel, O(1) per hold on the
/// calendar queue, and the pop-then-reschedule path every packet hop
/// takes.
fn hold_model(pending: u64, steps: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SplitMix64::new(0x601D);
    for i in 0..pending {
        q.schedule(Cycles(1 + rng.next_below(256)), i);
    }
    let mut checksum = 0u64;
    for _ in 0..steps {
        let (now, v) = q.pop().expect("hold model never drains");
        checksum = checksum.wrapping_mul(31).wrapping_add(now.0 ^ v);
        q.reschedule(now + Cycles(1 + rng.next_below(256)), v);
    }
    checksum
}

/// Event-dense network workload: a closed-loop storm of single-word
/// requests through the full two-stage forward/reverse network with
/// `per_ce` outstanding requests per CE. Every delivery immediately
/// triggers a fresh injection, so the pending-event population stays at
/// `32 × per_ce` packets in flight — the packet-heavy regime the 32-CE
/// campaign codes produce. Each pop has exactly one successor, a hop or
/// a fresh injection, so both go through `reschedule` as in the
/// machine's event loop.
fn net_dense(per_ce: u64, events: u64) -> u64 {
    let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
    let mut q: EventQueue<GmemEvent> = EventQueue::new();
    let mut rng = SplitMix64::new(0xD15E);
    for ce in 0..32u16 {
        for _ in 0..per_ce {
            let addr = GlobalAddr(rng.next_below(1 << 16) * 8);
            let (at, hop) = sys.inject(CeId(ce), addr, MemOp::Read, Cycles(0));
            q.schedule(at, hop);
        }
    }
    let mut checksum = 0u64;
    let mut handled = 0u64;
    while handled < events {
        let (now, ev) = q.pop().expect("closed loop never drains");
        let (at, hop) = match sys.handle(ev, now) {
            Step::Next(at, hop) => (at, hop),
            Step::Delivered(resp) => {
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(now.0 ^ resp.ce.0 as u64 ^ resp.value);
                let addr = GlobalAddr(rng.next_below(1 << 16) * 8);
                sys.inject(resp.ce, addr, MemOp::Read, now)
            }
        };
        q.reschedule(at, hop);
        handled += 1;
    }
    checksum
}

fn bench_hold(h: &mut Harness) {
    for (name, pending) in [("4k", 4096u64), ("32k", 32_768)] {
        h.bench(&format!("sched/hold_{name}/calendar"), || {
            black_box(hold_model(pending, 200_000))
        });
    }
}

fn bench_net_dense(h: &mut Harness) {
    h.bench("sched/net_dense/calendar", || {
        black_box(net_dense(64, 400_000))
    });
}

/// Suite-level timing: the reduced-scale measurement campaign the other
/// bench targets share, timed as one unit. `scripts/bench_check.sh`
/// gates this number against `results/bench_baseline.json`.
fn bench_suite(h: &mut Harness) {
    let apps: Vec<_> = perfect_suite().into_iter().map(|a| a.shrunk(24)).collect();
    h.bench("suite/mini_campaign", || {
        black_box(SuiteResult::measure(
            &apps,
            &[Configuration::P1, Configuration::P8, Configuration::P32].map(SimConfig::cedar),
            // bench_options, not run_options: the gate must time real
            // simulation even when the environment enables the cache.
            cedar_bench::bench_options(),
        ))
    });
}

/// Fault-path timing: FLO52 at 8 processors under the canonical fault
/// campaign. Gated against `results/bench_baseline.json` so the
/// injection hot path (driver draws, extra events, scaled lock
/// acquires) cannot silently slow the simulator down.
fn bench_faults(h: &mut Harness) {
    let app = perfect_suite()
        .into_iter()
        .find(|a| a.name == "FLO52")
        .expect("FLO52 in the perfect suite")
        .shrunk(24);
    let cfg = SimConfig::cedar(Configuration::P8).with_faults(FaultPlan::canonical());
    h.bench("faults/flo52_p8/calendar", || {
        black_box(Experiment::new(app.clone(), cfg.clone()).run())
    });
}

fn main() {
    let mut h = Harness::new("scheduler");
    bench_hold(&mut h);
    bench_net_dense(&mut h);
    bench_suite(&mut h);
    bench_faults(&mut h);
    h.finish().expect("write bench JSON");
}
