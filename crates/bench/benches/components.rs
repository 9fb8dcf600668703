//! Micro-benchmarks of the simulator's building blocks: the per-event
//! costs that determine how fast a full campaign runs.
//!
//! Runs on the in-repo harness (`cargo bench --offline`); JSON lands in
//! `results/BENCH_components.json`. `BENCH_SMOKE=1` for a one-iteration
//! smoke pass.

use cedar_bench::harness::{black_box, Harness};
use cedar_hw::cbus::CbusBarrier;
use cedar_hw::module::MemoryModule;
use cedar_hw::net::DeltaNet;
use cedar_hw::{MemOp, NetConfig};
use cedar_rtl::{ClaimStep, IterClaimer, RtlWords};
use cedar_sim::{Cycles, EventQueue, SplitMix64};

fn bench_event_queue(h: &mut Harness) {
    let mut rng = SplitMix64::new(1);
    h.bench("event_queue_schedule_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(Cycles(rng.next_below(1 << 20)), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum)
    });
}

fn bench_network(h: &mut Harness) {
    let mut net = DeltaNet::new(&NetConfig::cedar());
    let mut t = 0u64;
    h.bench("delta_net_two_stage_transit", || {
        t += 1;
        let mid = net.transit_stage1((t % 32) as u16, ((t * 7) % 32) as u16, Cycles(t));
        black_box(net.transit_stage2(((t * 7) % 32) as u16, mid))
    });
}

fn bench_memory_module(h: &mut Harness) {
    let mut m = MemoryModule::new(Cycles(4), Cycles(8));
    let mut t = 0u64;
    h.bench("memory_module_serve", || {
        t += 2;
        black_box(m.serve(t % 64, MemOp::Read, Cycles(t)))
    });
    let mut m = MemoryModule::new(Cycles(4), Cycles(8));
    let mut t = 0u64;
    h.bench("memory_module_fetch_add", || {
        t += 2;
        black_box(m.serve(3, MemOp::FetchAdd(1), Cycles(t)))
    });
}

fn bench_claim_protocol(h: &mut Harness) {
    h.bench("iter_claimer_4k_claims", || {
        let mut claimer = IterClaimer::new(RtlWords::cedar(), 4096, Cycles(150));
        let mut index = 0u64;
        let mut lock = 0u64;
        let mut step = claimer.begin();
        loop {
            match step {
                ClaimStep::Issue(wi) => {
                    let w = RtlWords::cedar();
                    let v = if wi.addr == w.lock {
                        match wi.op {
                            MemOp::TestAndSet => {
                                let old = lock;
                                lock = 1;
                                old
                            }
                            MemOp::Unset => {
                                lock = 0;
                                0
                            }
                            _ => 0,
                        }
                    } else {
                        match wi.op {
                            MemOp::Read => index,
                            MemOp::FetchAdd(d) => {
                                let old = index;
                                index = index.wrapping_add_signed(d);
                                old
                            }
                            _ => 0,
                        }
                    };
                    step = claimer.on_value(v);
                }
                done => break black_box(done),
            }
        }
    });
}

fn bench_cbus_barrier(h: &mut Harness) {
    let mut barrier = CbusBarrier::new(8, Cycles(8));
    let mut t = 0u64;
    h.bench("cbus_barrier_eight_arrivals", || {
        let mut release = None;
        for i in 0..8 {
            t += 1;
            release = barrier.arrive(Cycles(t + i));
        }
        black_box(release)
    });
}

fn main() {
    let mut h = Harness::new("components");
    bench_event_queue(&mut h);
    bench_network(&mut h);
    bench_memory_module(&mut h);
    bench_claim_protocol(&mut h);
    bench_cbus_barrier(&mut h);
    h.finish().expect("write bench JSON");
}
