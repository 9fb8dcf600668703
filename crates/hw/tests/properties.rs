//! Property tests of the hardware models against simple reference
//! semantics, driven by the in-repo `SplitMix64` generator with fixed
//! seeds (reproducible, zero external crates).

use cedar_hw::module::MemoryModule;
use cedar_hw::switch::PortServer;
use cedar_hw::{GlobalAddr, MemOp, VectorAccess};
use cedar_sim::{Cycles, SplitMix64};
use std::collections::HashMap;

/// A memory-module op for generation.
#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Write(u64, u64),
    Tas(u64),
    Unset(u64),
    FetchAdd(u64, i64),
}

fn arb_op(rng: &mut SplitMix64) -> Op {
    match rng.next_below(5) {
        0 => Op::Read(rng.next_below(8)),
        1 => Op::Write(rng.next_below(8), rng.next_below(100)),
        2 => Op::Tas(rng.next_below(8)),
        3 => Op::Unset(rng.next_below(8)),
        _ => Op::FetchAdd(rng.next_below(8), rng.next_range(0, 6) as i64 - 3),
    }
}

/// A random sorted arrival schedule of `1..max_len` times below `bound`.
fn arb_arrivals(rng: &mut SplitMix64, max_len: u64, bound: u64) -> Vec<u64> {
    let len = rng.next_range(1, max_len - 1) as usize;
    let mut arrivals: Vec<u64> = (0..len).map(|_| rng.next_below(bound)).collect();
    arrivals.sort_unstable();
    arrivals
}

#[test]
fn module_matches_reference_semantics() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0xA000 + seed);
        let ops: Vec<Op> = (0..rng.next_below(200)).map(|_| arb_op(&mut rng)).collect();
        let mut module = MemoryModule::default();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            let (expected, memop, dword) = match op {
                Op::Read(a) => (*reference.get(&a).unwrap_or(&0), MemOp::Read, a),
                Op::Write(a, v) => {
                    reference.insert(a, v);
                    (0, MemOp::Write(v), a)
                }
                Op::Tas(a) => {
                    let old = *reference.get(&a).unwrap_or(&0);
                    reference.insert(a, 1);
                    (old, MemOp::TestAndSet, a)
                }
                Op::Unset(a) => {
                    reference.insert(a, 0);
                    (0, MemOp::Unset, a)
                }
                Op::FetchAdd(a, d) => {
                    let old = *reference.get(&a).unwrap_or(&0);
                    reference.insert(a, old.wrapping_add_signed(d));
                    (old, MemOp::FetchAdd(d), a)
                }
            };
            let value = module.apply(dword, memop);
            assert_eq!(value, expected, "seed {seed}");
        }
        for (a, v) in reference {
            assert_eq!(module.peek(a), v, "seed {seed} addr {a}");
        }
    }
}

/// A module's server: 4 cycles of service, then 8 of pipelined DRAM
/// access, as `NetConfig::cedar` times the module layer.
#[test]
fn module_service_is_fcfs_and_work_conserving() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0xB000 + seed);
        let sorted = arb_arrivals(&mut rng, 100, 1000);
        let mut module = PortServer::new();
        let mut last_ready = Cycles(0);
        let (mut departed, mut busy) = (Cycles(0), Cycles(0));
        for &t in &sorted {
            let through = module.accept(Cycles(t), Cycles(4));
            let ready = through + Cycles(8);
            // Service from when it could start: its arrival, or the
            // previous departure if it waited.
            busy += through - Cycles(t).max(departed);
            departed = through;
            // Responses come back in arrival order...
            assert!(ready >= last_ready, "seed {seed}");
            // ...never earlier than the uncontended latency...
            assert!(ready >= Cycles(t + 12), "seed {seed}");
            // ...and the server is work-conserving: busy time equals
            // requests * service.
            last_ready = ready;
        }
        assert_eq!(busy, Cycles(4 * sorted.len() as u64), "seed {seed}");
    }
}

#[test]
fn port_server_departures_are_spaced_by_occupancy() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0xC000 + seed);
        let sorted = arb_arrivals(&mut rng, 100, 500);
        let mut port = PortServer::new();
        let mut last = Cycles(0);
        for &t in &sorted {
            let through = port.accept(Cycles(t), Cycles(1));
            assert!(
                through >= last + Cycles(1) || last == Cycles(0),
                "seed {seed}"
            );
            assert!(through >= Cycles(t + 1), "seed {seed}");
            last = through;
        }
    }
}

#[test]
fn vector_addresses_stay_in_span() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(0xD000 + seed);
        let words = rng.next_range(1, 63) as u32;
        let stride = rng.next_range(1, 15);
        let base = rng.next_below(4096);
        let v = VectorAccess::read(GlobalAddr(base * 8), words, stride);
        let addrs: Vec<_> = v.addresses().collect();
        assert_eq!(addrs.len(), words as usize, "seed {seed}");
        assert_eq!(addrs[0], v.base, "seed {seed}");
        let last = addrs.last().unwrap();
        assert_eq!(last.0 - v.base.0 + 8, v.span_bytes(), "seed {seed}");
        // Distinct modules never exceed the word count or module count.
        let touched = v.modules_touched();
        assert!(touched <= 32, "seed {seed}");
        assert!(touched <= words as usize, "seed {seed}");
    }
}
