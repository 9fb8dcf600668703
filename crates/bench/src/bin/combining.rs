//! Flat barrier vs. software combining tree (\[16\], §6).
//!
//! Measures one barrier episode on the simulated memory system: N
//! processors arrive simultaneously and fetch-add counters until the
//! barrier completes. The *flat* barrier uses one counter word (the hot
//! spot §6 warns about); the *combining tree* spreads counters across
//! memory modules so each word sees at most `fanout` operations.
//!
//! This experiment drives `GlobalMemorySystem` directly — no OS, no
//! runtime — so the numbers isolate pure memory-system behaviour.

use cedar_hw::{CeId, GlobalAddr, GlobalMemorySystem, MemOp, NetConfig, Step};
use cedar_rtl::{CombiningTree, Propagation};
use cedar_sim::{Cycles, EventQueue, SimTime};

/// Drives one flat-barrier episode; returns the completion time.
fn flat_barrier(n: u32) -> SimTime {
    let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
    let counter = GlobalAddr(0x4000);
    let mut q = EventQueue::new();
    for p in 0..n {
        let (at, hop) = sys.inject(CeId(p as u16), counter, MemOp::FetchAdd(1), Cycles(0));
        q.schedule(at, hop);
    }
    let mut done = Cycles::ZERO;
    let mut completed = 0;
    while let Some((now, ev)) = q.pop() {
        match sys.handle(ev, now) {
            Step::Next(at, hop) => q.reschedule(at, hop),
            Step::Delivered(resp) => {
                completed += 1;
                if resp.value + 1 == n as u64 {
                    done = now; // the arrival that completed the count
                }
            }
        }
    }
    assert_eq!(completed, n);
    done
}

/// Drives one combining-tree episode; returns the completion time (the
/// moment the root completes).
fn combining_barrier(n: u32, fanout: u32) -> SimTime {
    let mut sys = GlobalMemorySystem::new(NetConfig::cedar());
    let tree = CombiningTree::new(GlobalAddr(0x4000), n, fanout);
    let mut q = EventQueue::new();
    // Track which (level, idx) each CE's in-flight request targets: a
    // CE issues its next fetch-add only after the previous one returns,
    // so it has at most one request in flight.
    let mut target: std::collections::HashMap<CeId, (usize, u32)> =
        std::collections::HashMap::new();
    for p in 0..n {
        let ce = CeId(p as u16);
        let leaf = tree.leaf_of(p);
        let (at, hop) = sys.inject(ce, leaf, MemOp::FetchAdd(1), Cycles(0));
        target.insert(ce, (0, tree.leaf_index(p)));
        q.schedule(at, hop);
    }
    let mut released_at = None;
    while let Some((now, ev)) = q.pop() {
        let resp = match sys.handle(ev, now) {
            Step::Next(at, hop) => {
                q.reschedule(at, hop);
                continue;
            }
            Step::Delivered(resp) => resp,
        };
        let (level, idx) = target.remove(&resp.ce).expect("tracked request");
        match tree.propagate(level, idx, resp.value) {
            Propagation::Waiting => {}
            Propagation::Up { level, idx, addr } => {
                let (at, hop) = sys.inject(resp.ce, addr, MemOp::FetchAdd(1), now);
                q.reschedule(at, hop);
                target.insert(resp.ce, (level, idx));
            }
            Propagation::Release => released_at = Some(now),
        }
    }
    released_at.expect("barrier completed")
}

fn main() {
    println!("One barrier episode: flat fetch-add counter vs software combining tree");
    println!(
        "{:>6} | {:>12} | {:>14} | {:>14} | {:>8}",
        "N", "flat (cy)", "tree k=4 (cy)", "tree k=8 (cy)", "flat/k4"
    );
    println!("{}", "-".repeat(66));
    for n in [4u32, 8, 16, 32] {
        let flat = flat_barrier(n);
        let k4 = combining_barrier(n, 4);
        let k8 = combining_barrier(n, 8);
        println!(
            "{:>6} | {:>12} | {:>14} | {:>14} | {:>8.2}",
            n,
            flat.0,
            k4.0,
            k8.0,
            flat.0 as f64 / k4.0 as f64
        );
    }
    println!();
    println!("The flat counter serializes all N fetch-adds at one memory module");
    println!("(§6's hot spot); the tree pays extra levels of latency but caps any");
    println!("module at `fanout` operations — the [16] trade-off. Clustering gets");
    println!("the same effect in hardware: only one processor per cluster reaches");
    println!("global memory for the barrier.");
}
