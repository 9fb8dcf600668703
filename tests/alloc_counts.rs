//! Exact heap-allocation counts of the event loop.
//!
//! DESIGN §4 claims the steady-state event path performs no heap
//! allocation. A counting global allocator checks the claim on any
//! host: `Machine::run` must allocate as often at 1/4 scale as at 1/16
//! (about three times the events), and its counts for the 15 grid cells
//! at 1/16 scale and one faulted cell are pinned in
//! `tests/golden/alloc_counts.txt`. The counts are the same in debug
//! and release builds. Reallocations follow the peak queue occupancy,
//! so they are pinned per cell but never held constant. Re-record with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test alloc_counts
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::thread::LocalKey;

use cedar::apps::{app_by_name, perfect_suite, AppSpec};
use cedar::core::machine::Machine;
use cedar::core::SimConfig;
use cedar::faults::FaultPlan;
use cedar::hw::Configuration;
use cedar::report::golden;
use cedar::sim::TieBreak;

/// `System`, counting this thread's allocations and reallocations.
struct Counting;

// `const`-initialized and drop-free, so reading or bumping a counter
// never allocates, and each test thread keeps its own counts.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// This thread's (allocations, reallocations) so far.
fn counts() -> (u64, u64) {
    (ALLOCS.get(), REALLOCS.get())
}

/// `Machine::run`'s (allocations, reallocations) for `app` at
/// 1/`shrink` scale under `cfg`. Building the machine is not counted.
fn run_counts(app: &AppSpec, shrink: u32, cfg: SimConfig) -> (u64, u64) {
    let machine = Machine::new(&app.shrunk(shrink), cfg);
    let (allocs, reallocs) = counts();
    drop(machine.run());
    let (a, r) = counts();
    (a - allocs, r - reallocs)
}

fn perfect(name: &str) -> AppSpec {
    app_by_name(name).expect("a Perfect application")
}

/// The canonical fault plan on FLO52 at 8 processors.
fn faulted() -> SimConfig {
    SimConfig::cedar(Configuration::P8).with_faults(FaultPlan::canonical())
}

#[test]
fn event_loop_allocations_do_not_grow_with_the_workload() {
    // The counter itself must see allocations, or the law below would
    // hold vacuously.
    let (a, r) = counts();
    let boxed = std::hint::black_box(Box::new(7u64));
    assert_eq!(counts(), (a + 1, r), "one Box::new is one allocation");
    drop(boxed);

    let fifo = SimConfig::cedar;
    let shuffle = |c| SimConfig::cedar(c).with_tiebreak(TieBreak::Shuffle(0x5EED));
    let cells = [
        ("FLO52 1p", "FLO52", fifo(Configuration::P1)),
        ("FLO52 32p", "FLO52", fifo(Configuration::P32)),
        ("MDG 32p", "MDG", fifo(Configuration::P32)),
        ("ADM 32p", "ADM", fifo(Configuration::P32)),
        ("FLO52 8p faults", "FLO52", faulted()),
        ("MDG 32p shuffle", "MDG", shuffle(Configuration::P32)),
        ("ADM 32p shuffle", "ADM", shuffle(Configuration::P32)),
    ];
    for (label, name, cfg) in cells {
        let app = perfect(name);
        let small = run_counts(&app, 16, cfg.clone()).0;
        let large = run_counts(&app, 4, cfg).0;
        assert!(small > 0, "{label}: the run counted no allocation");
        assert_eq!(
            small, large,
            "{label}: Machine::run allocated {small} times at 1/16 scale but {large} at 1/4"
        );
    }
}

#[test]
fn allocation_counts_match_golden() {
    let mut text = String::from("# Machine::run heap allocations and reallocations, 1/16 scale\n");
    for app in perfect_suite() {
        for c in [Configuration::P1, Configuration::P8, Configuration::P32] {
            let (a, r) = run_counts(&app, 16, SimConfig::cedar(c));
            let procs = format!("{}p", c.total_ces());
            text += &format!("{:<6} {procs:<10} allocs {a} reallocs {r}\n", app.name);
        }
    }
    let (a, r) = run_counts(&perfect("FLO52"), 16, faulted());
    text += &format!("FLO52  8p faults  allocs {a} reallocs {r}\n");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/alloc_counts.txt");
    golden::assert_matches(&path, &text);
}
