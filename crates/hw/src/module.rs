//! A global-memory module: FCFS server with atomic synchronization ops.

use cedar_sim::{Cycles, SimTime};

use crate::packet::MemOp;

/// Written words a module keeps inline before spilling to the heap.
const INLINE_WORDS: usize = 4;

/// Sparse word storage sized for reality: only synchronization words
/// (locks, flags, tickets, join counters) are ever *written*, and the
/// mod-`n` interleave spreads those across modules, so a module holds
/// zero to two written words in steady state. A fixed inline array keeps
/// the hot `Read` path (probe, miss, return 0) allocation-free and
/// cache-resident; anything past the inline bound spills to a vector.
#[derive(Debug, Clone, Default)]
struct WordStore {
    inline: [(u64, u64); INLINE_WORDS],
    inline_len: usize,
    spill: Vec<(u64, u64)>,
}

impl WordStore {
    fn get(&self, dword: u64) -> u64 {
        for &(k, v) in &self.inline[..self.inline_len] {
            if k == dword {
                return v;
            }
        }
        for &(k, v) in &self.spill {
            if k == dword {
                return v;
            }
        }
        0
    }

    fn set(&mut self, dword: u64, value: u64) {
        for entry in &mut self.inline[..self.inline_len] {
            if entry.0 == dword {
                entry.1 = value;
                return;
            }
        }
        for entry in &mut self.spill {
            if entry.0 == dword {
                entry.1 = value;
                return;
            }
        }
        if self.inline_len < INLINE_WORDS {
            self.inline[self.inline_len] = (dword, value);
            self.inline_len += 1;
        } else {
            self.spill.push((dword, value));
        }
    }
}

/// One of the 32 independent global-memory modules.
///
/// The module serializes requests (busy for `service` cycles per request —
/// 4 on Cedar, §7) and pipelines the DRAM `access` component. Lock, flag
/// and counter words are stored sparsely; data words read as zero, which
/// is irrelevant to timing.
#[derive(Debug, Clone)]
pub struct MemoryModule {
    service: Cycles,
    access: Cycles,
    free_at: SimTime,
    words: WordStore,
    requests: u64,
    sync_requests: u64,
    queued: Cycles,
}

impl MemoryModule {
    /// Creates an idle module with the given serialization and access
    /// latencies.
    pub fn new(service: Cycles, access: Cycles) -> Self {
        MemoryModule {
            service,
            access,
            free_at: Cycles::ZERO,
            words: WordStore::default(),
            requests: 0,
            sync_requests: 0,
            queued: Cycles::ZERO,
        }
    }

    /// Serves a request arriving at `now` against double-word `dword`.
    /// Returns `(response_ready_at, value)` where `value` follows the
    /// semantics of [`MemOp`].
    pub fn serve(&mut self, dword: u64, op: MemOp, now: SimTime) -> (SimTime, u64) {
        let start = now.max(self.free_at);
        self.queued += start - now;
        self.free_at = start + self.service;
        self.requests += 1;
        if op.is_sync() {
            self.sync_requests += 1;
        }
        let value = self.apply(dword, op);
        (start + self.service + self.access, value)
    }

    fn apply(&mut self, dword: u64, op: MemOp) -> u64 {
        match op {
            MemOp::Read => self.words.get(dword),
            MemOp::Write(v) => {
                self.words.set(dword, v);
                0
            }
            MemOp::TestAndSet => {
                let old = self.words.get(dword);
                self.words.set(dword, 1);
                old
            }
            MemOp::Unset => {
                self.words.set(dword, 0);
                0
            }
            MemOp::FetchAdd(d) => {
                let old = self.words.get(dword);
                self.words.set(dword, old.wrapping_add_signed(d));
                old
            }
        }
    }

    /// Peeks at a stored word without consuming module time (test and
    /// debugging aid; not reachable from simulated CEs).
    pub fn peek(&self, dword: u64) -> u64 {
        self.words.get(dword)
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Synchronization (TAS/Unset/FetchAdd) requests served so far — high
    /// counts on a single module indicate a hot spot.
    pub(crate) fn sync_requests(&self) -> u64 {
        self.sync_requests
    }

    /// Cumulative service time: every request holds the module for
    /// one service period.
    pub fn busy(&self) -> Cycles {
        self.service * self.requests
    }

    /// Cumulative queueing delay at this module.
    pub fn queued(&self) -> Cycles {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> MemoryModule {
        MemoryModule::new(Cycles(4), Cycles(8))
    }

    #[test]
    fn read_of_untouched_word_is_zero() {
        let mut m = module();
        let (ready, v) = m.serve(10, MemOp::Read, Cycles(0));
        assert_eq!(v, 0);
        assert_eq!(ready, Cycles(12)); // 4 service + 8 access
    }

    #[test]
    fn write_then_read() {
        let mut m = module();
        m.serve(7, MemOp::Write(42), Cycles(0));
        let (_, v) = m.serve(7, MemOp::Read, Cycles(100));
        assert_eq!(v, 42);
    }

    #[test]
    fn test_and_set_returns_old_and_sets_one() {
        let mut m = module();
        let (_, first) = m.serve(3, MemOp::TestAndSet, Cycles(0));
        let (_, second) = m.serve(3, MemOp::TestAndSet, Cycles(10));
        assert_eq!(first, 0, "first TAS acquires");
        assert_eq!(second, 1, "second TAS sees the lock held");
        m.serve(3, MemOp::Unset, Cycles(20));
        let (_, third) = m.serve(3, MemOp::TestAndSet, Cycles(30));
        assert_eq!(third, 0, "TAS after Unset acquires again");
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let mut m = module();
        let (_, a) = m.serve(5, MemOp::FetchAdd(1), Cycles(0));
        let (_, b) = m.serve(5, MemOp::FetchAdd(1), Cycles(10));
        let (_, c) = m.serve(5, MemOp::FetchAdd(-2), Cycles(20));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(m.peek(5), 0);
    }

    #[test]
    fn simultaneous_requests_serialize_four_cycles_apart() {
        let mut m = module();
        let (r1, _) = m.serve(0, MemOp::Read, Cycles(0));
        let (r2, _) = m.serve(1, MemOp::Read, Cycles(0));
        let (r3, _) = m.serve(2, MemOp::Read, Cycles(0));
        assert_eq!(r1, Cycles(12));
        assert_eq!(r2, Cycles(16)); // queued 4 cycles
        assert_eq!(r3, Cycles(20)); // queued 8 cycles
        assert_eq!(m.queued(), Cycles(12));
    }

    #[test]
    fn statistics_track_sync_ops() {
        let mut m = module();
        m.serve(0, MemOp::Read, Cycles(0));
        m.serve(0, MemOp::TestAndSet, Cycles(0));
        m.serve(0, MemOp::FetchAdd(1), Cycles(0));
        assert_eq!(m.requests(), 3);
        assert_eq!(m.sync_requests(), 2);
        assert_eq!(m.busy(), Cycles(12));
    }

    #[test]
    fn word_store_spills_past_inline_bound() {
        let mut m = module();
        let n = INLINE_WORDS as u64 + 3;
        for d in 0..n {
            m.serve(d, MemOp::Write(d + 100), Cycles(d * 20));
        }
        for d in 0..n {
            assert_eq!(m.peek(d), d + 100, "word {d} survives the spill");
        }
        m.serve(0, MemOp::Write(7), Cycles(1_000)); // inline update
        m.serve(n - 1, MemOp::Write(9), Cycles(1_100)); // spill update
        assert_eq!((m.peek(0), m.peek(n - 1)), (7, 9));
    }

    #[test]
    fn paper_example_back_to_back_same_module() {
        // §7: "if the processor issues two requests in successive clock
        // cycles to the same memory module the second one would be
        // delayed" — by 3 cycles here (arrives at t=1, module busy to 4).
        let mut m = module();
        m.serve(0, MemOp::Read, Cycles(0));
        let before = m.queued();
        m.serve(32, MemOp::Read, Cycles(1)); // same module, next cycle
        assert_eq!(m.queued() - before, Cycles(3));
    }
}
