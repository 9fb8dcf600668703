//! A global-memory module's words and request counts. Its FCFS timing
//! is one server in [`GlobalMemorySystem`](crate::GlobalMemorySystem)'s
//! table.

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

/// The words and request counts of one of the 32 independent
/// global-memory modules; the default module holds every word zero.
///
/// Lock, flag and counter words are stored sparsely; data words read as
/// zero, which is irrelevant to timing. The module's service (busy 4
/// cycles per request on Cedar, §7) and its pipelined DRAM access are
/// charged by its server in the memory system's table.
#[derive(Debug, Clone, Default)]
pub struct MemoryModule {
    words: WordStore,
    requests: u64,
    sync_requests: u64,
}

impl MemoryModule {
    /// Performs `op` on double-word `dword` and counts the request;
    /// returns the value [`MemOp`] defines.
    pub fn apply(&mut self, dword: u64, op: MemOp) -> u64 {
        self.requests += 1;
        if op.is_sync() {
            self.sync_requests += 1;
        }
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

    /// Peeks at a stored word without counting a request (test and
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut m = MemoryModule::default();
        m.apply(7, MemOp::Write(42));
        let v = m.apply(7, MemOp::Read);
        assert_eq!(v, 42);
    }

    #[test]
    fn test_and_set_returns_old_and_sets_one() {
        let mut m = MemoryModule::default();
        let first = m.apply(3, MemOp::TestAndSet);
        let second = m.apply(3, MemOp::TestAndSet);
        assert_eq!(first, 0, "first TAS acquires");
        assert_eq!(second, 1, "second TAS sees the lock held");
        m.apply(3, MemOp::Unset);
        let third = m.apply(3, MemOp::TestAndSet);
        assert_eq!(third, 0, "TAS after Unset acquires again");
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let mut m = MemoryModule::default();
        let a = m.apply(5, MemOp::FetchAdd(1));
        let b = m.apply(5, MemOp::FetchAdd(1));
        let c = m.apply(5, MemOp::FetchAdd(-2));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(m.peek(5), 0);
    }

    #[test]
    fn word_store_spills_past_inline_bound() {
        let mut m = MemoryModule::default();
        let n = INLINE_WORDS as u64 + 3;
        for d in 0..n {
            m.apply(d, MemOp::Write(d + 100));
        }
        for d in 0..n {
            assert_eq!(m.peek(d), d + 100, "word {d} survives the spill");
        }
        m.apply(0, MemOp::Write(7)); // inline update
        m.apply(n - 1, MemOp::Write(9)); // spill update
        assert_eq!((m.peek(0), m.peek(n - 1)), (7, 9));
    }
}
