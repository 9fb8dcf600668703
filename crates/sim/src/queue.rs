//! The ordering rules and telemetry of the pending-event set.
//!
//! [`EventQueue`](crate::EventQueue) (a calendar queue, in
//! `calendar.rs`) pops events in ascending fire time, ties broken by the
//! [`TieBreak`] rank of the scheduling sequence. This module holds what
//! that order is made of: the rank transform, the packed `(time, rank)`
//! order key, the min-heap behind the calendar's overflow tier, and the
//! always-on self-telemetry counters ([`QueueStats`]: events scheduled
//! and popped, peak pending population, and a power-of-two histogram of
//! scheduling distances) — the paper's measurement discipline applied
//! to the simulator's own hot loop. The calendar derives the scheduled
//! and popped counts from its sequence counter and pending population
//! instead of tallying them per event.
//!
//! Under `cfg(test)` it also holds `HeapSchedule`, a binary-heap
//! future-event set that the calendar's property tests use as the
//! reference pop order.

use crate::time::SimTime;

/// Packs a `(fire time, sequence)` ordering key into one `u128` whose
/// natural integer order is exactly the lexicographic event order.
#[inline]
pub(crate) fn order_key(at: SimTime, seq: u64) -> u128 {
    ((at.0 as u128) << 64) | seq as u128
}

/// Fire time half of an [`order_key`].
#[inline]
pub(crate) fn key_time(key: u128) -> SimTime {
    crate::time::Cycles((key >> 64) as u64)
}

/// How simultaneous events — same fire time — are ordered relative to
/// each other.
///
/// The policy is a *bijective rank transform* of the scheduling
/// sequence, applied once at schedule time: FIFO keeps the sequence,
/// LIFO reverses it (`!seq`), and a seeded shuffle maps it through the
/// SplitMix64 finalizer (a permutation of `u64`, so two events never
/// collide on a rank). The queue orders ties by the rank alone, so the
/// pop order is exact under every policy.
///
/// Anything the simulation *measures* must not depend on this choice;
/// `cedar-check` perturbs it adversarially to prove that. The default
/// is FIFO — the documented `(fire time, scheduling sequence)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Ties pop in scheduling order (the default, and the order the
    /// rest of the documentation describes).
    #[default]
    Fifo,
    /// Ties pop in reverse scheduling order.
    Lifo,
    /// Ties pop in a seeded pseudo-random order.
    Shuffle(u64),
}

impl TieBreak {
    /// The rank that stands in for sequence `seq` under this policy.
    /// A bijection of `u64` for every policy, so ranks are unique.
    #[inline]
    pub(crate) fn rank(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => !seq,
            TieBreak::Shuffle(seed) => {
                // SplitMix64 finalizer: xor-shifts and odd multiplies,
                // each invertible, so the whole mix is a permutation.
                let mut z = seq ^ seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }
    }
}

impl std::fmt::Display for TieBreak {
    /// Canonical text form (`fifo` / `lifo` / `shuffle:0x<seed>`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieBreak::Fifo => f.write_str("fifo"),
            TieBreak::Lifo => f.write_str("lifo"),
            TieBreak::Shuffle(seed) => write!(f, "shuffle:{seed:#x}"),
        }
    }
}

/// One min-heap node: a packed order key plus its payload. The `Ord`
/// impl is *inverted* (greater key ⇒ lesser node) so the max-heap
/// semantics of [`std::collections::BinaryHeap`] pop the minimum key.
struct Node<E> {
    key: u128,
    payload: E,
}

impl<E> PartialEq for Node<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Node<E> {}
impl<E> PartialOrd for Node<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Node<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// A min-heap over `(order key, payload)` pairs — a thin wrapper around
/// the standard binary heap with the ordering inverted to pop minima.
/// Backs the calendar queue's overflow tier (and the test-only
/// `HeapSchedule`).
///
/// Measured alternatives lost to this: a hand-rolled 4-ary heap with
/// swap-based sifts ran ~2× slower on the hold benchmark despite
/// touching half the levels, because the standard heap's hole-based
/// sift moves each node once per level (and sift-down-to-bottom skips
/// the per-level early-exit comparison entirely).
pub(crate) struct MinHeap<E> {
    heap: std::collections::BinaryHeap<Node<E>>,
}

impl<E> MinHeap<E> {
    pub(crate) fn new() -> Self {
        MinHeap {
            heap: std::collections::BinaryHeap::new(),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, key: u128, payload: E) {
        self.heap.push(Node { key, payload });
    }

    /// Order key of the minimum, without removing it.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<u128> {
        self.heap.peek().map(|n| n.key)
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u128, E)> {
        self.heap.pop().map(|n| (n.key, n.payload))
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Number of power-of-two buckets in the hold-distance histogram.
pub const HOLD_BUCKETS: usize = 16;

/// Self-telemetry counters of the pending-event set, cheap enough to
/// stay on unconditionally: `scheduled` and `popped` are derived when
/// read, the rest are updated on the schedule path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events ever popped.
    pub popped: u64,
    /// Peak pending population.
    pub pending_peak: u64,
    /// Events that missed the calendar wheel's horizon and spilled to
    /// the overflow heap.
    pub overflow_spills: u64,
    /// Peak population on the calendar wheel proper.
    pub wheel_peak: u64,
    /// Histogram of hold distances — how far ahead of the most recent
    /// pop each event was scheduled. Bucket 0 counts zero-cycle
    /// distances; bucket `k ≥ 1` counts distances in
    /// `[2^(k-1), 2^k)`; the last bucket absorbs everything beyond.
    pub hold_hist: [u64; HOLD_BUCKETS],
}

impl QueueStats {
    pub(crate) fn new() -> Self {
        QueueStats {
            scheduled: 0,
            popped: 0,
            pending_peak: 0,
            overflow_spills: 0,
            wheel_peak: 0,
            hold_hist: [0; HOLD_BUCKETS],
        }
    }

    /// Records one scheduling `distance` cycles ahead of the most recent
    /// pop in the hold histogram.
    #[inline(always)]
    pub(crate) fn record_hold(&mut self, distance: u64) {
        let bucket = if distance == 0 {
            0
        } else {
            (HOLD_BUCKETS - 1).min(64 - distance.leading_zeros() as usize)
        };
        self.hold_hist[bucket] += 1;
    }
}

/// A binary-min-heap future-event set: O(log n) schedule and pop, and
/// the reference pop order the calendar queue's property tests check
/// against. It tallies `scheduled`, `popped` and the pending peak on
/// every call, the reference for the calendar's derived counts.
#[cfg(test)]
pub(crate) struct HeapSchedule<E> {
    heap: MinHeap<E>,
    next_seq: u64,
    tiebreak: TieBreak,
    stats: QueueStats,
    last_popped: SimTime,
}

#[cfg(test)]
impl<E> HeapSchedule<E> {
    pub(crate) fn new() -> Self {
        HeapSchedule {
            heap: MinHeap::new(),
            next_seq: 0,
            tiebreak: TieBreak::default(),
            stats: QueueStats::new(),
            last_popped: SimTime::ZERO,
        }
    }

    /// Selects the simultaneous-event ordering policy. Ranks are
    /// assigned at schedule time, so this must be set before any event
    /// is scheduled.
    pub(crate) fn with_tiebreak(mut self, tiebreak: TieBreak) -> Self {
        debug_assert_eq!(self.next_seq, 0, "tie-break set after scheduling");
        self.tiebreak = tiebreak;
        self
    }

    pub(crate) fn schedule(&mut self, at: SimTime, payload: E) {
        let rank = self.tiebreak.rank(self.next_seq);
        self.next_seq += 1;
        self.heap.push(order_key(at, rank), payload);
        self.stats.scheduled += 1;
        self.stats.pending_peak = self.stats.pending_peak.max(self.heap.len() as u64);
        self.stats
            .record_hold(at.0.saturating_sub(self.last_popped.0));
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, payload) = self.heap.pop()?;
        let at = key_time(key);
        self.stats.popped += 1;
        self.last_popped = at;
        Some((at, payload))
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Cycles;
    use crate::EventQueue;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), 3);
        q.schedule(Cycles(10), 1);
        q.schedule(Cycles(20), 2);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 2)));
        assert_eq!(q.pop(), Some((Cycles(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(7), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(5), 0);
        assert_eq!(q.pop(), Some((Cycles(5), 0)));
        q.schedule(Cycles(8), 1);
        q.schedule(Cycles(6), 2);
        assert_eq!(q.pop(), Some((Cycles(6), 2)));
        q.schedule(Cycles(7), 3);
        assert_eq!(q.pop(), Some((Cycles(7), 3)));
        assert_eq!(q.pop(), Some((Cycles(8), 1)));
    }

    #[test]
    fn counts_total_scheduled() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(Cycles(i as u64), i);
        }
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        while q.pop().is_some() {}
        assert_eq!(q.stats().scheduled, 5);
        assert!(q.is_empty());
    }

    #[test]
    fn stats_track_traffic() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(0), 0); // distance 0 → bucket 0
        q.schedule(Cycles(1), 1); // distance 1 → bucket 1
        q.schedule(Cycles(6), 2); // distance 6 → bucket 3 ([4,8))
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.popped, 0);
        assert_eq!(s.pending_peak, 3);
        assert_eq!(s.hold_hist[0], 1);
        assert_eq!(s.hold_hist[1], 1);
        assert_eq!(s.hold_hist[3], 1);
        while q.pop().is_some() {}
        assert_eq!(q.stats().popped, 3);
        // Distances are measured from the last pop (now at t=6).
        q.schedule(Cycles(6 + 40_000), 3);
        let s = q.stats();
        assert_eq!(s.hold_hist[HOLD_BUCKETS - 1], 1, "tail bucket absorbs");
        assert_eq!(s.pending_peak, 3, "peak is a high-water mark");
    }

    #[test]
    fn lifo_ties_pop_in_reverse_insertion_order() {
        let mut q = EventQueue::new().with_tiebreak(TieBreak::Lifo);
        for i in 0..100 {
            q.schedule(Cycles(7), i);
        }
        for i in (0..100).rev() {
            assert_eq!(q.pop(), Some((Cycles(7), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn shuffle_ties_are_a_seeded_permutation() {
        // The shuffle is deterministic per seed, the heap reference pops
        // the same order, it is a true permutation (nothing lost,
        // nothing doubled), and different seeds give different orders.
        let tie = TieBreak::Shuffle(42);
        let mut q = EventQueue::new().with_tiebreak(tie);
        let mut heap = HeapSchedule::new().with_tiebreak(tie);
        for i in 0..64 {
            q.schedule(Cycles(3), i);
            heap.schedule(Cycles(3), i);
        }
        let a: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let b: Vec<i64> = std::iter::from_fn(|| heap.pop()).map(|(_, e)| e).collect();
        assert_eq!(a, b, "the heap reference agrees on the shuffled order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a, (0..64).collect::<Vec<_>>(), "not FIFO");
        let mut other = EventQueue::new().with_tiebreak(TieBreak::Shuffle(43));
        for i in 0..64 {
            other.schedule(Cycles(3), i);
        }
        let c: Vec<i64> = std::iter::from_fn(|| other.pop()).map(|(_, e)| e).collect();
        assert_ne!(c, a, "seed changes the order");
    }

    #[test]
    fn tiebreak_never_reorders_across_distinct_times() {
        for tiebreak in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Shuffle(9)] {
            let mut q = EventQueue::new().with_tiebreak(tiebreak);
            q.schedule(Cycles(30), 3);
            q.schedule(Cycles(10), 1);
            q.schedule(Cycles(20), 2);
            assert_eq!(q.pop(), Some((Cycles(10), 1)));
            assert_eq!(q.pop(), Some((Cycles(20), 2)));
            assert_eq!(q.pop(), Some((Cycles(30), 3)));
        }
    }

    #[test]
    fn tiebreak_parses_and_roundtrips() {
        assert_eq!(TieBreak::Fifo.to_string(), "fifo");
        assert_eq!(TieBreak::Lifo.to_string(), "lifo");
        assert_eq!(TieBreak::Shuffle(0).to_string(), "shuffle:0x0");
        assert_eq!(
            TieBreak::Shuffle(0xDEAD_BEEF).to_string(),
            "shuffle:0xdeadbeef"
        );
    }

    #[test]
    fn shuffle_ranks_are_unique() {
        // The rank transform must be injective, or two events could tie
        // on a rank and the bucket sort would order them arbitrarily.
        let mut seen = std::collections::HashSet::new();
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Shuffle(7)] {
            seen.clear();
            for seq in 0..10_000u64 {
                assert!(seen.insert(policy.rank(seq)), "{policy} rank collision");
            }
            // The extremes map somewhere, uniquely.
            assert!(seen.insert(policy.rank(u64::MAX)));
        }
    }
}
