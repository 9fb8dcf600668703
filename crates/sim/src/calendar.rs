//! Calendar-queue pending-event set: a bucketed wheel over [`SimTime`]
//! with an overflow tier.
//!
//! The wheel divides simulated time into fixed-width *days* (a power of
//! two of cycles each) and keeps one bucket per day for the next
//! `days` days. Scheduling an event within that horizon is an append to
//! its day's bucket; scheduling beyond it pushes into an overflow
//! min-heap that is drained into the wheel as the cursor advances.
//! Popping takes the front of the cursor's bucket.
//! Because the Cedar machine schedules almost every event a handful of
//! cycles ahead (switch hops, module service, spin periods are all 1–8
//! cycles), nearly all traffic stays on the O(1) wheel path and the
//! heap's O(log n) per-event cost — with n in the tens of thousands
//! during a 32-processor campaign — drops out of the simulator's hot
//! loop.
//!
//! Ordering is identical to the heap scheduler's: ascending fire time,
//! ties broken by the [`TieBreak`] rank of the scheduling sequence (the
//! sequence itself under the default FIFO policy). Buckets keep their
//! entries in ascending `(time, rank)` order and pop from the front;
//! under FIFO appends almost always arrive in ascending order already
//! (one-day buckets hold simultaneous events, whose tie-break sequences
//! are issued ascending), so the common case is a plain push with no
//! sorting or shifting at all. An order-breaking insert (an earlier-day
//! stray clamped into the cursor's bucket, an overflow migration landing
//! behind a direct insert, or a non-monotone LIFO/shuffle rank) flips a
//! dirty bit and the bucket is re-sorted once on the next pop.
//! Cross-bucket order holds because a bucket only ever drains events of
//! a single pending day.
//!
//! Buckets and the overflow heap hold the payloads themselves. A bucket
//! is a ring buffer that keeps its capacity when it empties, so
//! steady-state operation performs no allocation at all.

use std::collections::VecDeque;

use crate::queue::{key_time, order_key, MinHeap, QueueStats, TieBreak};
use crate::time::SimTime;

/// Default log2 of the day width: one-cycle days. A bucket then only
/// ever holds simultaneous events, whose tie-break sequences arrive in
/// ascending order — so appends never disturb the ascending order and
/// the per-event cost stays flat instead of re-paying the heap's
/// O(log n) inside large buckets.
const DEFAULT_DAY_SHIFT: u32 = 0;

/// Default number of days on the wheel (must be a power of two).
/// 256 one-cycle days keep the whole bucket array within ~10 KiB, so the
/// cursor scan stays in L1 — measurements show the wheel's cache
/// footprint, not the bucket maintenance, dominates throughput (256
/// days run ~2.5× faster than 4096 on the packet-dense network
/// workload). The 256-cycle horizon still covers every hop, service and
/// occupancy constant in the machine model; longer rebookings (spin
/// periods, daemon wakeups, serial sections) take the overflow tier,
/// which the wheel drains as the cursor advances.
const DEFAULT_DAYS: u64 = 256;

/// One day's worth of pending events, as `(fire time, tie rank,
/// payload)`.
///
/// The entries are in ascending `(time, rank)` order whenever `sorted`
/// is true, so the next to fire sits at the front.
struct Bucket<E> {
    items: VecDeque<(SimTime, u64, E)>,
    sorted: bool,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Bucket {
            items: VecDeque::new(),
            sorted: true,
        }
    }

    /// Appends an entry, flagging the bucket dirty if it breaks
    /// ascending order (rare: earlier-day strays, late overflow
    /// migrations and non-FIFO tie ranks).
    fn push(&mut self, at: SimTime, rank: u64, payload: E) {
        if self.sorted {
            if let Some(&(last_at, last_rank, _)) = self.items.back() {
                if (at, rank) < (last_at, last_rank) {
                    self.sorted = false;
                }
            }
        }
        self.items.push_back((at, rank, payload));
    }

    /// Removes the earliest entry, first restoring ascending order if an
    /// append broke it.
    fn pop_front(&mut self) -> Option<(SimTime, E)> {
        if !self.sorted {
            self.items
                .make_contiguous()
                .sort_unstable_by_key(|e| (e.0, e.1));
            self.sorted = true;
        }
        let (at, _, payload) = self.items.pop_front()?;
        if self.items.is_empty() {
            // Rewinds the ring to the buffer's start, so the next
            // rotation reuses the same (cache-hot) slots.
            self.items.clear();
        }
        Some((at, payload))
    }
}

/// A calendar queue: O(1) amortized schedule and pop for the near-future
/// event traffic that dominates discrete-event simulation. The default
/// backend of [`EventQueue`](crate::EventQueue).
pub(crate) struct CalendarSchedule<E> {
    buckets: Vec<Bucket<E>>,
    /// `buckets.len() - 1`; bucket count is a power of two so the day →
    /// bucket map is a mask, not a modulo.
    day_mask: u64,
    /// log2 of cycles per day; the time → day map is a shift, not a div.
    day_shift: u32,
    /// The day the pop cursor is on. Every wheel event's day is in
    /// `[cur_day, cur_day + days)` (earlier-day strays are clamped into
    /// `cur_day`'s bucket at insert).
    cur_day: u64,
    /// Events currently on the wheel (the overflow tier excluded).
    wheel_len: usize,
    /// Events beyond the wheel horizon, drained in as the cursor
    /// advances.
    overflow: MinHeap<E>,
    next_seq: u64,
    tiebreak: TieBreak,
    stats: QueueStats,
    last_popped: SimTime,
}

impl<E> CalendarSchedule<E> {
    /// Creates an empty queue with the default geometry (one-cycle
    /// days, 256-day wheel).
    pub(crate) fn new() -> Self {
        Self::with_geometry(1 << DEFAULT_DAY_SHIFT, DEFAULT_DAYS)
    }

    /// Creates an empty queue with `day_width` cycles per bucket and a
    /// `days`-bucket wheel.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or not a power of two.
    pub(crate) fn with_geometry(day_width: u64, days: u64) -> Self {
        assert!(
            day_width.is_power_of_two(),
            "day width must be a power of two, got {day_width}"
        );
        assert!(
            days.is_power_of_two(),
            "day count must be a power of two, got {days}"
        );
        CalendarSchedule {
            buckets: (0..days).map(|_| Bucket::new()).collect(),
            day_mask: days - 1,
            day_shift: day_width.trailing_zeros(),
            cur_day: 0,
            wheel_len: 0,
            overflow: MinHeap::new(),
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

    /// The day `t` falls on.
    fn day_of(&self, t: SimTime) -> u64 {
        t.0 >> self.day_shift
    }

    /// `true` if `day` falls inside the wheel's current coverage,
    /// `[cur_day, cur_day + days)`. When `cur_day + days` overflows
    /// `u64`, the window `[cur_day, u64::MAX]` is no larger than the
    /// wheel, so every remaining day fits.
    fn fits_wheel(&self, day: u64) -> bool {
        match self.cur_day.checked_add(self.day_mask + 1) {
            Some(horizon) => day < horizon,
            None => true,
        }
    }

    /// Appends an event to its day's bucket (an earlier-day stray goes
    /// to the cursor's bucket).
    fn push_wheel(&mut self, at: SimTime, rank: u64, payload: E) {
        let day = self.day_of(at).max(self.cur_day);
        self.buckets[(day & self.day_mask) as usize].push(at, rank, payload);
        self.wheel_len += 1;
        self.stats.wheel_peak = self.stats.wheel_peak.max(self.wheel_len as u64);
    }

    /// Moves every overflow event whose day now falls inside the horizon
    /// onto the wheel. Called whenever `cur_day` changes, preserving the
    /// invariant that overflow events are strictly beyond the wheel.
    fn refill_from_overflow(&mut self) {
        while let Some(key) = self.overflow.peek_key() {
            let at = key_time(key);
            if !self.fits_wheel(self.day_of(at)) {
                break;
            }
            let (_, payload) = self.overflow.pop().expect("peeked root exists");
            self.push_wheel(at, key as u64, payload);
        }
    }

    pub(crate) fn schedule(&mut self, at: SimTime, payload: E) {
        let rank = self.tiebreak.rank(self.next_seq);
        self.next_seq += 1;
        if self.fits_wheel(self.day_of(at)) {
            self.push_wheel(at, rank, payload);
        } else {
            self.overflow.push(order_key(at, rank), payload);
            self.stats.overflow_spills += 1;
        }
        self.stats
            .on_schedule(at.0.saturating_sub(self.last_popped.0), self.len());
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if self.wheel_len == 0 {
                // Wheel empty: jump the cursor to the overflow head's day
                // and pull its cohort in.
                let key = self.overflow.peek_key()?;
                self.cur_day = self.day_of(key_time(key));
                self.refill_from_overflow();
                debug_assert!(self.wheel_len > 0, "refill pulled nothing despite head");
                continue;
            }
            let idx = (self.cur_day & self.day_mask) as usize;
            match self.buckets[idx].pop_front() {
                Some((at, payload)) => {
                    self.wheel_len -= 1;
                    self.stats.popped += 1;
                    self.last_popped = at;
                    return Some((at, payload));
                }
                None => {
                    self.cur_day += 1;
                    self.refill_from_overflow();
                }
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::HeapSchedule;
    use crate::rng::SplitMix64;
    use crate::time::Cycles;

    /// Pops everything from both schedulers, asserting identical streams
    /// and pending populations, then identical counters.
    fn assert_equivalent_drain(
        heap: &mut HeapSchedule<u64>,
        cal: &mut CalendarSchedule<u64>,
        context: &str,
    ) {
        loop {
            assert_eq!(heap.len(), cal.len(), "len diverged ({context})");
            let h = heap.pop();
            let c = cal.pop();
            assert_eq!(h, c, "pop streams diverged ({context})");
            if h.is_none() {
                break;
            }
        }
        assert_same_counters(heap, cal, context);
    }

    /// Asserts that the backend-independent [`QueueStats`] fields agree.
    fn assert_same_counters(heap: &HeapSchedule<u64>, cal: &CalendarSchedule<u64>, context: &str) {
        let (h, c) = (heap.stats(), cal.stats());
        assert_eq!(h.scheduled, c.scheduled, "scheduled ({context})");
        assert_eq!(h.popped, c.popped, "popped ({context})");
        assert_eq!(h.pending_peak, c.pending_peak, "pending_peak ({context})");
        assert_eq!(h.hold_hist, c.hold_hist, "hold_hist ({context})");
    }

    #[test]
    fn overflow_events_pop_in_order() {
        // A tiny wheel (4 days of 4 cycles) forces heavy overflow use.
        let mut q: CalendarSchedule<u32> = CalendarSchedule::with_geometry(4, 4);
        for (i, t) in [100u64, 3, 50, 17, 2_000, 16, 0].iter().enumerate() {
            q.schedule(Cycles(*t), i as u32);
        }
        assert!(
            q.stats().overflow_spills > 0,
            "test must exercise the overflow tier"
        );
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(times, vec![0, 3, 16, 17, 50, 100, 2_000]);
    }

    #[test]
    fn overflow_ties_interleave_with_wheel_ties() {
        let mut q: CalendarSchedule<u32> = CalendarSchedule::with_geometry(4, 4);
        // Both time-1000 events start in the overflow tier and migrate to
        // the wheel as the cursor advances; insertion order must survive
        // the migration.
        q.schedule(Cycles(1_000), 0);
        q.schedule(Cycles(1), 1);
        q.schedule(Cycles(1_000), 2);
        assert_eq!(q.pop(), Some((Cycles(1), 1)));
        assert_eq!(q.pop(), Some((Cycles(1_000), 0)));
        assert_eq!(q.pop(), Some((Cycles(1_000), 2)));
    }

    #[test]
    fn earlier_than_cursor_inserts_still_pop_first() {
        let mut q: CalendarSchedule<u32> = CalendarSchedule::new();
        q.schedule(Cycles(500), 0);
        assert_eq!(q.pop(), Some((Cycles(500), 0)));
        // The cursor now sits at day 500; scheduling in its past is
        // legal for the queue (the machine never does it) and must pop
        // before anything later.
        q.schedule(Cycles(600), 1);
        q.schedule(Cycles(10), 2);
        assert_eq!(q.pop(), Some((Cycles(10), 2)));
        assert_eq!(q.pop(), Some((Cycles(600), 1)));
    }

    #[test]
    fn simtime_extremes() {
        let mut q: CalendarSchedule<u32> = CalendarSchedule::new();
        q.schedule(Cycles::MAX, 0);
        q.schedule(Cycles::ZERO, 1);
        q.schedule(Cycles(u64::MAX - 1), 2);
        q.schedule(Cycles::MAX, 3);
        assert_eq!(q.pop(), Some((Cycles::ZERO, 1)));
        assert_eq!(q.pop(), Some((Cycles(u64::MAX - 1), 2)));
        assert_eq!(q.pop(), Some((Cycles::MAX, 0)));
        assert_eq!(q.pop(), Some((Cycles::MAX, 3)));
        assert_eq!(q.pop(), None);
    }

    /// Regression (PR 9): same-timestamp events straddling the
    /// wheel/overflow boundary must pop in one global tie order, under
    /// every tie-break policy, identically on both backends. The
    /// dangerous shape: part of a tie cohort lands on the wheel
    /// directly while the rest spills to the overflow heap and only
    /// migrates in later — the migrated entries' ranks (LIFO/shuffle
    /// ranks are non-monotone in insertion order) must still interleave
    /// exactly with the direct inserts.
    #[test]
    fn tie_cohorts_split_across_wheel_and_overflow_pop_identically() {
        for tiebreak in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::Shuffle(0x5EED),
            TieBreak::Shuffle(u64::MAX),
        ] {
            let mut heap = HeapSchedule::new().with_tiebreak(tiebreak);
            // Tiny wheel: 4 days × 4 cycles = 16-cycle horizon.
            let mut cal = CalendarSchedule::with_geometry(4, 4).with_tiebreak(tiebreak);
            // t=15 is the last on-wheel day; t=16/t=100 overflow. The
            // t=16 cohort is split: scheduled before and after a pop
            // advances the cursor (so some entries migrate, some insert
            // directly once the horizon has moved).
            for (t, p) in [(15u64, 0u64), (16, 1), (16, 2), (100, 3), (15, 4)] {
                heap.schedule(Cycles(t), p);
                cal.schedule(Cycles(t), p);
            }
            assert!(
                cal.stats().overflow_spills > 0,
                "cohort must straddle the boundary"
            );
            assert_eq!(heap.pop(), cal.pop(), "{tiebreak}: first pop");
            // Cursor has advanced; the rest of the t=16 cohort now fits
            // the wheel and lands next to its migrated siblings.
            for p in 5..9u64 {
                heap.schedule(Cycles(16), p);
                cal.schedule(Cycles(16), p);
            }
            assert_equivalent_drain(&mut heap, &mut cal, &format!("{tiebreak} boundary"));
        }
    }

    /// Regression (PR 9): tie cohorts at `SimTime::MAX` — where the
    /// day index saturates and (under LIFO) ranks reach `u64::MAX`, so
    /// packed order keys hit `u128::MAX` — must pop in one global
    /// order on both backends under every policy.
    #[test]
    fn tie_cohorts_at_simtime_max_pop_identically() {
        for tiebreak in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::Shuffle(1),
            TieBreak::Shuffle(u64::MAX),
        ] {
            let mut heap = HeapSchedule::new().with_tiebreak(tiebreak);
            let mut cal = CalendarSchedule::new().with_tiebreak(tiebreak);
            for (t, p) in [
                (u64::MAX, 0u64),
                (0, 1),
                (u64::MAX, 2),
                (u64::MAX - 1, 3),
                (u64::MAX, 4),
            ] {
                heap.schedule(Cycles(t), p);
                cal.schedule(Cycles(t), p);
            }
            assert_equivalent_drain(&mut heap, &mut cal, &format!("{tiebreak} at MAX"));
            // And a pure all-MAX cohort, scheduled after the cursor has
            // already jumped to the end of time.
            for p in 0..16u64 {
                heap.schedule(Cycles(u64::MAX), p);
                cal.schedule(Cycles(u64::MAX), p);
            }
            assert_equivalent_drain(&mut heap, &mut cal, &format!("{tiebreak} all-MAX"));
        }
    }

    /// The random heap-equivalence property, re-run under the
    /// non-default tie-break policies (the FIFO version is
    /// [`property_pop_order_matches_heap_on_random_schedules`]).
    #[test]
    fn property_pop_order_matches_heap_under_all_tiebreaks() {
        for tiebreak in [TieBreak::Lifo, TieBreak::Shuffle(0xC0DE)] {
            for seed in 0..24u64 {
                let mut rng = SplitMix64::new(0x71EB_0000 + seed);
                let mut heap = HeapSchedule::new().with_tiebreak(tiebreak);
                let mut cal = CalendarSchedule::with_geometry(4, 16).with_tiebreak(tiebreak);
                let n = 1 + rng.next_below(300);
                for i in 0..n {
                    let t = match rng.next_below(10) {
                        0..=5 => rng.next_below(1 << 10),  // on-wheel
                        6 | 7 => rng.next_below(1 << 24),  // overflow
                        8 => 7,                            // heavy tie
                        _ => u64::MAX - rng.next_below(2), // extremes
                    };
                    heap.schedule(Cycles(t), i);
                    cal.schedule(Cycles(t), i);
                }
                assert_equivalent_drain(&mut heap, &mut cal, &format!("{tiebreak} seed {seed}"));
            }
        }
    }

    #[test]
    fn property_pop_order_matches_heap_on_random_schedules() {
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(0xCA1E_0000 + seed);
            let mut heap = HeapSchedule::new();
            let mut cal = CalendarSchedule::new();
            // Mixed near/far/tied times, including u64::MAX extremes.
            let n = 1 + rng.next_below(400);
            for i in 0..n {
                let t = match rng.next_below(10) {
                    0..=5 => rng.next_below(1 << 12),  // on-wheel
                    6 | 7 => rng.next_below(1 << 30),  // overflow
                    8 => 7,                            // heavy tie
                    _ => u64::MAX - rng.next_below(2), // extremes
                };
                heap.schedule(Cycles(t), i);
                cal.schedule(Cycles(t), i);
                assert_eq!(heap.len(), cal.len(), "seed {seed} schedule {i}");
            }
            assert_equivalent_drain(&mut heap, &mut cal, &format!("seed {seed}"));
        }
    }

    #[test]
    fn property_interleaved_ops_match_heap() {
        // The machine's actual usage pattern: pop one, schedule a few
        // near-future successors, repeat. Exercises cursor advance,
        // same-bucket insertion after sort, and overflow refill.
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(0xBEE5_0000 + seed);
            let mut heap = HeapSchedule::new();
            let mut cal = CalendarSchedule::with_geometry(4, 64);
            let mut payload = 0u64;
            for _ in 0..50 {
                let t = rng.next_below(256);
                heap.schedule(Cycles(t), payload);
                cal.schedule(Cycles(t), payload);
                payload += 1;
            }
            for step in 0..2_000u64 {
                let h = heap.pop();
                let c = cal.pop();
                assert_eq!(h, c, "seed {seed} step {step}");
                assert_eq!(heap.len(), cal.len(), "seed {seed} step {step}");
                let Some((now, _)) = h else { break };
                let successors = rng.next_below(3);
                for _ in 0..successors {
                    let delay = match rng.next_below(8) {
                        0..=5 => 1 + rng.next_below(8),   // hop-like
                        6 => 1 + rng.next_below(512),     // spin-like
                        _ => 1 + rng.next_below(1 << 20), // daemon-like
                    };
                    heap.schedule(now + Cycles(delay), payload);
                    cal.schedule(now + Cycles(delay), payload);
                    payload += 1;
                }
                assert_eq!(heap.len(), cal.len(), "seed {seed} step {step}");
            }
            assert_same_counters(&heap, &cal, &format!("seed {seed}"));
        }
    }

    #[test]
    fn property_len_agrees_with_heap() {
        let mut rng = SplitMix64::new(0x1DE5);
        let mut heap = HeapSchedule::new();
        let mut cal = CalendarSchedule::with_geometry(8, 32);
        for i in 0..500u64 {
            let t = rng.next_below(1 << 16);
            heap.schedule(Cycles(t), i);
            cal.schedule(Cycles(t), i);
            assert_eq!(heap.len(), cal.len());
            if rng.next_below(3) == 0 {
                assert_eq!(heap.pop(), cal.pop());
            }
        }
        assert_equivalent_drain(&mut heap, &mut cal, "len property");
    }

    #[test]
    fn stats_count_spills_and_wheel_peak() {
        let mut q: CalendarSchedule<u32> = CalendarSchedule::with_geometry(4, 4);
        q.schedule(Cycles(1), 0); // wheel
        q.schedule(Cycles(2), 1); // wheel
        q.schedule(Cycles(10_000), 2); // beyond the 16-cycle horizon
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.overflow_spills, 1);
        assert_eq!(s.wheel_peak, 2);
        assert_eq!(s.pending_peak, 3);
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.popped, 3);
        assert_eq!(
            s.wheel_peak, 2,
            "refill of a lone event does not raise the peak"
        );
    }

    #[test]
    fn buckets_recycle_without_allocation_growth() {
        // Steady-state hold pattern: capacity stabilizes, lengths return
        // to zero, and the scheduled count keeps counting.
        let mut q: CalendarSchedule<u64> = CalendarSchedule::with_geometry(4, 16);
        let mut now = Cycles::ZERO;
        for i in 0..10_000u64 {
            q.schedule(now + Cycles(1 + i % 60), i);
            let (t, _) = q.pop().expect("held one event");
            now = t;
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.stats().scheduled, 10_000);
    }
}
