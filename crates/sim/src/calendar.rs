//! The pending-event set: a calendar queue, a wheel of one-cycle days
//! over [`SimTime`] with an overflow tier.
//!
//! The wheel keeps one bucket per cycle for the next `days` cycles.
//! Scheduling an event within that horizon is an append to its cycle's
//! bucket; scheduling beyond it pushes into an overflow min-heap that is
//! drained into the wheel as the cursor advances. Popping takes the next
//! entry of the cursor's bucket. Because the Cedar machine schedules
//! almost every event a handful of cycles ahead (switch hops, module
//! service, spin periods are all 1–8 cycles), nearly all traffic stays
//! on the O(1) wheel path and a heap's O(log n) per-event cost — with
//! n in the tens of thousands during a 32-processor campaign — stays
//! out of the simulator's hot loop.
//!
//! Events pop in ascending fire time, ties broken by the [`TieBreak`]
//! rank of the scheduling sequence (the sequence itself under the
//! default FIFO policy). A bucket holds one cycle's events, so its fire
//! time is the bucket's day and an entry is just `(rank, payload)`;
//! entries pop in ascending rank. Under FIFO the appends arrive in
//! ascending rank already, so the common case is a plain push with no
//! sorting at all. The bucket header keeps the rank of the last push,
//! so that order check never reads the entry array. An order-breaking
//! append (an overflow migration landing behind a direct insert, or a
//! non-monotone LIFO/shuffle rank) flips a dirty bit, and the bucket's
//! unread entries are re-sorted once on the next pop.
//!
//! The queue is causal: an event may be scheduled at the time of the
//! last pop or later, never before it, which is how a simulation only
//! ever schedules. The cursor's day is the time of the last pop, so
//! the bound check that picks the wheel or the overflow tier also
//! catches a breach, and [`schedule`](EventQueue::schedule) panics
//! naming both times.
//!
//! A bucket is a vector with a read index. It rewinds when its last
//! entry is read and keeps its capacity, so steady-state operation
//! performs no allocation at all.

use crate::queue::{key_time, order_key, MinHeap, QueueStats, TieBreak};
use crate::time::{Cycles, SimTime};

/// Default number of one-cycle days on the wheel (must be a power of
/// two). 256 days keep the whole bucket array within ~12 KiB, so the
/// cursor scan stays in L1 — measurements show the wheel's cache
/// footprint, not the bucket maintenance, dominates throughput (256
/// days run ~2.5× faster than 4096 on the packet-dense network
/// workload). The 256-cycle horizon still covers every hop, service and
/// occupancy constant in the machine model; longer rebookings (spin
/// periods, daemon wakeups, serial sections) take the overflow tier,
/// which the wheel drains as the cursor advances.
const DEFAULT_DAYS: u64 = 256;

/// One cycle's pending events as `(tie rank, payload)` entries, read
/// from `head` on.
struct Bucket<E> {
    items: Vec<(u64, E)>,
    /// Index of the next entry to pop; the entries before it are spent.
    head: usize,
    /// Rank of the back entry (0 when empty), so a push checks order
    /// without reading `items`.
    last_rank: u64,
    /// `items[head..]` is in ascending rank order.
    sorted: bool,
}

impl<E: Copy> Bucket<E> {
    fn new() -> Self {
        Bucket {
            items: Vec::new(),
            head: 0,
            last_rank: 0,
            sorted: true,
        }
    }

    /// Appends an entry, flagging the bucket dirty if it breaks
    /// ascending rank order (overflow migrations and non-FIFO ranks).
    #[inline(always)]
    fn push(&mut self, rank: u64, payload: E) {
        self.sorted &= rank >= self.last_rank;
        self.last_rank = rank;
        self.items.push((rank, payload));
    }

    /// Removes the lowest-ranked unread entry, first restoring ascending
    /// order if an append broke it.
    fn pop(&mut self) -> Option<E> {
        if self.head == self.items.len() {
            return None;
        }
        if !self.sorted {
            self.items[self.head..].sort_unstable_by_key(|&(rank, _)| rank);
            self.sorted = true;
            self.last_rank = self.items[self.items.len() - 1].0;
        }
        let payload = self.items[self.head].1;
        self.head += 1;
        if self.head == self.items.len() {
            // Rewinds to the buffer's start, so the next rotation reuses
            // the same (cache-hot) slots.
            self.items.clear();
            self.head = 0;
            self.last_rank = 0;
        }
        Some(payload)
    }
}

/// A deterministic future-event set keyed by simulated time: a calendar
/// queue with O(1) amortized schedule and pop on the near-future event
/// traffic that dominates discrete-event simulation.
///
/// [`pop`](Self::pop) returns events in ascending `(fire time, tie
/// rank)` order, where the rank is the [`TieBreak`] transform of the
/// number of `schedule` calls made before the event's own (the sequence
/// itself under the default FIFO policy). Simulation determinism rests
/// on this ordering, so it is exact — not "time order with arbitrary
/// tie-breaks": replaying the same schedule yields the same pop order,
/// bit for bit.
///
/// # Example
///
/// ```
/// use cedar_sim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(10), 'b');
/// q.schedule(Cycles(2), 'a');
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((Cycles(2), 'a')));
/// assert_eq!(q.pop(), Some((Cycles(10), 'b')));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    buckets: Vec<Bucket<E>>,
    /// `buckets.len() - 1`; the bucket count is a power of two, so the
    /// day → bucket map is a mask, not a modulo.
    day_mask: u64,
    /// The day the pop cursor is on: the time of the last pop (0 before
    /// the first). Every wheel event's day is in `[cur_day, last_day]`.
    cur_day: u64,
    /// The wheel's last day, `cur_day + days - 1`. It saturates at
    /// `u64::MAX`, where the window to the end of time is no larger than
    /// the wheel, so every remaining day fits.
    last_day: u64,
    /// Events currently on the wheel (the overflow tier excluded).
    wheel_len: usize,
    /// Events beyond the wheel horizon, drained in as the cursor
    /// advances.
    overflow: MinHeap<E>,
    next_seq: u64,
    tiebreak: TieBreak,
    stats: QueueStats,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with the default 256-day wheel.
    pub fn new() -> Self {
        Self::with_days(DEFAULT_DAYS)
    }

    /// Creates an empty queue with a `days`-bucket wheel of one-cycle
    /// days.
    ///
    /// # Panics
    ///
    /// Panics if `days` is zero or not a power of two.
    fn with_days(days: u64) -> Self {
        assert!(
            days.is_power_of_two(),
            "day count must be a power of two, got {days}"
        );
        EventQueue {
            buckets: (0..days).map(|_| Bucket::new()).collect(),
            day_mask: days - 1,
            cur_day: 0,
            last_day: days - 1,
            wheel_len: 0,
            overflow: MinHeap::new(),
            next_seq: 0,
            tiebreak: TieBreak::default(),
            stats: QueueStats::new(),
        }
    }

    /// Selects the simultaneous-event ordering policy (see
    /// [`TieBreak`]). Ranks are assigned at schedule time, so this must
    /// be called before any event is scheduled.
    pub fn with_tiebreak(mut self, tiebreak: TieBreak) -> Self {
        debug_assert_eq!(self.next_seq, 0, "tie-break set after scheduling");
        self.tiebreak = tiebreak;
        self
    }

    /// Appends an event to its day's bucket.
    #[inline(always)]
    fn push_wheel(&mut self, day: u64, rank: u64, payload: E) {
        self.buckets[(day & self.day_mask) as usize].push(rank, payload);
        self.wheel_len += 1;
        self.stats.wheel_peak = self.stats.wheel_peak.max(self.wheel_len as u64);
    }

    /// Moves the cursor to `day` and pulls every overflow event that now
    /// falls inside the horizon onto the wheel, preserving the invariant
    /// that overflow events are strictly beyond it.
    fn advance_to(&mut self, day: u64) {
        self.cur_day = day;
        self.last_day = day.saturating_add(self.day_mask);
        while let Some(key) = self.overflow.peek_key() {
            let day = key_time(key).0;
            if day > self.last_day {
                break;
            }
            let (_, payload) = self.overflow.pop().expect("peeked root exists");
            self.push_wheel(day, key as u64, payload);
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Always inlined, with the bucket push, so a payload built in
    /// registers is stored straight into its bucket instead of being
    /// spilled to the stack and read back.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last pop.
    #[inline(always)]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let rank = self.tiebreak.rank(self.next_seq);
        self.next_seq += 1;
        if at.0 < self.cur_day {
            before_the_last_pop(at, self.cur_day);
        } else if at.0 <= self.last_day {
            self.push_wheel(at.0, rank, payload);
        } else {
            self.overflow.push(order_key(at, rank), payload);
            self.stats.overflow_spills += 1;
        }
        self.stats.on_schedule(at.0 - self.cur_day, self.len());
    }

    /// Removes and returns the earliest pending event, or `None` if
    /// empty. Moves the cursor over empty days, or jumps it to the
    /// overflow head when the wheel is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if self.wheel_len == 0 {
                let key = self.overflow.peek_key()?;
                self.advance_to(key_time(key).0);
                continue;
            }
            let idx = (self.cur_day & self.day_mask) as usize;
            if let Some(payload) = self.buckets[idx].pop() {
                self.wheel_len -= 1;
                self.stats.popped += 1;
                return Some((Cycles(self.cur_day), payload));
            }
            self.advance_to(self.cur_day + 1);
        }
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the self-telemetry counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// The causal contract's breach, kept out of line so the inlined
/// [`EventQueue::schedule`] stays small.
#[cold]
#[inline(never)]
fn before_the_last_pop(at: SimTime, last_pop: u64) -> ! {
    panic!(
        "event scheduled at cycle {} before the last pop at cycle {last_pop}",
        at.0
    )
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E: Copy> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled", &self.stats.scheduled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::HeapSchedule;
    use crate::rng::SplitMix64;
    use crate::time::Cycles;

    /// Pops everything from the heap reference and the queue, asserting
    /// identical streams and pending populations, then identical
    /// counters. Returns the stream.
    fn assert_equivalent_drain(
        heap: &mut HeapSchedule<u64>,
        cal: &mut EventQueue<u64>,
        context: &str,
    ) -> Vec<(SimTime, u64)> {
        let mut stream = Vec::new();
        loop {
            assert_eq!(heap.len(), cal.len(), "len diverged ({context})");
            let h = heap.pop();
            let c = cal.pop();
            assert_eq!(h, c, "pop streams diverged ({context})");
            match h {
                Some(popped) => stream.push(popped),
                None => break,
            }
        }
        assert_same_counters(heap, cal, context);
        stream
    }

    /// Schedules payload `p` at time `t` on the heap reference and the
    /// queue.
    fn schedule_both(heap: &mut HeapSchedule<u64>, cal: &mut EventQueue<u64>, t: u64, p: u64) {
        heap.schedule(Cycles(t), p);
        cal.schedule(Cycles(t), p);
    }

    /// Asserts that the [`QueueStats`] fields both keep agree.
    fn assert_same_counters(heap: &HeapSchedule<u64>, cal: &EventQueue<u64>, context: &str) {
        let (h, c) = (heap.stats(), cal.stats());
        assert_eq!(h.scheduled, c.scheduled, "scheduled ({context})");
        assert_eq!(h.popped, c.popped, "popped ({context})");
        assert_eq!(h.pending_peak, c.pending_peak, "pending_peak ({context})");
        assert_eq!(h.hold_hist, c.hold_hist, "hold_hist ({context})");
    }

    #[test]
    fn overflow_events_pop_in_order() {
        // A tiny wheel (16 one-cycle days) forces heavy overflow use.
        let mut q: EventQueue<u32> = EventQueue::with_days(16);
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
        let mut q: EventQueue<u32> = EventQueue::with_days(16);
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

    /// The queue is causal: scheduling at the time of the last pop is
    /// legal, scheduling before it panics and names both times.
    #[test]
    #[should_panic(expected = "event scheduled at cycle 499 before the last pop at cycle 500")]
    fn scheduling_before_the_last_pop_panics() {
        let mut q = EventQueue::with_days(16);
        q.schedule(Cycles(500), 0u32);
        assert_eq!(q.pop(), Some((Cycles(500), 0)));
        q.schedule(Cycles(500), 1);
        q.schedule(Cycles(499), 2);
    }

    /// Zero-delay events appended to the bucket the cursor is draining
    /// pop in the heap reference's order under every tie-break policy: the read
    /// index moves on, and a re-sort covers only the unread entries.
    #[test]
    fn a_bucket_refilled_while_draining_keeps_its_order() {
        for tiebreak in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Shuffle(0x9A57)] {
            let mut heap = HeapSchedule::new().with_tiebreak(tiebreak);
            let mut cal = EventQueue::new().with_tiebreak(tiebreak);
            for p in 0..8 {
                schedule_both(&mut heap, &mut cal, 5, p);
            }
            schedule_both(&mut heap, &mut cal, 6, 8);
            for round in 0..6u64 {
                for _ in 0..2 {
                    assert_eq!(heap.pop(), cal.pop(), "{tiebreak} round {round}");
                }
                assert!(cal.buckets[5].head > 0, "{tiebreak}: bucket mid-drain");
                for k in 0..3 {
                    schedule_both(&mut heap, &mut cal, 5, 9 + 3 * round + k);
                }
            }
            let context = format!("{tiebreak} refill");
            let stream = assert_equivalent_drain(&mut heap, &mut cal, &context);
            let times: Vec<u64> = stream.iter().map(|(t, _)| t.0).collect();
            assert_eq!(times, [[5; 14].as_slice(), &[6]].concat(), "{tiebreak}");
        }
    }

    #[test]
    fn simtime_extremes() {
        let mut q: EventQueue<u32> = EventQueue::new();
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
    /// every tie-break policy, as the heap reference pops them. The
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
            // Tiny wheel: 16 one-cycle days = 16-cycle horizon.
            let mut cal = EventQueue::with_days(16).with_tiebreak(tiebreak);
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
    /// order, as the heap reference pops them, under every policy.
    #[test]
    fn tie_cohorts_at_simtime_max_pop_identically() {
        for tiebreak in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::Shuffle(1),
            TieBreak::Shuffle(u64::MAX),
        ] {
            let mut heap = HeapSchedule::new().with_tiebreak(tiebreak);
            let mut cal = EventQueue::new().with_tiebreak(tiebreak);
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
                let mut cal = EventQueue::with_days(64).with_tiebreak(tiebreak);
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
            let mut cal = EventQueue::new();
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
            let mut cal = EventQueue::with_days(256);
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
        let mut cal = EventQueue::with_days(256);
        let mut now = 0;
        for i in 0..500u64 {
            let t = now + rng.next_below(1 << 16);
            heap.schedule(Cycles(t), i);
            cal.schedule(Cycles(t), i);
            assert_eq!(heap.len(), cal.len());
            if rng.next_below(3) == 0 {
                let popped = heap.pop();
                assert_eq!(popped, cal.pop());
                now = popped.expect("one event is pending").0 .0;
            }
        }
        assert_equivalent_drain(&mut heap, &mut cal, "len property");
    }

    #[test]
    fn stats_count_spills_and_wheel_peak() {
        let mut q: EventQueue<u32> = EventQueue::with_days(16);
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
        let mut q: EventQueue<u64> = EventQueue::with_days(64);
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
