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
//! entries pop in ascending rank.
//!
//! Under FIFO a bucket is always in rank order, so a push is a bare
//! append. An overflow event migrates into day *d*'s bucket in the one
//! cursor advance that first brings *d* inside the horizon, and no
//! direct push into *d* can come earlier, because *d* was beyond the
//! horizon until then. Migrations arrive in rank order, and a FIFO rank
//! is the scheduling sequence, so every direct push outranks every
//! migrated entry and every earlier direct push. Under LIFO and shuffle
//! ranks are not monotone: a push behind an unread entry marks the
//! bucket unsorted, and its unread entries, the tie cohort, are put in
//! rank order once on the next pop.
//!
//! A cohort of 2–8 entries, 98% of them under shuffle in ADM, MDG and
//! OCEAN, is ordered by one `u64` key per entry rather than by moving
//! whole entries through a comparison sort. The key is the entry's rank
//! shifted left past the high bits every rank in the cohort shares
//! (which keeps the ranks' order), with its low three bits replaced by
//! the entry's index in the cohort. The shift matters under LIFO, whose
//! ranks (`!seq`) in one cohort differ mostly in their low bits; under
//! shuffle the ranks are uniform and the shift is almost always zero.
//! The keys go through the optimal-size sorting network for the
//! cohort's size, and each entry then moves once, to the position its
//! key sorted to. Each size has its own copy of the code, so building
//! the keys, the compare-exchanges and the placement are straight-line
//! code with no branch on the ranks. If two keys tie on their rank bits
//! the cohort is sorted by full rank instead, as is every larger
//! cohort, so pops stay exactly in `(time, rank)` order.
//!
//! With the cohort sizes of ADM, MDG and OCEAN under shuffle (65% hold
//! 2–3 entries), ordering a cohort takes about 11 ns against 25 ns for
//! a standard sort of its entries, on a 2-vCPU Xeon with the entries in
//! cache. Sorting the keys with the standard sort in place of a network
//! read 8% slower end to end than sorting the entries. Under LIFO, whose
//! cohorts mostly arrive in descending order, the network and the
//! standard sort cost the same, about 10 ns.
//!
//! [`reschedule`](EventQueue::reschedule) is `schedule` for the
//! successor of the event just popped, the shape of every packet hop.
//! Pop-then-reschedule returns the pending and wheel populations to
//! values already recorded, so it skips the two peak updates. The
//! `scheduled` and `popped` counts are never tallied per event:
//! [`stats`](EventQueue::stats) derives them from the sequence counter
//! and the pending population.
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

/// Low bits of a cohort key that hold the entry's index in its cohort.
const INDEX_BITS: u32 = 3;

/// A cohort key's index bits.
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// The largest cohort the keys can index, and so the largest a sorting
/// network orders; a larger one is sorted by full rank.
const MAX_NETWORK: usize = 1 << INDEX_BITS;

/// One cycle's pending events as `(tie rank, payload)` entries, read
/// from `head` on.
struct Bucket<E> {
    items: Vec<(u64, E)>,
    /// Index of the next entry to pop; the entries before it are spent.
    head: usize,
    /// `items[head..]` is in ascending rank order.
    sorted: bool,
    /// Sorts run by [`pop`](Self::pop), for the FIFO tests.
    #[cfg(test)]
    sorts: u64,
}

impl<E: Copy> Bucket<E> {
    fn new() -> Self {
        Bucket {
            items: Vec::new(),
            head: 0,
            sorted: true,
            #[cfg(test)]
            sorts: 0,
        }
    }

    /// Removes the lowest-ranked unread entry, first restoring ascending
    /// order if a push broke it.
    fn pop(&mut self) -> Option<E> {
        if self.head == self.items.len() {
            return None;
        }
        if !self.sorted {
            sort_cohort(&mut self.items[self.head..]);
            self.sorted = true;
            #[cfg(test)]
            {
                self.sorts += 1;
            }
        }
        let payload = self.items[self.head].1;
        self.head += 1;
        if self.head == self.items.len() {
            // Rewinds to the buffer's start, so the next rotation reuses
            // the same (cache-hot) slots.
            self.items.clear();
            self.head = 0;
        }
        Some(payload)
    }
}

/// Puts a tie cohort's entries in ascending rank order (see the module
/// doc). Kept out of line: a FIFO queue never calls it.
#[inline(never)]
fn sort_cohort<E: Copy>(cohort: &mut [(u64, E)]) {
    let keyed = match cohort.len() {
        0 | 1 => true,
        2..=MAX_NETWORK => sort_small(cohort),
        _ => false,
    };
    if !keyed {
        cohort.sort_unstable_by_key(|&(rank, _)| rank);
    }
}

/// How far the cohort's ranks can be shifted left, dropping only high
/// bits they all share, so shifting keeps their order. `cohort` is not
/// empty.
fn shared_bits<E: Copy>(cohort: &[(u64, E)]) -> u32 {
    let first = cohort[0].0;
    let spread = cohort
        .iter()
        .fold(0, |bits, &(rank, _)| bits | (rank ^ first));
    (spread | 1).leading_zeros()
}

/// The key of the entry with rank `rank` at `index` in its cohort.
#[inline(always)]
fn cohort_key(rank: u64, shift: u32, index: usize) -> u64 {
    (rank << shift) & !INDEX_MASK | index as u64
}

/// True when no two of the ascending `keys` share their rank bits, so
/// their order is the ranks' order.
fn rank_bits_distinct(keys: &[u64]) -> bool {
    keys.windows(2).fold(true, |distinct, pair| {
        distinct & (pair[0] ^ pair[1] > INDEX_MASK)
    })
}

/// Orders a cohort of 2–8 entries through the optimal-size sorting
/// network for its size (Knuth, TAOCP vol. 3, §5.3.4); false, with the
/// cohort untouched, if two keys tie.
#[rustfmt::skip]
fn sort_small<E: Copy>(cohort: &mut [(u64, E)]) -> bool {
    match cohort.len() {
        2 => sort_by_network::<E, 2, 1>(cohort, &[(0, 1)]),
        3 => sort_by_network::<E, 3, 3>(cohort, &[(0, 2), (0, 1), (1, 2)]),
        4 => sort_by_network::<E, 4, 5>(cohort, &[(0, 2), (1, 3), (0, 1), (2, 3), (1, 2)]),
        5 => sort_by_network::<E, 5, 9>(cohort, &[
            (0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3),
        ]),
        6 => sort_by_network::<E, 6, 12>(cohort, &[
            (0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
            (1, 2), (3, 4),
        ]),
        7 => sort_by_network::<E, 7, 16>(cohort, &[
            (0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5), (3, 4), (1, 2),
            (4, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6),
        ]),
        8 => sort_by_network::<E, 8, 19>(cohort, &[
            (0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 1), (2, 3),
            (4, 5), (6, 7), (2, 4), (3, 5), (1, 4), (3, 6), (1, 2), (3, 4), (5, 6),
        ]),
        n => unreachable!("a sorting network orders 2 to {MAX_NETWORK} entries, not {n}"),
    }
}

/// Orders an `N`-entry cohort: builds its keys, sorts them with the
/// network's compare-exchanges, each a branch-free min and max, and
/// moves each entry to its key's position. Always inlined into its
/// size's arm, so every loop unrolls and the whole ordering is
/// straight-line code with no branch that depends on the ranks.
#[inline(always)]
fn sort_by_network<E: Copy, const N: usize, const C: usize>(
    cohort: &mut [(u64, E)],
    comparators: &[(usize, usize); C],
) -> bool {
    let cohort: &mut [(u64, E); N] = cohort.try_into().expect("a cohort of the network's size");
    let shift = shared_bits(cohort);
    let mut keys: [u64; N] = std::array::from_fn(|i| cohort_key(cohort[i].0, shift, i));
    for &(a, b) in comparators {
        let (lo, hi) = (keys[a].min(keys[b]), keys[a].max(keys[b]));
        keys[a] = lo;
        keys[b] = hi;
    }
    if !rank_bits_distinct(&keys) {
        return false;
    }
    let held = *cohort;
    for (slot, key) in cohort.iter_mut().zip(keys) {
        *slot = held[(key & INDEX_MASK) as usize];
    }
    true
}

/// A deterministic future-event set keyed by simulated time: a calendar
/// queue with O(1) amortized schedule and pop on the near-future event
/// traffic that dominates discrete-event simulation.
///
/// [`pop`](Self::pop) returns events in ascending `(fire time, tie
/// rank)` order, where the rank is the [`TieBreak`] transform of the
/// number of `schedule` and `reschedule` calls made before the event's
/// own (the sequence itself under the default FIFO policy). Simulation
/// determinism rests on this ordering, so it is exact — not "time order
/// with arbitrary tie-breaks": replaying the same schedule yields the
/// same pop order, bit for bit.
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
    /// Events ever scheduled; the next event's sequence number.
    next_seq: u64,
    tiebreak: TieBreak,
    /// The peaks, spill count and hold histogram; `scheduled` and
    /// `popped` stay 0 here and are derived by [`stats`](Self::stats).
    stats: QueueStats,
    /// A pop has returned an event and nothing was scheduled since, so
    /// a [`reschedule`](Self::reschedule) is legal.
    #[cfg(debug_assertions)]
    popped_last: bool,
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
            #[cfg(debug_assertions)]
            popped_last: false,
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

    /// Appends an event to its day's bucket. A FIFO bucket stays in rank
    /// order (see the module doc); under LIFO and shuffle a push behind
    /// an unread entry marks the bucket unsorted.
    #[inline(always)]
    fn push_wheel(&mut self, day: u64, rank: u64, payload: E) {
        let bucket = &mut self.buckets[(day & self.day_mask) as usize];
        if !matches!(self.tiebreak, TieBreak::Fifo) {
            bucket.sorted &= bucket.head == bucket.items.len();
        }
        bucket.items.push((rank, payload));
        self.wheel_len += 1;
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
            self.stats.wheel_peak = self.stats.wheel_peak.max(self.wheel_len as u64);
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
        self.insert(at, payload);
        self.stats.pending_peak = self.stats.pending_peak.max(self.len() as u64);
        self.stats.wheel_peak = self.stats.wheel_peak.max(self.wheel_len as u64);
    }

    /// [`schedule`](Self::schedule) for the successor of the event just
    /// popped: the first scheduling since a pop that returned an event.
    /// The pop took one event out, so putting one back cannot raise the
    /// pending or wheel population above a value already recorded, and
    /// the peak updates are skipped. Pop order and every counter are
    /// exactly what `schedule` would give.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the last pop and, in a debug build, if
    /// this is not the first scheduling since a pop that returned an
    /// event.
    #[inline(always)]
    pub fn reschedule(&mut self, at: SimTime, payload: E) {
        #[cfg(debug_assertions)]
        assert!(
            self.popped_last,
            "reschedule is only legal as the first scheduling since a pop"
        );
        self.insert(at, payload);
    }

    /// Ranks `payload` and files it on the wheel or in the overflow tier.
    #[inline(always)]
    fn insert(&mut self, at: SimTime, payload: E) {
        #[cfg(debug_assertions)]
        {
            self.popped_last = false;
        }
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
        self.stats.record_hold(at.0 - self.cur_day);
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
                #[cfg(debug_assertions)]
                {
                    self.popped_last = true;
                }
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

    /// Snapshot of the self-telemetry counters. Every scheduled event
    /// took one sequence number and every popped one left the pending
    /// set, so `scheduled` and `popped` are exact without a per-event
    /// tally.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.next_seq,
            popped: self.next_seq - self.len() as u64,
            ..self.stats
        }
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
            .field("scheduled", &self.next_seq)
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

    /// The tie-break policies the queue-contract tests run under.
    const POLICIES: [TieBreak; 3] = [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Shuffle(0x5A17)];

    /// The hold model driven through `reschedule` pops what the heap
    /// reference pops and reads every [`QueueStats`] field a
    /// `schedule`-driven calendar reads: the skipped peak updates never
    /// lose a peak, and the derived `scheduled`/`popped` equal the
    /// reference's tallies. A 16-day wheel makes events spill and
    /// migrate; a few extra successors and skipped reschedules move the
    /// population, so the peaks are reached more than once.
    #[test]
    fn reschedule_hold_model_matches_schedule_and_the_heap() {
        for tiebreak in POLICIES {
            let mut rng = SplitMix64::new(0x4E5C_0000);
            let mut heap = HeapSchedule::new().with_tiebreak(tiebreak);
            let mut fast = EventQueue::with_days(16).with_tiebreak(tiebreak);
            let mut plain = EventQueue::with_days(16).with_tiebreak(tiebreak);
            let mut payload = 0u64;
            for _ in 0..40 {
                let t = rng.next_below(64);
                schedule_both(&mut heap, &mut fast, t, payload);
                plain.schedule(Cycles(t), payload);
                payload += 1;
            }
            for step in 0..5_000u64 {
                let popped = heap.pop();
                assert_eq!(popped, fast.pop(), "{tiebreak} step {step}");
                assert_eq!(popped, plain.pop(), "{tiebreak} step {step}");
                let Some((now, _)) = popped else { break };
                let successors = match rng.next_below(8) {
                    0 => 0,
                    1 => 2,
                    _ => 1,
                };
                for k in 0..successors {
                    let delay = match rng.next_below(6) {
                        0 => 0,
                        1..=3 => 1 + rng.next_below(8),
                        _ => 1 + rng.next_below(100),
                    };
                    let at = now + Cycles(delay);
                    heap.schedule(at, payload);
                    plain.schedule(at, payload);
                    if k == 0 {
                        fast.reschedule(at, payload);
                    } else {
                        fast.schedule(at, payload);
                    }
                    payload += 1;
                }
            }
            let context = format!("{tiebreak} hold model");
            assert_equivalent_drain(&mut heap, &mut fast, &context);
            while plain.pop().is_some() {}
            assert_eq!(fast.stats(), plain.stats(), "{context}");
            assert!(fast.stats().overflow_spills > 0, "{context}: spills");
        }
    }

    /// A FIFO bucket never needs a sort, whether it fills by migration
    /// from the overflow tier, by direct pushes or by zero-delay pushes
    /// into the bucket being drained. LIFO and shuffle buckets do, and
    /// every policy pops what the heap reference pops.
    #[test]
    fn fifo_buckets_are_never_sorted() {
        for tiebreak in POLICIES {
            let mut rng = SplitMix64::new(0xF1F0);
            let mut heap = HeapSchedule::new().with_tiebreak(tiebreak);
            let mut cal = EventQueue::with_days(16).with_tiebreak(tiebreak);
            let mut payload = 0u64;
            for _ in 0..200 {
                schedule_both(&mut heap, &mut cal, rng.next_below(200), payload);
                payload += 1;
            }
            while let Some((now, _)) = heap.pop() {
                assert_eq!(cal.pop().map(|(t, _)| t), Some(now), "{tiebreak}");
                if payload < 2_000 {
                    for _ in 0..rng.next_below(3) {
                        let delay = match rng.next_below(4) {
                            0 => 0,
                            1 | 2 => rng.next_below(16),
                            _ => 16 + rng.next_below(64),
                        };
                        schedule_both(&mut heap, &mut cal, now.0 + delay, payload);
                        payload += 1;
                    }
                }
            }
            assert_eq!(cal.pop(), None, "{tiebreak}");
            let sorts: u64 = cal.buckets.iter().map(|b| b.sorts).sum();
            assert!(cal.stats().overflow_spills > 0, "{tiebreak}: spills");
            if tiebreak == TieBreak::Fifo {
                assert_eq!(sorts, 0, "a FIFO bucket was sorted");
            } else {
                assert!(sorts > 0, "{tiebreak}: ranks out of order need sorts");
            }
        }
    }

    /// In a debug build `reschedule` is legal only as the first
    /// scheduling since a pop that returned an event.
    #[cfg(debug_assertions)]
    #[test]
    fn reschedule_without_a_pop_panics() {
        type Misuse = fn(&mut EventQueue<u32>);
        let misuses: [(&str, Misuse); 4] = [
            ("fresh queue", |q| q.reschedule(Cycles(1), 0)),
            ("pop of an empty queue", |q| {
                assert_eq!(q.pop(), None);
                q.reschedule(Cycles(1), 0);
            }),
            ("second successor", |q| {
                q.schedule(Cycles(3), 0);
                assert!(q.pop().is_some());
                q.reschedule(Cycles(4), 1);
                q.reschedule(Cycles(5), 2);
            }),
            ("after a schedule", |q| {
                q.schedule(Cycles(3), 0);
                assert!(q.pop().is_some());
                q.schedule(Cycles(4), 1);
                q.reschedule(Cycles(5), 2);
            }),
        ];
        for tiebreak in POLICIES {
            for (name, misuse) in misuses {
                let mut q = EventQueue::with_days(16).with_tiebreak(tiebreak);
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| misuse(&mut q)));
                let message = outcome.expect_err(name);
                let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
                assert!(
                    message.contains("first scheduling since a pop"),
                    "{tiebreak} {name}: {message}"
                );
            }
        }
    }

    /// Pops every entry of a bucket filled with `ranks` in that order,
    /// each entry's payload its rank, so the result is the pop order.
    fn drain_bucket(ranks: &[u64]) -> Vec<u64> {
        let mut bucket = Bucket::new();
        bucket.items.extend(ranks.iter().map(|&rank| (rank, rank)));
        bucket.sorted = false;
        std::iter::from_fn(|| bucket.pop()).collect()
    }

    /// `ranks` in ascending order, the full-rank sort a cohort must
    /// match.
    fn rank_sorted(ranks: &[u64]) -> Vec<u64> {
        let mut sorted = ranks.to_vec();
        sorted.sort_unstable();
        sorted
    }

    /// A cohort whose entries carry their ranks as payloads.
    fn cohort_of(ranks: &[u64]) -> Vec<(u64, u64)> {
        ranks.iter().map(|&rank| (rank, rank)).collect()
    }

    /// Calls `visit` with every permutation of `items` (Heap's
    /// algorithm) and returns how many it visited.
    fn for_each_permutation(items: &mut [u64], mut visit: impl FnMut(&[u64])) -> usize {
        let mut counters = vec![0; items.len()];
        visit(items);
        let (mut visited, mut i) = (1, 1);
        while i < items.len() {
            if counters[i] < i {
                items.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
                visit(items);
                visited += 1;
                counters[i] += 1;
                i = 1;
            } else {
                counters[i] = 0;
                i += 1;
            }
        }
        visited
    }

    /// Distinct ranks of `n` entries shaped like each policy's: uniform
    /// shuffle ranks, LIFO ranks of consecutive sequence numbers (which
    /// differ only in their low bits), and ranks that differ only above
    /// the index bits.
    fn rank_families(n: usize) -> [Vec<u64>; 3] {
        let shuffle = TieBreak::Shuffle(0x5EED);
        [
            (0..n as u64).map(|seq| shuffle.rank(1_000 + seq)).collect(),
            (0..n as u64)
                .map(|seq| TieBreak::Lifo.rank(40 + seq))
                .collect(),
            (0..n as u64).map(|k| (k << 20) | 0x7F).collect(),
        ]
    }

    /// Every permutation of distinct ranks in a cohort of 2–8 entries
    /// goes through its sorting network, never the fallback, and pops in
    /// the order of a full-rank sort.
    #[test]
    fn small_cohorts_pop_in_rank_order_in_every_permutation() {
        let factorial = |n: usize| (1..=n).product::<usize>();
        for n in 2..=MAX_NETWORK {
            for mut ranks in rank_families(n) {
                let want = rank_sorted(&ranks);
                assert_eq!(drain_bucket(&ranks), want, "{n} entries");
                let visited = for_each_permutation(&mut ranks, |order| {
                    let mut cohort = cohort_of(order);
                    assert!(sort_small(&mut cohort), "{order:x?}: keys tied");
                    let popped: Vec<u64> = cohort.iter().map(|&(_, payload)| payload).collect();
                    assert_eq!(popped, want, "{order:x?}");
                });
                assert_eq!(visited, factorial(n), "{n} entries");
            }
        }
    }

    /// Two ranks that agree on every bit the keys keep tie on their
    /// keys: the cohort is left as it was and sorted by full rank, and
    /// still pops in rank order.
    #[test]
    fn equal_truncated_keys_fall_back_to_a_full_rank_sort() {
        // The top bit differs, so no bit is shifted out, and 0x105 and
        // 0x102 differ only in the index bits.
        let ranks = [0x105, 1 << 63, 0x102, 0x2000];
        let mut cohort = cohort_of(&ranks);
        assert!(!sort_small(&mut cohort), "the keys of 0x105 and 0x102 tie");
        assert_eq!(cohort, cohort_of(&ranks), "a tied cohort is left as it was");
        assert_eq!(drain_bucket(&ranks), rank_sorted(&ranks));
    }

    /// A cohort too large for a sorting network, 9–256 entries or 1,000,
    /// is sorted by full rank and pops in rank order, whatever order its
    /// entries were pushed in.
    #[test]
    fn cohorts_larger_than_a_network_pop_in_rank_order() {
        let mut rng = SplitMix64::new(0xC0_4027);
        for n in (MAX_NETWORK + 1..=256).chain([1_000]) {
            for mut ranks in rank_families(n) {
                for _ in 0..2 {
                    assert_eq!(drain_bucket(&ranks), rank_sorted(&ranks), "{n} entries");
                    for i in (1..n).rev() {
                        ranks.swap(i, rng.next_below(i as u64 + 1) as usize);
                    }
                }
            }
        }
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
