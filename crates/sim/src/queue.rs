//! Deterministic pending-event sets.
//!
//! Two schedulers sit behind [`EventQueue`], selected by an explicit
//! [`SchedKind`] (`calendar` is the default):
//!
//! * `HeapSchedule` — a binary min-heap future-event set, O(log n) per
//!   operation, kept as the reference the calendar is checked against;
//! * `CalendarSchedule` — a calendar queue (bucketed wheel over
//!   [`SimTime`] with an overflow tier), O(1) amortized per operation on
//!   the event-dense schedules the Cedar machine produces.
//!
//! Both pop events in exactly the same order — ascending fire time, ties
//! broken by the [`TieBreak`] rank of the scheduling sequence — so
//! whole-run results are bit-identical whichever is selected. Selection
//! by environment variable is the business of
//! `cedar_obs::RunOptions::from_env`, not this crate.
//!
//! Both store the payloads themselves in their ordering structures, so
//! once those have grown to the peak pending population, scheduling and
//! popping allocate nothing. Both keep cheap always-on self-telemetry
//! counters (events scheduled and popped, peak pending population, and a
//! power-of-two histogram of scheduling distances) surfaced through
//! [`QueueStats`] — the paper's measurement discipline applied to the
//! simulator's own hot loop.

use crate::calendar::CalendarSchedule;
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
/// collide on a rank). Both schedule backends order ties by the rank,
/// so heap and calendar agree on the pop order under every policy.
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
    /// Canonical text form (`fifo` / `lifo` / `shuffle:0x<seed>`), the
    /// inverse of the [`FromStr`](std::str::FromStr) parse.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TieBreak::Fifo => f.write_str("fifo"),
            TieBreak::Lifo => f.write_str("lifo"),
            TieBreak::Shuffle(seed) => write!(f, "shuffle:{seed:#x}"),
        }
    }
}

impl std::str::FromStr for TieBreak {
    type Err = String;

    /// Parses `"fifo"`, `"lifo"` or `"shuffle:<seed>"` (seed decimal or
    /// `0x`-hex; empty selects the default).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" | "" => Ok(TieBreak::Fifo),
            "lifo" => Ok(TieBreak::Lifo),
            other => {
                let seed = other
                    .strip_prefix("shuffle:")
                    .and_then(|raw| match raw.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16).ok(),
                        None => raw.parse().ok(),
                    })
                    .ok_or_else(|| {
                        format!(
                            "tie-break must be `fifo`, `lifo` or `shuffle:<seed>`, got `{other}`"
                        )
                    })?;
                Ok(TieBreak::Shuffle(seed))
            }
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
/// Shared by `HeapSchedule` and the calendar queue's overflow tier.
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

/// Self-telemetry counters every pending-event set maintains. All are
/// plain integer increments on the schedule/pop paths, cheap enough to
/// stay on unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events ever popped.
    pub popped: u64,
    /// Peak pending population.
    pub pending_peak: u64,
    /// Events that missed the calendar wheel's horizon and spilled to
    /// the overflow heap (always 0 for the heap scheduler).
    pub overflow_spills: u64,
    /// Peak population on the calendar wheel proper (always 0 for the
    /// heap scheduler).
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
    /// pop, with `pending` events now in the set.
    #[inline]
    pub(crate) fn on_schedule(&mut self, distance: u64, pending: usize) {
        let bucket = if distance == 0 {
            0
        } else {
            (HOLD_BUCKETS - 1).min(64 - distance.leading_zeros() as usize)
        };
        self.scheduled += 1;
        self.pending_peak = self.pending_peak.max(pending as u64);
        self.hold_hist[bucket] += 1;
    }
}

/// The binary-min-heap-backed future-event set: O(log n) schedule and
/// pop. Kept as the reference implementation for A/B verification of
/// the calendar queue (`CEDAR_SCHED=heap`).
pub(crate) struct HeapSchedule<E> {
    heap: MinHeap<E>,
    next_seq: u64,
    tiebreak: TieBreak,
    stats: QueueStats,
    last_popped: SimTime,
}

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
        self.stats
            .on_schedule(at.0.saturating_sub(self.last_popped.0), self.heap.len());
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

/// Which pending-event set implementation an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Binary min-heap future-event set, the reference implementation.
    Heap,
    /// Calendar queue: a bucketed wheel with an overflow heap.
    Calendar,
}

impl SchedKind {
    /// Canonical lower-case name (`"heap"` / `"calendar"`), the inverse
    /// of the [`FromStr`](std::str::FromStr) parse.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedKind::Heap => "heap",
            SchedKind::Calendar => "calendar",
        }
    }
}

impl Default for SchedKind {
    /// The calendar queue: O(1) amortized on the event-dense schedules
    /// the Cedar machine produces.
    fn default() -> Self {
        SchedKind::Calendar
    }
}

impl std::str::FromStr for SchedKind {
    type Err = String;

    /// Parses `"heap"` or `"calendar"` (empty selects the default).
    /// Used by `cedar_obs::RunOptions::from_env` for `CEDAR_SCHED`; this
    /// crate itself never consults the environment.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "calendar" | "" => Ok(SchedKind::Calendar),
            "heap" => Ok(SchedKind::Heap),
            other => Err(format!(
                "scheduler must be `heap` or `calendar`, got `{other}`"
            )),
        }
    }
}

/// A deterministic future-event set keyed by simulated time.
///
/// [`pop`](Self::pop) returns events in ascending `(fire time, tie
/// rank)` order, where the rank is the [`TieBreak`] transform of the
/// number of `schedule` calls made before the event's own (the sequence
/// itself under the default FIFO policy). Simulation determinism rests
/// on this ordering, so it is exact — not "time order with arbitrary
/// tie-breaks": replaying the same schedule yields the same pop order,
/// bit for bit.
///
/// The backing implementation is chosen at construction: [`new`](Self::new)
/// uses the default [`SchedKind`] (calendar) and
/// [`with_kind`](Self::with_kind) selects explicitly — callers that
/// honour a run configuration pass `RunOptions::scheduler` down here.
/// Every implementation pops in the same order, so the choice affects
/// wall-clock speed only.
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
pub struct EventQueue<E>(QueueImpl<E>);

enum QueueImpl<E> {
    Heap(HeapSchedule<E>),
    Calendar(CalendarSchedule<E>),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue of the default kind (calendar).
    pub fn new() -> Self {
        Self::with_kind(SchedKind::default())
    }

    /// Creates an empty queue of an explicit kind.
    pub fn with_kind(kind: SchedKind) -> Self {
        EventQueue(match kind {
            SchedKind::Heap => QueueImpl::Heap(HeapSchedule::new()),
            SchedKind::Calendar => QueueImpl::Calendar(CalendarSchedule::new()),
        })
    }

    /// The backing implementation in use.
    pub fn kind(&self) -> SchedKind {
        match self.0 {
            QueueImpl::Heap(_) => SchedKind::Heap,
            QueueImpl::Calendar(_) => SchedKind::Calendar,
        }
    }

    /// Selects the simultaneous-event ordering policy (see
    /// [`TieBreak`]). Must be called before any event is scheduled;
    /// both backends honour the policy identically.
    pub fn with_tiebreak(self, tiebreak: TieBreak) -> Self {
        match self.0 {
            QueueImpl::Heap(q) => EventQueue(QueueImpl::Heap(q.with_tiebreak(tiebreak))),
            QueueImpl::Calendar(q) => EventQueue(QueueImpl::Calendar(q.with_tiebreak(tiebreak))),
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        match &mut self.0 {
            QueueImpl::Heap(q) => q.schedule(at, payload),
            QueueImpl::Calendar(q) => q.schedule(at, payload),
        }
    }

    /// Removes and returns the earliest pending event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.0 {
            QueueImpl::Heap(q) => q.pop(),
            QueueImpl::Calendar(q) => q.pop(),
        }
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        match &self.0 {
            QueueImpl::Heap(q) => q.len(),
            QueueImpl::Calendar(q) => q.len(),
        }
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the backing implementation's self-telemetry counters.
    pub fn stats(&self) -> QueueStats {
        match &self.0 {
            QueueImpl::Heap(q) => q.stats(),
            QueueImpl::Calendar(q) => q.stats(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("kind", &self.kind())
            .field("pending", &self.len())
            .field("scheduled", &self.stats().scheduled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Cycles;

    /// Every behavioural test runs against both implementations.
    fn both(f: impl Fn(EventQueue<i64>)) {
        f(EventQueue::with_kind(SchedKind::Heap));
        f(EventQueue::with_kind(SchedKind::Calendar));
    }

    #[test]
    fn pops_in_time_order() {
        both(|mut q| {
            q.schedule(Cycles(30), 3);
            q.schedule(Cycles(10), 1);
            q.schedule(Cycles(20), 2);
            assert_eq!(q.pop(), Some((Cycles(10), 1)));
            assert_eq!(q.pop(), Some((Cycles(20), 2)));
            assert_eq!(q.pop(), Some((Cycles(30), 3)));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn ties_break_by_insertion_order() {
        both(|mut q| {
            for i in 0..100 {
                q.schedule(Cycles(7), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((Cycles(7), i)));
            }
        });
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        both(|mut q| {
            q.schedule(Cycles(5), 0);
            assert_eq!(q.pop(), Some((Cycles(5), 0)));
            q.schedule(Cycles(3), 1);
            q.schedule(Cycles(1), 2);
            assert_eq!(q.pop(), Some((Cycles(1), 2)));
            q.schedule(Cycles(2), 3);
            assert_eq!(q.pop(), Some((Cycles(2), 3)));
            assert_eq!(q.pop(), Some((Cycles(3), 1)));
        });
    }

    #[test]
    fn counts_total_scheduled() {
        both(|mut q| {
            for i in 0..5 {
                q.schedule(Cycles(i as u64), i);
            }
            assert_eq!(q.len(), 5);
            assert!(!q.is_empty());
            while q.pop().is_some() {}
            assert_eq!(q.stats().scheduled, 5);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn explicit_kinds_are_honoured() {
        for kind in [SchedKind::Heap, SchedKind::Calendar] {
            assert_eq!(EventQueue::<u8>::with_kind(kind).kind(), kind);
        }
    }

    #[test]
    fn default_kind_is_calendar() {
        assert_eq!(EventQueue::<u8>::new().kind(), SchedKind::Calendar);
        assert_eq!(SchedKind::default(), SchedKind::Calendar);
    }

    #[test]
    fn kind_parses_and_roundtrips() {
        for kind in [SchedKind::Heap, SchedKind::Calendar] {
            assert_eq!(kind.as_str().parse::<SchedKind>().unwrap(), kind);
        }
        assert_eq!("".parse::<SchedKind>().unwrap(), SchedKind::Calendar);
        assert!("typo".parse::<SchedKind>().is_err());
    }

    #[test]
    fn stats_track_traffic() {
        both(|mut q| {
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
        });
    }

    /// Every behavioural test that also varies the tie-break policy.
    fn both_with(tiebreak: TieBreak, f: impl Fn(EventQueue<i64>)) {
        f(EventQueue::with_kind(SchedKind::Heap).with_tiebreak(tiebreak));
        f(EventQueue::with_kind(SchedKind::Calendar).with_tiebreak(tiebreak));
    }

    #[test]
    fn lifo_ties_pop_in_reverse_insertion_order() {
        both_with(TieBreak::Lifo, |mut q| {
            for i in 0..100 {
                q.schedule(Cycles(7), i);
            }
            for i in (0..100).rev() {
                assert_eq!(q.pop(), Some((Cycles(7), i)));
            }
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn shuffle_ties_are_a_seeded_permutation() {
        // The shuffle is deterministic per seed, identical across
        // backends, a true permutation (nothing lost, nothing doubled),
        // and different seeds give different orders.
        let order_of = |q: &mut EventQueue<i64>| -> Vec<i64> {
            for i in 0..64 {
                q.schedule(Cycles(3), i);
            }
            std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect()
        };
        let mut heap = EventQueue::with_kind(SchedKind::Heap).with_tiebreak(TieBreak::Shuffle(42));
        let mut cal =
            EventQueue::with_kind(SchedKind::Calendar).with_tiebreak(TieBreak::Shuffle(42));
        let a = order_of(&mut heap);
        let b = order_of(&mut cal);
        assert_eq!(a, b, "backends must agree on the shuffled order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a, (0..64).collect::<Vec<_>>(), "not FIFO");
        let mut other = EventQueue::with_kind(SchedKind::Heap).with_tiebreak(TieBreak::Shuffle(43));
        assert_ne!(order_of(&mut other), a, "seed changes the order");
    }

    #[test]
    fn tiebreak_never_reorders_across_distinct_times() {
        for tiebreak in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Shuffle(9)] {
            both_with(tiebreak, |mut q| {
                q.schedule(Cycles(30), 3);
                q.schedule(Cycles(10), 1);
                q.schedule(Cycles(20), 2);
                assert_eq!(q.pop(), Some((Cycles(10), 1)));
                assert_eq!(q.pop(), Some((Cycles(20), 2)));
                assert_eq!(q.pop(), Some((Cycles(30), 3)));
            });
        }
    }

    #[test]
    fn tiebreak_parses_and_roundtrips() {
        for tiebreak in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::Shuffle(0),
            TieBreak::Shuffle(0xDEAD_BEEF),
        ] {
            assert_eq!(tiebreak.to_string().parse::<TieBreak>().unwrap(), tiebreak);
        }
        assert_eq!("".parse::<TieBreak>().unwrap(), TieBreak::Fifo);
        assert_eq!(
            "shuffle:12345".parse::<TieBreak>().unwrap(),
            TieBreak::Shuffle(12345)
        );
        assert!("random".parse::<TieBreak>().is_err());
        assert!("shuffle:zebra".parse::<TieBreak>().is_err());
    }

    #[test]
    fn shuffle_ranks_are_unique() {
        // The rank transform must be injective, or the calendar's
        // bucket sort and the heap could disagree on equal ranks.
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
