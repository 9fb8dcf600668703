//! The outbox pattern.
//!
//! Only the global-memory system uses it: `cedar-hw`'s
//! `GlobalMemorySystem` is a plain struct whose `inject`/`handle`
//! methods receive the current time and a mutable [`Outbox`]. Instead of
//! scheduling directly into the global queue (which would require it to
//! hold a queue reference, entangling ownership), it *emits*
//! `(delay, event)` pairs into the outbox; the machine loop in
//! `cedar-core` drains the outbox into the master [`EventQueue`]. This
//! keeps the memory system unit-testable on its own: its tests drain
//! the outbox into a scratch queue. The other components (the runtime
//! library's state machines, the OS models) return their next step or
//! cost to the machine directly and need no outbox.

use crate::queue::EventQueue;
use crate::time::{Cycles, SimTime};

/// A buffer of events emitted by a component during one `handle` call.
///
/// # Example
///
/// ```
/// use cedar_sim::{Cycles, Outbox};
///
/// let mut out: Outbox<&'static str> = Outbox::new();
/// out.emit(Cycles(3), "fires at now+3");
/// out.emit_now("fires immediately");
/// let drained: Vec<_> = out.drain().collect();
/// assert_eq!(drained, vec![(Cycles(3), "fires at now+3"),
///                          (Cycles(0), "fires immediately")]);
/// ```
#[derive(Debug)]
pub struct Outbox<E> {
    items: Vec<(Cycles, E)>,
    stats: OutboxStats,
}

/// Self-telemetry of one outbox: how hard the slab-reuse pattern works.
/// `grows` counts buffer reallocations; a long-lived outbox that has
/// reached its steady-state capacity emits and flushes millions of
/// events with `grows` frozen — the reuse rate
/// [`OutboxStats::reuse_rate`] is then ~1.0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutboxStats {
    /// Events ever emitted into this outbox.
    pub emitted: u64,
    /// Drain/flush calls (each reuses the buffer allocation).
    pub flushes: u64,
    /// Buffer reallocations (capacity growth events).
    pub grows: u64,
    /// Peak number of events buffered at once.
    pub peak_buffered: u64,
}

impl OutboxStats {
    /// Fraction of emits that reused existing capacity (1.0 = perfect
    /// slab behaviour; 0 emits count as perfect).
    pub fn reuse_rate(&self) -> f64 {
        if self.emitted == 0 {
            1.0
        } else {
            1.0 - self.grows as f64 / self.emitted as f64
        }
    }
}

impl<E> Outbox<E> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            items: Vec::new(),
            stats: OutboxStats::default(),
        }
    }

    /// Emits `event` to fire `delay` cycles after the current time.
    pub fn emit(&mut self, delay: Cycles, event: E) {
        if self.items.len() == self.items.capacity() {
            self.stats.grows += 1;
        }
        self.items.push((delay, event));
        self.stats.emitted += 1;
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.items.len() as u64);
    }

    /// Emits `event` to fire at the current time (zero delay).
    pub fn emit_now(&mut self, event: E) {
        self.emit(Cycles::ZERO, event);
    }

    /// Drains all buffered `(delay, event)` pairs in emission order.
    pub fn drain(&mut self) -> impl Iterator<Item = (Cycles, E)> + '_ {
        self.stats.flushes += 1;
        self.items.drain(..)
    }

    /// Drains into an event queue, anchoring delays at `now`.
    pub fn flush_into(&mut self, now: SimTime, queue: &mut EventQueue<E>) {
        self.stats.flushes += 1;
        for (delay, ev) in self.items.drain(..) {
            queue.schedule(now + delay, ev);
        }
    }

    /// Drains into a queue of a *wrapping* event type, anchoring
    /// delays at `now` and applying `wrap` to each event.
    ///
    /// This is the machine-loop fast path: `cedar-core` keeps one
    /// long-lived outbox and flushes component events into its master
    /// queue (wrapping them in the master event enum) without allocating
    /// a fresh buffer per dispatch.
    pub fn flush_map_into<E2>(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<E2>,
        mut wrap: impl FnMut(E) -> E2,
    ) {
        self.stats.flushes += 1;
        for (delay, ev) in self.items.drain(..) {
            queue.schedule(now + delay, wrap(ev));
        }
    }

    /// Snapshot of the outbox's self-telemetry counters.
    pub fn stats(&self) -> OutboxStats {
        self.stats
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing has been emitted (or everything was drained).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<E> Default for Outbox<E> {
    fn default() -> Self {
        Outbox::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_in_order() {
        let mut out = Outbox::new();
        out.emit(Cycles(2), "b");
        out.emit(Cycles(1), "a");
        let v: Vec<_> = out.drain().collect();
        assert_eq!(v, vec![(Cycles(2), "b"), (Cycles(1), "a")]);
        assert!(out.is_empty());
    }

    #[test]
    fn flush_anchors_at_now() {
        let mut out = Outbox::new();
        out.emit(Cycles(5), 'x');
        out.emit_now('y');
        let mut q = EventQueue::new();
        out.flush_into(Cycles(100), &mut q);
        assert_eq!(q.pop(), Some((Cycles(100), 'y')));
        assert_eq!(q.pop(), Some((Cycles(105), 'x')));
        assert!(out.is_empty());
    }

    #[test]
    fn len_tracks_buffered_events() {
        let mut out: Outbox<u8> = Outbox::new();
        assert_eq!(out.len(), 0);
        out.emit_now(1);
        out.emit_now(2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stats_track_reuse() {
        let mut out: Outbox<u8> = Outbox::new();
        let mut q = EventQueue::new();
        // First fill grows the buffer; subsequent fills reuse it.
        for round in 0..10 {
            out.emit_now(round);
            out.emit_now(round);
            out.flush_into(Cycles(round as u64), &mut q);
        }
        let s = out.stats();
        assert_eq!(s.emitted, 20);
        assert_eq!(s.flushes, 10);
        assert_eq!(s.peak_buffered, 2);
        assert!(s.grows <= 2, "steady state must stop reallocating");
        assert!(s.reuse_rate() >= 0.9, "reuse rate {}", s.reuse_rate());
        assert_eq!(OutboxStats::default().reuse_rate(), 1.0);
    }
}
