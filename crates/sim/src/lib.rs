//! # cedar-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate underneath the Cedar machine reproduction.
//! It deliberately contains nothing Cedar-specific: simulated time
//! ([`Cycles`], [`SimTime`]), a deterministic pending-event set
//! ([`EventQueue`], backed by a calendar queue or, as the reference, a
//! binary heap), the outbox the global-memory system emits its packet
//! hops into ([`Outbox`]), a small deterministic RNG ([`SplitMix64`]), and
//! time-weighted statistics helpers ([`stats`]).
//!
//! ## Determinism
//!
//! Every run of the simulator with the same inputs produces bit-identical
//! traces. Two mechanisms guarantee this:
//!
//! * [`EventQueue`] breaks timestamp ties by insertion sequence number, so
//!   simultaneous events fire in the order they were scheduled. Both
//!   backing schedulers (selected by an explicit [`SchedKind`]) honour
//!   the exact same order, so the selection affects wall-clock speed
//!   only. A [`TieBreak`] policy can reorder simultaneous events
//!   (LIFO, seeded shuffle) — deterministically, and identically on
//!   both backends — so the model checker can prove measurements don't
//!   depend on tie order.
//! * [`SplitMix64`] is a fixed-seed PRNG; no ambient entropy is consulted.
//!
//! This crate never reads environment variables — scheduler selection by
//! `CEDAR_SCHED` happens in `cedar_obs::RunOptions::from_env`, which
//! passes a typed [`SchedKind`] down here. The queues and [`Outbox`]
//! keep cheap always-on self-telemetry counters ([`QueueStats`],
//! [`OutboxStats`]) that the observability layer rolls into the run
//! manifest.
//!
//! ## Example
//!
//! ```
//! use cedar_sim::{Cycles, EventQueue, SchedKind};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new(); // calendar default
//! q.schedule(Cycles(5), "later");
//! q.schedule(Cycles(1), "first");
//! q.schedule(Cycles(5), "tie-broken-second");
//! assert_eq!(q.pop(), Some((Cycles(1), "first")));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("tie-broken-second"));
//!
//! // The heap backend pops the same order, and both count traffic:
//! let mut h: EventQueue<u8> = EventQueue::with_kind(SchedKind::Heap);
//! h.schedule(Cycles(3), 1);
//! assert_eq!(h.pop(), Some((Cycles(3), 1)));
//! assert_eq!(h.stats().popped, 1);
//! ```

mod calendar;
pub mod outbox;
mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use outbox::{Outbox, OutboxStats};
pub use queue::{EventQueue, QueueStats, SchedKind, TieBreak, HOLD_BUCKETS};
pub use rng::SplitMix64;
pub use time::{Cycles, HpmTicks, SimTime, HPM_TICKS_PER_CYCLE};
