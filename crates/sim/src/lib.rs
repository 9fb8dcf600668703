//! # cedar-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate underneath the Cedar machine reproduction.
//! It deliberately contains nothing Cedar-specific: simulated time
//! ([`Cycles`], [`SimTime`]), a deterministic pending-event set
//! ([`EventQueue`], a calendar queue), a small deterministic RNG
//! ([`SplitMix64`]), and time-weighted statistics helpers ([`stats`]).
//!
//! ## Determinism
//!
//! Every run of the simulator with the same inputs produces bit-identical
//! traces. Two mechanisms guarantee this:
//!
//! * [`EventQueue`] breaks timestamp ties by insertion sequence number, so
//!   simultaneous events fire in the order they were scheduled. A
//!   [`TieBreak`] policy can reorder simultaneous events (LIFO, seeded
//!   shuffle) — deterministically — so the model checker can prove
//!   measurements don't depend on tie order.
//! * [`SplitMix64`] is a fixed-seed PRNG; no ambient entropy is consulted.
//!
//! The queue is causal: scheduling an event before the time of the last
//! pop panics. It keeps cheap always-on self-telemetry counters
//! ([`QueueStats`]) that the observability layer rolls into the run
//! manifest. This crate never reads environment variables.
//!
//! ## Example
//!
//! ```
//! use cedar_sim::{Cycles, EventQueue};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Cycles(5), "later");
//! q.schedule(Cycles(1), "first");
//! q.schedule(Cycles(5), "tie-broken-second");
//! assert_eq!(q.pop(), Some((Cycles(1), "first")));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
//! // Scheduling at the time of the last pop is legal; before it panics.
//! q.schedule(Cycles(5), "same-cycle");
//! assert_eq!(q.pop().map(|(_, e)| e), Some("tie-broken-second"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("same-cycle"));
//! assert_eq!(q.stats().popped, 4);
//! ```

mod calendar;
mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::EventQueue;
pub use queue::{QueueStats, TieBreak, HOLD_BUCKETS};
pub use rng::SplitMix64;
pub use time::{Cycles, HpmTicks, SimTime, HPM_TICKS_PER_CYCLE};
