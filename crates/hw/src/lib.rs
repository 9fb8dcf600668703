//! # cedar-hw — Cedar hardware models
//!
//! Event-driven models of the Cedar multiprocessor's hardware (§2 of the
//! paper):
//!
//! * 1–4 **clusters** (modified Alliant FX/8s) of 8 pipelined
//!   computational elements (CEs) each, with a
//!   **concurrency control bus** for fast intra-cluster loop dispatch and
//!   synchronization ([`cbus`], [`ce`]);
//! * a 64 MB **global memory** of 32 independent, double-word interleaved
//!   modules ([`module`], [`gmem`]);
//! * a **two-stage shuffle-exchange network** of 8×8 crossbar switches,
//!   one network for the CE→memory path and another for the return path
//!   ([`switch`], [`route`], [`net`]).
//!
//! Contention — the paper's third overhead source — emerges here: every
//! global-memory word travels as a packet through switch output ports and
//! memory modules modelled as FCFS servers, so simultaneous vector
//! requests from many CEs queue exactly where they did on the real
//! machine.
//!
//! Components follow the `cedar-sim` outbox pattern: they are plain
//! structs with `handle(event, now, &mut Outbox)` methods, composed into a
//! full machine by `cedar-core`.
//!
//! ## Example: one word's round trip
//!
//! ```
//! use cedar_hw::{CeId, GlobalAddr, GlobalMemorySystem, GmemEvent, GmemOutput, MemOp, NetConfig};
//! use cedar_sim::{Cycles, EventQueue, Outbox};
//!
//! let cfg = NetConfig::cedar();
//! let min_rtt = cfg.min_round_trip();
//! let mut sys = GlobalMemorySystem::new(cfg);
//! let mut q: EventQueue<GmemEvent> = EventQueue::new();
//! let mut out: Outbox<GmemEvent> = Outbox::new();
//! sys.inject(CeId(0), GlobalAddr(0x100), MemOp::Read, Cycles(0), &mut out);
//! out.flush_into(Cycles(0), &mut q);
//! let mut delivered_at = None;
//! while let Some((now, ev)) = q.pop() {
//!     if let Some(GmemOutput::Deliver(_)) = sys.handle(ev, now, &mut out) {
//!         delivered_at = Some(now);
//!     }
//!     out.flush_into(now, &mut q);
//! }
//! assert_eq!(delivered_at, Some(min_rtt)); // uncontended = minimum latency
//! ```

pub mod addr;
pub mod analytic;
pub mod cbus;
pub mod ce;
pub mod config;
pub mod gmem;
pub mod module;
pub mod net;
pub mod packet;
pub mod route;
pub mod switch;
pub mod topology;
pub mod vector;

pub use addr::GlobalAddr;
pub use cbus::ConcurrencyBus;
pub use ce::{Activity, ActivityOutcome, CeEngine};
pub use config::{HwConfig, NetConfig};
pub use gmem::{GlobalMemorySystem, GmemEvent, GmemOutput};
pub use packet::{MemOp, MemRequest, MemResponse, RequestId};
pub use topology::{CeId, ClusterId, Configuration, ModuleId};
pub use vector::VectorAccess;
