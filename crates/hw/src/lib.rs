//! # cedar-hw — Cedar hardware models
//!
//! Event-driven models of the Cedar multiprocessor's hardware (§2 of the
//! paper):
//!
//! * 1–4 active **clusters** (modified Alliant FX/8s) of 8 pipelined
//!   computational elements (CEs) each ([`ce`]), with a
//!   **concurrency control bus** for fast intra-cluster loop dispatch and
//!   synchronization: its barrier is [`cbus::CbusBarrier`], and its
//!   dispatch is a fixed cost ([`config::CBUS_DISPATCH`]) the machine
//!   charges directly;
//! * a 64 MB **global memory** of 32 independent, double-word interleaved
//!   modules ([`module`], [`gmem`]);
//! * a **two-stage shuffle-exchange network** of 8×8 crossbar switches
//!   (4 per stage, 2 parallel links between each stage-1/stage-2 pair),
//!   one network for the CE→memory path and another for the return path
//!   ([`switch`], [`route`]);
//! * a shared **2-port injection path** from each cluster to its Global
//!   Interfaces, so a cluster issues at most 2 words per cycle.
//!
//! This is the one machine the paper measured, so the geometry — 32
//! modules, radix 8, 4 switches per stage, 2 links, 4 clusters of 2
//! injection ports — is a set of crate constants, not configuration.
//! [`NetConfig`] carries only latencies. Every configuration (1–32
//! processors) uses the same network and memory (§3.2).
//!
//! Contention — the paper's third overhead source — emerges here: every
//! global-memory word travels as a packet through switch output ports and
//! memory modules modelled as FCFS servers, so simultaneous vector
//! requests from many CEs queue exactly where they did on the real
//! machine.
//!
//! The global-memory system is a plain struct the caller's event loop
//! drives: `inject` returns a packet's first hop ([`GmemEvent`], 24
//! bytes) with its fire time, and `handle(hop, now)` returns a [`Step`]:
//! the next hop, or the [`MemResponse`] when the round trip completes.
//! The CE engine and the concurrency-bus barrier are plain state
//! `cedar-core` drives directly.
//!
//! ## Example: one word's round trip
//!
//! ```
//! use cedar_hw::{CeId, GlobalAddr, GlobalMemorySystem, GmemEvent, MemOp, NetConfig, Step};
//! use cedar_sim::{Cycles, EventQueue};
//!
//! let cfg = NetConfig::cedar();
//! let min_rtt = cfg.min_round_trip();
//! let mut sys = GlobalMemorySystem::new(cfg);
//! let mut q: EventQueue<GmemEvent> = EventQueue::new();
//! let (at, hop) = sys.inject(CeId(0), GlobalAddr(0x100), MemOp::Read, Cycles(0));
//! q.schedule(at, hop);
//! let mut delivered_at = None;
//! while let Some((now, ev)) = q.pop() {
//!     match sys.handle(ev, now) {
//!         Step::Next(at, hop) => q.schedule(at, hop),
//!         Step::Delivered(_) => delivered_at = Some(now),
//!     }
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
pub(crate) mod net;
pub mod packet;
pub mod route;
pub mod switch;
pub(crate) mod topology;
pub mod vector;

pub use addr::GlobalAddr;
pub use ce::{Activity, CeEngine};
pub use config::NetConfig;
pub use gmem::{GlobalMemorySystem, Step};
pub use packet::{GmemEvent, MemOp, MemResponse};
pub use topology::{CeId, ClusterId, Configuration, ModuleId};
pub use vector::VectorAccess;
