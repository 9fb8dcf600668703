//! # cedar-cache — a content-addressed store for completed runs
//!
//! The simulator is fully deterministic: identical `(application,
//! SimConfig, FaultPlan)` inputs always yield a byte-identical
//! `RunResult` (proven continuously by `tests/config_fuzz.rs`
//! fingerprint equality). The measurement campaign, on the other hand,
//! re-simulates the same 5 × 5 grid from scratch on every invocation of
//! every bench binary. This crate memoizes completed runs on disk so
//! repeated campaigns replay from the cache instead of recomputing.
//!
//! Three pieces:
//!
//! * [`RunKey`] — the canonical semantic fingerprint of one experiment:
//!   a 128-bit content address derived from the application spec, the
//!   simulated-machine configuration, the fault plan, and the
//!   [`MODEL_VERSION`].
//! * [`CachedRun`] — a mirror of `cedar_core::RunResult` built from
//!   leaf-crate types only, with a stable line-record serialization
//!   ([`CachedRun::encode`] / [`CachedRun::decode`]) that round-trips
//!   without serde. Floats travel as IEEE-754 bit patterns, so the
//!   round trip is exact.
//! * [`RunCache`] — the disk store (`results/cache/` by default):
//!   `open`/`get`/`put`/`stats`, two-level fan-out directories, atomic
//!   rename writes, and a self-describing entry header (format version,
//!   model version, key echo, payload length, FNV-1a checksum). A
//!   truncated, bit-flipped, stale-versioned or otherwise unreadable
//!   entry is **silently a miss** — the run is recomputed and the entry
//!   rewritten; corruption can cost time, never correctness.
//!
//! ## Versioning policy
//!
//! * [`FORMAT_VERSION`] — bump when the on-disk entry layout changes.
//! * [`MODEL_VERSION`] — bump on **any behavior-affecting simulator
//!   change** (cost models, scheduling of simulated work, counter
//!   semantics, …). The version participates in every [`RunKey`], so a
//!   bump orphans all previous entries at once: they simply stop being
//!   addressable and are overwritten or ignored. When in doubt, bump —
//!   a stale hit is a correctness bug, a spurious miss is one redundant
//!   simulation.

pub mod key;
pub mod record;
pub mod store;

pub use key::RunKey;
pub use record::{CachedRun, DecodeError};
pub use store::{CacheStats, RunCache};

/// On-disk entry format version. Bump when the serialization layout
/// changes; entries with any other format version are misses.
pub const FORMAT_VERSION: u32 = 1;

/// Simulator behavior version. Bump on any change that can alter a
/// `RunResult` for a fixed configuration — the bump re-keys the whole
/// cache so no stale result is ever served. See the crate docs for the
/// policy.
pub const MODEL_VERSION: u32 = 1;

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Interns `s`, returning a `&'static str` with the same contents.
///
/// Deserialized records carry owned strings, but the in-memory result
/// types (`RunResult::app`, `cedar_obs::Counters` names) use
/// `&'static str`. The intern table leaks each *distinct* string once;
/// the universe is the app names and counter names the simulator emits,
/// so the leak is bounded and tiny.
pub fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = table.lock().expect("intern table lock");
    match set.get(s) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_is_stable() {
        let a = intern("events.total");
        let b = intern(&String::from("events.total"));
        assert_eq!(a, "events.total");
        assert!(
            std::ptr::eq(a, b),
            "same contents must intern to one allocation"
        );
        assert_ne!(intern("x"), intern("y"));
    }
}
