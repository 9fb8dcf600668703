//! The measurement fingerprint: the hash `perfbench --pin` and the
//! tie-break golden pin, and the text tie stability compares on a
//! single cluster.
//!
//! The run's line-record encoding ([`RunResult::encode`], the payload
//! the run cache stores) is the complete measurement record of a run,
//! but three of its line families are *not* measurements:
//!
//! * `stats.*_ns` — host wall-clock phase timings;
//! * `counter queue.*` — the event queue's own telemetry (operations,
//!   pending peaks, wheel spills, hold distances): a record of how much
//!   work the simulator did, not a measurement of the modelled machine;
//! * `counter outbox.*` — telemetry of the event buffer the machine no
//!   longer has. Current runs carry none of these lines, but run-cache
//!   entries written before it was deleted still do, so the filter
//!   stays and old and new entries fingerprint alike.
//!
//! The `counters <n>` line counts the record's counters, telemetry
//! included, and every run before the outbox was deleted reported four
//! `outbox.*` counters. The fingerprint therefore always counts
//! those four, present or not: an entry written before the deletion, a
//! run after it and the pinned fingerprints of the paper grid all agree.
//!
//! `fingerprint_text` drops exactly those lines; what remains is the
//! paper-facing measurement surface (completion time, breakdowns,
//! utilization, OS clusters, gmem, fault and event totals, and every
//! measurement counter). Two runs of one experiment are compared by
//! [`same_run`](crate::same_run) instead, which keeps the `queue.*`
//! work counts too.

use cedar_core::RunResult;
use cedar_obs::json;

/// True for payload lines that are measurements (not host wall-clock or
/// event-queue telemetry).
fn is_measurement_line(line: &str) -> bool {
    let field = line.split_ascii_whitespace().next().unwrap_or("");
    if field.starts_with("stats.") {
        return false;
    }
    if let Some(rest) = line.strip_prefix("counter ") {
        let name = rest.split(' ').next().unwrap_or("");
        if name.starts_with("queue.") || name.starts_with("outbox.") {
            return false;
        }
    }
    true
}

/// The `outbox.*` counters every run reported until the outbox was
/// deleted (`emitted`, `flushes`, `grows`, `buffered.peak`).
const OUTBOX_COUNTERS: usize = 4;

/// The run's deterministic measurement payload as text — the cacheable
/// encoding with wall-clock and queue-telemetry lines removed.
pub(crate) fn fingerprint_text(result: &RunResult) -> String {
    let encoded = result.encode();
    let kept = encoded
        .lines()
        .filter(|l| l.starts_with("counter ") && !l.starts_with("counter outbox."));
    let counters_line = format!("counters {}", kept.count() + OUTBOX_COUNTERS);
    encoded
        .lines()
        .filter(|l| is_measurement_line(l))
        .map(|l| {
            if l.starts_with("counters ") {
                counters_line.as_str()
            } else {
                l
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// FNV-1a hash of the run's measurement text (the record without the
/// lines above) — the form `perfbench --pin` and the tie-break golden
/// pin.
pub fn fingerprint(result: &RunResult) -> u64 {
    json::fnv1a(fingerprint_text(result).as_bytes())
}

/// The *tie-stable core* of a run: the facts that must survive any
/// simultaneous-event reordering. Coverage (every iteration ran), the
/// experiment's identity, and the totals conservation re-derives.
/// Completion time is deliberately absent — on parallel configurations
/// it legitimately shifts a few percent with the tie-break policy (the
/// tie-stability oracle bounds that shift separately).
pub(crate) fn stable_core(result: &RunResult) -> String {
    format!(
        "app={};configuration={:?};bodies={};clusters={}",
        result.app,
        result.configuration,
        result.bodies,
        result.utilization.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::{Experiment, SimConfig};
    use cedar_hw::Configuration;
    use cedar_sim::TieBreak;

    fn tiny(tie: TieBreak) -> RunResult {
        let app = cedar_apps::synthetic::uniform_xdoall(1, 2, 8, 150, 4);
        Experiment::new(app, SimConfig::cedar(Configuration::P4).with_tiebreak(tie)).run()
    }

    #[test]
    fn fingerprint_drops_wall_clock_and_queue_lines() {
        let r = tiny(TieBreak::Fifo);
        let text = fingerprint_text(&r);
        assert!(!text.contains("stats."), "wall-clock leaked: {text}");
        assert!(!text.contains("counter queue."), "queue telemetry leaked");
        assert!(text.contains("completion_time"), "measurements kept");
        assert!(text.contains("counter events.total"), "counters kept");
    }

    #[test]
    fn entries_written_before_the_outbox_was_deleted_fingerprint_alike() {
        let mut old = tiny(TieBreak::Fifo);
        for name in [
            "outbox.emitted",
            "outbox.flushes",
            "outbox.grows",
            "outbox.buffered.peak",
        ] {
            old.stats.counters.add(name, 7);
        }
        let new = tiny(TieBreak::Fifo);
        assert_eq!(fingerprint_text(&old), fingerprint_text(&new));
        // The count the old record carries, as fingerprints pinned before
        // the deletion hashed it.
        let pinned_count = format!("\ncounters {}\n", old.stats.counters.len());
        assert!(fingerprint_text(&new).contains(&pinned_count));
    }

    #[test]
    fn stable_core_survives_tie_reordering() {
        let fifo = tiny(TieBreak::Fifo);
        let lifo = tiny(TieBreak::Lifo);
        assert_eq!(stable_core(&fifo), stable_core(&lifo));
        assert!(stable_core(&fifo).contains("bodies=16"));
    }
}
