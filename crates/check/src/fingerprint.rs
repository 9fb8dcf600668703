//! The measurement fingerprint the parity oracles compare.
//!
//! The cacheable payload ([`CachedRun::encode`],
//! `crates/cache/src/record.rs`) is the complete measurement record of
//! a run, but three of its line families are *not* measurements:
//!
//! * `stats.*_ns` — host wall-clock phase timings;
//! * `counter queue.*` — pending-event-set telemetry, which differs
//!   between the heap and calendar backends by design;
//! * `counter outbox.*` — event-pool telemetry, likewise
//!   implementation-shaped.
//!
//! [`fingerprint_text`] drops exactly those lines; what remains is the
//! paper-facing measurement surface (completion time, breakdowns,
//!  utilization, OS clusters, gmem, fault and event totals, and every
//! measurement counter), which the scheduler/worker/cache parity
//! oracles require to be byte-identical.

use cedar_core::cache::to_cached;
use cedar_core::RunResult;
use cedar_obs::json;

/// True for payload lines that are measurements (not host wall-clock or
/// scheduler-implementation telemetry).
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

/// The run's deterministic measurement payload as text — the cacheable
/// encoding with wall-clock and backend-telemetry lines removed. Two
/// runs of the same experiment must produce identical text no matter
/// which scheduler backend, worker pool, or cache path executed them.
pub fn fingerprint_text(result: &RunResult) -> String {
    to_cached(result)
        .encode()
        .lines()
        .filter(|l| is_measurement_line(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// FNV-1a hash of [`fingerprint_text`] — the compact form recorded in
/// violation reports and counters.
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
    use cedar_sim::{SchedKind, TieBreak};

    fn tiny(sched: SchedKind, tie: TieBreak) -> RunResult {
        let app = cedar_apps::synthetic::uniform_xdoall(1, 2, 8, 150, 4);
        Experiment::new(
            app,
            SimConfig::cedar(Configuration::P4)
                .with_scheduler(sched)
                .with_tiebreak(tie),
        )
        .run()
    }

    #[test]
    fn fingerprint_is_backend_independent() {
        let heap = tiny(SchedKind::Heap, TieBreak::Fifo);
        let cal = tiny(SchedKind::Calendar, TieBreak::Fifo);
        assert_eq!(fingerprint_text(&heap), fingerprint_text(&cal));
        assert_eq!(fingerprint(&heap), fingerprint(&cal));
    }

    #[test]
    fn fingerprint_drops_wall_clock_and_backend_lines() {
        let r = tiny(SchedKind::Calendar, TieBreak::Fifo);
        let text = fingerprint_text(&r);
        assert!(!text.contains("stats."), "wall-clock leaked: {text}");
        assert!(!text.contains("counter queue."), "queue telemetry leaked");
        assert!(text.contains("completion_time"), "measurements kept");
        assert!(text.contains("counter events.total"), "counters kept");
    }

    #[test]
    fn stable_core_survives_tie_reordering() {
        let fifo = tiny(SchedKind::Calendar, TieBreak::Fifo);
        let lifo = tiny(SchedKind::Calendar, TieBreak::Lifo);
        assert_eq!(stable_core(&fifo), stable_core(&lifo));
        assert!(stable_core(&fifo).contains("bodies=16"));
    }
}
