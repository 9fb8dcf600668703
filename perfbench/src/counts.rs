//! Deterministic work counts per layer, read from the counters and
//! statistics every [`RunResult`] already carries.
//!
//! For a fixed set of experiments these numbers repeat exactly on any
//! host, worker count and pass, so the benchmark asserts that they do
//! and prints them beside the host timings.

use std::collections::BTreeMap;

use cedar_core::RunResult;

use crate::stats::Ratio;

/// Event classes whose counts and shares are reported.
pub const EVENT_CLASSES: [&str; 6] = [
    "events.gmem",
    "events.ce_done",
    "events.ce_resume",
    "events.cbus_release",
    "events.daemon",
    "events.ast",
];

/// `cedar-sim` queue and outbox counters copied from each run's rollup.
const SIM_COUNTERS: [&str; 7] = [
    "queue.scheduled",
    "queue.popped",
    "queue.overflow_spills",
    "queue.pending.peak",
    "queue.wheel.peak",
    "outbox.emitted",
    "outbox.grows",
];

/// Summed (or, for `.peak` names, maxed) work counts over a set of runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkCounts {
    map: BTreeMap<&'static str, u64>,
}

impl WorkCounts {
    /// Adds one run's counts.
    pub fn add(&mut self, r: &RunResult) {
        let mut put = |name: &'static str, v: u64| {
            let slot = self.map.entry(name).or_insert(0);
            *slot = if name.ends_with(".peak") {
                (*slot).max(v)
            } else {
                *slot + v
            };
        };
        let copied = std::iter::once("events.total")
            .chain(EVENT_CLASSES)
            .chain(SIM_COUNTERS);
        for name in copied {
            put(name, r.stats.counters.get(name));
        }
        let g = &r.gmem;
        put("gmem.packets", g.packets);
        put("gmem.module_requests", g.module_requests.iter().sum());
        put(
            "gmem.module_sync_requests",
            g.module_sync_requests.iter().sum(),
        );
        put("gmem.cluster_path_queued", g.cluster_path_queued.0);
        put("gmem.fwd_queued", g.fwd_queued.0);
        put("gmem.module_queued", g.module_queued.0);
        put("gmem.rev_queued", g.rev_queued.0);
        put("rtl.bodies", r.bodies);
        put("os.pgflt_seq", r.faults.0);
        put("os.pgflt_conc", r.faults.1);
    }

    /// One count (0 when never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Every count in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// The derived ratios, each with its base, in a fixed order.
    pub fn ratios(&self) -> Vec<(String, Ratio)> {
        let f = |n: &str| self.get(n) as f64;
        let mut out: Vec<(String, Ratio)> = EVENT_CLASSES
            .iter()
            .map(|c| (format!("{c}.share"), Ratio::new(f(c), f("events.total"))))
            .collect();
        out.push((
            "queue.spill_ratio".into(),
            Ratio::new(f("queue.overflow_spills"), f("queue.scheduled")),
        ));
        out.push((
            "gmem.hops_per_packet".into(),
            Ratio::new(f("events.gmem"), f("gmem.packets")),
        ));
        out.push((
            "gmem.sync_share".into(),
            Ratio::new(f("gmem.module_sync_requests"), f("gmem.module_requests")),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::{Experiment, SimConfig};
    use cedar_hw::Configuration;

    fn tiny() -> RunResult {
        let app = cedar_apps::synthetic::uniform_xdoall(1, 2, 8, 150, 4);
        Experiment::new(app, SimConfig::cedar(Configuration::P16)).run()
    }

    #[test]
    fn counts_sum_runs_and_max_peaks() {
        let r = tiny();
        let mut one = WorkCounts::default();
        one.add(&r);
        let mut two = one.clone();
        two.add(&r);
        assert_eq!(one.get("rtl.bodies"), 16);
        assert_eq!(two.get("events.total"), 2 * one.get("events.total"));
        assert_eq!(two.get("queue.pending.peak"), one.get("queue.pending.peak"));
        assert!(one.get("gmem.packets") > 0);
    }

    #[test]
    fn ratios_report_their_bases() {
        let mut c = WorkCounts::default();
        c.add(&tiny());
        let ratios: BTreeMap<String, Ratio> = c.ratios().into_iter().collect();
        let hops = ratios["gmem.hops_per_packet"];
        assert_eq!(hops.base, c.get("gmem.packets") as f64);
        assert_eq!(hops.part, c.get("events.gmem") as f64);
        let spill = ratios["queue.spill_ratio"];
        assert_eq!(spill.base, c.get("queue.scheduled") as f64);
        let shares: f64 = EVENT_CLASSES
            .iter()
            .map(|e| ratios[&format!("{e}.share")].value())
            .sum();
        assert!(
            shares <= 1.0 + 1e-12,
            "class shares partition at most the total"
        );
    }
}
