//! Output checks. A failed check marks its operation failed; it never
//! aborts the run.
//!
//! * Seed-independent laws on every run (the `Conservation` oracle's):
//!   each loop body runs exactly once, and no task breakdown exceeds
//!   completion time.
//! * Measurement fingerprints (`cedar_check::fingerprint`): at the
//!   default seed the paper grid must match the values pinned in
//!   `fingerprints.txt`; otherwise every pass must match the first one
//!   (warm_replay: the runs that filled the cache).
//! * Work counts and the rendered report repeat exactly pass to pass.

use cedar_core::RunResult;

use crate::counts::WorkCounts;
use crate::workload::{Cell, Pass};

/// The paper grid's fingerprints at `--seed 0`, one `<app> <config>
/// <hex>` line per run in grid order.
const PINNED: &str = include_str!("../fingerprints.txt");

/// The pinned fingerprints in grid order.
pub fn pinned() -> Vec<u64> {
    PINNED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let hex = l.split_whitespace().nth(2).expect("<app> <config> <hex>");
            u64::from_str_radix(hex, 16).expect("pinned fingerprints are hex")
        })
        .collect()
}

/// The pin file's line for one run.
pub fn pin_line(r: &RunResult) -> String {
    format!(
        "{} {:?} {:016x}",
        r.app,
        r.configuration,
        cedar_check::fingerprint(r)
    )
}

/// The seed-independent conservation laws for one run of `cell`.
pub fn conservation(cell: &Cell, r: &RunResult) -> Result<(), String> {
    let expected = cell.app.total_bodies();
    if r.bodies != expected {
        return Err(format!(
            "{} {:?}: {} loop bodies ran, expected {expected}",
            r.app, r.configuration, r.bodies
        ));
    }
    for (i, b) in r.breakdowns.iter().enumerate() {
        if b.total() > r.completion_time {
            return Err(format!(
                "{} {:?}: task {i} breakdown {} exceeds completion time {}",
                r.app,
                r.configuration,
                b.total(),
                r.completion_time
            ));
        }
    }
    Ok(())
}

/// What later passes must reproduce. Empty slots are filled by the first
/// pass that produces them.
#[derive(Debug, Default)]
pub struct Reference {
    fingerprints: Vec<Option<u64>>,
    counts: Option<WorkCounts>,
    render_hash: Option<u64>,
}

impl Reference {
    /// A reference whose fingerprints are known up front.
    pub fn pinned(fingerprints: Vec<u64>) -> Reference {
        Reference {
            fingerprints: fingerprints.into_iter().map(Some).collect(),
            ..Reference::default()
        }
    }

    /// Checks one pass over `cells` (in pass order) and returns one
    /// message per failed experiment. A pass-wide mismatch (counts,
    /// report, cache misses) fails every experiment of the pass.
    pub fn check(&mut self, cells: &[&Cell], pass: &Pass, counts: &WorkCounts) -> Vec<String> {
        if self.fingerprints.len() < cells.len() {
            self.fingerprints.resize(cells.len(), None);
        }
        let mut per_run: Vec<String> = Vec::new();
        for (i, (cell, run)) in cells.iter().zip(&pass.runs).enumerate() {
            let verdict = run
                .as_ref()
                .map_err(|e| format!("panicked: {e}"))
                .and_then(|r| {
                    conservation(cell, r)?;
                    let fp = cedar_check::fingerprint(r);
                    match self.fingerprints[i] {
                        Some(want) if want != fp => Err(format!(
                            "{} {:?}: fingerprint {fp:016x}, expected {want:016x}",
                            r.app, r.configuration
                        )),
                        _ => {
                            self.fingerprints[i] = Some(fp);
                            Ok(())
                        }
                    }
                });
            if let Err(e) = verdict {
                per_run.push(e);
            }
        }
        let mut pass_wide = Vec::new();
        match &self.counts {
            Some(want) if want != counts => pass_wide.push("work counts changed between passes"),
            _ => self.counts = Some(counts.clone()),
        }
        if pass.render_bytes > 0 {
            match self.render_hash {
                Some(want) if want != pass.render_hash => {
                    pass_wide.push("rendered report changed between passes")
                }
                _ => self.render_hash = Some(pass.render_hash),
            }
        }
        if pass.cache_misses > 0 {
            pass_wide.push("warm replay missed the cache");
        }
        if pass_wide.is_empty() {
            per_run
        } else {
            vec![pass_wide.join("; "); cells.len()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::{Experiment, SimConfig};
    use cedar_hw::Configuration;

    #[test]
    fn pins_cover_the_whole_grid() {
        assert_eq!(pinned().len(), 25);
    }

    #[test]
    fn conservation_catches_a_lost_body() {
        let app = cedar_apps::synthetic::uniform_xdoall(1, 2, 8, 150, 4);
        let cell = Cell {
            app: app.clone(),
            cfg: SimConfig::cedar(Configuration::P4),
        };
        let mut r = Experiment::new(app, cell.cfg.clone()).run();
        assert_eq!(conservation(&cell, &r), Ok(()));
        r.bodies -= 1;
        assert!(conservation(&cell, &r).unwrap_err().contains("loop bodies"));
    }
}
