//! Golden-snapshot tests over the paper's rendered artifacts.
//!
//! Each test renders one table/figure from a deterministic reduced-scale
//! campaign (5 apps × 5 configurations, apps shrunk by a fixed factor of
//! 16 so the grid is fast in debug builds yet identical across build
//! profiles) and compares it byte-for-byte against the snapshot checked
//! in under `tests/golden/`.
//!
//! When a change intentionally moves a rendered number, re-record the
//! snapshots:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! then commit the updated `tests/golden/*.txt` together with the code
//! change, so the diff review shows exactly which published numbers
//! moved.

use std::path::PathBuf;
use std::sync::OnceLock;

use cedar::apps::app_by_name;
use cedar::check::fingerprint;
use cedar::core::suite::SuiteResult;
use cedar::core::{Experiment, SimConfig};
use cedar::hw::Configuration;
use cedar::obs::RunOptions;
use cedar::report::{figures, golden, tables};
use cedar::sim::TieBreak;

/// Fixed shrink factor — must not depend on the build profile, or the
/// snapshots would differ between `cargo test` and `cargo test --release`.
const GOLDEN_SHRINK: u32 = 16;

fn campaign() -> &'static SuiteResult {
    static C: OnceLock<SuiteResult> = OnceLock::new();
    C.get_or_init(|| SuiteResult::full_campaign(&RunOptions::default().with_shrink(GOLDEN_SHRINK)))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn table2_matches_golden() {
    golden::assert_matches(&golden_path("table2"), &tables::table2(campaign()));
}

#[test]
fn table3_matches_golden() {
    golden::assert_matches(&golden_path("table3"), &tables::table3(campaign()));
}

#[test]
fn table4_matches_golden() {
    golden::assert_matches(&golden_path("table4"), &tables::table4(campaign()));
}

#[test]
fn figure3_matches_golden() {
    golden::assert_matches(&golden_path("figure3"), &figures::figure3(campaign()));
}

/// The LIFO and shuffle pop orders, pinned through what they decide:
/// the measurement fingerprint and event count of the three
/// lock-heavy apps at 16 and 32 processors. The tables above all run
/// under FIFO, so only this snapshot sees a change in how a non-FIFO
/// tie cohort is ordered.
#[test]
fn tie_break_runs_match_golden() {
    let mut text = String::from("# cedar_check::fingerprint and events, 1/16 scale\n");
    for tiebreak in [TieBreak::Lifo, TieBreak::Shuffle(0x5EED)] {
        for name in ["ADM", "MDG", "OCEAN"] {
            let app = app_by_name(name).expect("a Perfect application");
            for c in [Configuration::P16, Configuration::P32] {
                let cfg = SimConfig::cedar(c).with_tiebreak(tiebreak);
                let run = Experiment::new(app.shrunk(GOLDEN_SHRINK), cfg).run();
                let (policy, procs) = (tiebreak.to_string(), format!("{}p", c.total_ces()));
                text += &format!(
                    "{policy:<14} {name:<6} {procs:<4} fingerprint {:016x} events {}\n",
                    fingerprint(&run),
                    run.events
                );
            }
        }
    }
    golden::assert_matches(&golden_path("tiebreak_runs"), &text);
}
