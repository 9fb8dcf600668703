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

use cedar::core::suite::SuiteResult;
use cedar::obs::RunOptions;
use cedar::report::{figures, golden, tables};

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
