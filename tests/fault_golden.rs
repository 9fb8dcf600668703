//! Golden snapshots of the fault-injection subsystem.
//!
//! `fault_report` renders [`tables::fault_report`] for FLO52 at 8
//! processors under the canonical fault campaign (level 1 of
//! [`FaultPlan::canonical_at`]) against its unperturbed twin, and
//! compares byte-for-byte with the committed snapshot. Together with
//! `tests/golden.rs` (whose snapshots are recorded with *no* plan and
//! must stay untouched by this subsystem) this pins both sides of the
//! empty-plan contract: an empty plan changes nothing, the canonical
//! plan changes exactly the recorded numbers. `fault_runs` pins every
//! other plan the code builds, and both background presets.
//!
//! Re-record after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test fault_golden
//! ```

use std::path::PathBuf;

use cedar::apps::app_by_name;
use cedar::check::{conservation, fingerprint};
use cedar::core::{Experiment, SimConfig};
use cedar::faults::{FaultKind, FaultPlan};
use cedar::hw::Configuration;
use cedar::report::{golden, tables};
use cedar::xylem::BackgroundLoad;

/// Must match `GOLDEN_SHRINK` in `tests/golden.rs`.
const GOLDEN_SHRINK: u32 = 16;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn fault_report_matches_golden() {
    let app = cedar::apps::perfect_suite()
        .into_iter()
        .find(|a| a.name == "FLO52")
        .expect("FLO52 in the perfect suite")
        .shrunk(GOLDEN_SHRINK);
    let cfg = SimConfig::cedar(Configuration::P8);
    let base = Experiment::new(app.clone(), cfg.clone()).run();
    let faulted = Experiment::new(app, cfg.with_faults(FaultPlan::canonical_at(1))).run();
    golden::assert_matches(
        &golden_path("fault_report"),
        &tables::fault_report(&base, &faulted),
    );
}

/// Every fault plan and background load the code builds, pinned through
/// what it decides: the measurement fingerprint, the event count and
/// the fault-event count of ADM and MDG at 8 and 32 processors under
/// each canonical level and each class alone at level 2, and MDG at 32
/// processors under each background preset. Every run also conserves
/// (`cedar_check::conservation`).
#[test]
fn fault_plan_runs_match_golden() {
    let classes = [
        ("storm", FaultKind::InterruptStorm),
        ("ast", FaultKind::AstBurst),
        ("wave", FaultKind::PageFaultWave),
        ("lock", FaultKind::LockInflation),
        ("network", FaultKind::DegradedNetwork),
        ("stall", FaultKind::HelperStall),
    ];
    let mut plans: Vec<(String, FaultPlan)> = (1..=4)
        .map(|level| (format!("level {level}"), FaultPlan::canonical_at(level)))
        .collect();
    plans.extend(
        classes.map(|(class, kind)| (format!("{class} 2"), FaultPlan::canonical_at(2).only(kind))),
    );

    let mut cells: Vec<(String, &str, SimConfig)> = Vec::new();
    for (plan_name, plan) in &plans {
        for name in ["ADM", "MDG"] {
            for c in [Configuration::P8, Configuration::P32] {
                let cfg = SimConfig::cedar(c).with_faults(*plan);
                cells.push((plan_name.clone(), name, cfg));
            }
        }
    }
    for (load_name, load) in [
        ("light", BackgroundLoad::light()),
        ("heavy", BackgroundLoad::heavy()),
    ] {
        let cfg = SimConfig::cedar(Configuration::P32).with_background(load);
        cells.push((format!("background {load_name}"), "MDG", cfg));
    }

    let mut text =
        String::from("# cedar_check::fingerprint, events and events.fault, 1/16 scale\n");
    for (plan_name, name, cfg) in cells {
        let app = app_by_name(name).expect("a Perfect application");
        let app = app.shrunk(GOLDEN_SHRINK);
        let procs = format!("{}p", cfg.configuration().total_ces());
        let bodies = app.total_bodies();
        let run = Experiment::new(app, cfg).run();
        let broken = conservation(&run, bodies);
        assert!(broken.is_empty(), "{plan_name} {name} {procs}: {broken:?}");
        text += &format!(
            "{plan_name:<18} {name:<4} {procs:<4} fingerprint {:016x} events {} events.fault {}\n",
            fingerprint(&run),
            run.events,
            run.stats.counters.get("events.fault"),
        );
    }
    golden::assert_matches(&golden_path("fault_runs"), &text);
}
