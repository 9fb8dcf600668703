//! Fault-campaign determinism: an identical `FaultPlan` (same level,
//! same classes) must produce byte-identical measurements regardless of
//! how many worker threads fan the campaign grid.
//!
//! The guarantee rests on the driver's stream discipline: one
//! `SplitMix64` per `(class, cluster)` pair, all derived from one fixed
//! seed, so occurrence times never depend on event interleaving or on
//! the machine's master RNG. This suite would catch
//! any accidental coupling — e.g. drawing fault jitter from the
//! machine RNG, or letting pop order leak into wave shapes.
//!
//! The comparison is [`cedar::check::same_campaign`], the law the
//! parity oracles use: every line of every run's record but host
//! wall-clock, the `queue.*` work counts included.

use cedar::apps::perfect_suite;
use cedar::check::same_campaign;
use cedar::core::suite::SuiteResult;
use cedar::core::SimConfig;
use cedar::faults::FaultPlan;
use cedar::hw::Configuration;
use cedar::obs::RunOptions;

const SHRINK: u32 = 16;
const CONFIGS: [Configuration; 2] = [Configuration::P8, Configuration::P32];

#[test]
fn fault_campaign_is_worker_count_independent() {
    let plan = FaultPlan::canonical_at(1);
    let apps: Vec<_> = perfect_suite()
        .into_iter()
        .filter(|a| a.name == "FLO52" || a.name == "MDG")
        .map(|a| a.shrunk(SHRINK))
        .collect();
    let configs = CONFIGS.map(|c| SimConfig::cedar(c).with_faults(plan));
    let opts1 = RunOptions::default().with_workers(1);
    let optsn = RunOptions::default().with_workers(3);
    let sequential =
        SuiteResult::run_sequential(&apps, &configs, &opts1).expect("sequential campaign");
    let one = SuiteResult::run_parallel(&apps, &configs, &opts1).expect("1-worker campaign");
    let three = SuiteResult::run_parallel(&apps, &configs, &optsn).expect("3-worker campaign");
    for (pooled, workers) in [(&one, 1), (&three, 3)] {
        let broken = same_campaign(&sequential, pooled);
        assert!(
            broken.is_empty(),
            "sequential vs {workers} workers: {broken:#?}"
        );
    }
}

#[test]
fn fault_seed_and_plan_change_the_measurements() {
    let apps: Vec<_> = perfect_suite()
        .into_iter()
        .filter(|a| a.name == "FLO52")
        .map(|a| a.shrunk(SHRINK))
        .collect();
    let opts = RunOptions::default();
    let campaign = |plan: FaultPlan| {
        let configs = [SimConfig::cedar(Configuration::P32).with_faults(plan)];
        SuiteResult::run_sequential(&apps, &configs, &opts).expect("campaign")
    };
    let base = campaign(FaultPlan::canonical_at(1));
    let harder = campaign(FaultPlan::canonical_at(2));
    let clean = campaign(FaultPlan::default());
    let ct = |s: &SuiteResult| s.apps[0].runs[0].completion_time;
    assert_ne!(
        ct(&base),
        ct(&clean),
        "the canonical plan must perturb the run"
    );
    assert_ne!(ct(&base), ct(&harder), "the fault level must matter");
    assert!(ct(&base) > ct(&clean), "faults cannot speed the machine up");
}
