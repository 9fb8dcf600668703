//! Fault-campaign determinism: an identical `FaultPlan` (same seed,
//! same classes) must produce byte-identical measurements regardless of
//! which event scheduler backs the queue and how many worker threads
//! fan the campaign grid.
//!
//! The guarantee rests on the driver's stream discipline: one
//! `SplitMix64` per `(class, cluster)` pair, all derived from the
//! plan's own seed, so occurrence times never depend on event
//! interleaving or on the machine's master RNG. This suite would catch
//! any accidental coupling — e.g. drawing fault jitter from the
//! machine RNG, or letting pop order leak into wave shapes.
//!
//! The comparison uses [`cedar::check::fingerprint_text`], the filter
//! the parity oracles use: every measurement the cached run encoding
//! carries, minus host wall-clock and the `queue.*`/`outbox.*`
//! telemetry counters, which describe the host-side machinery (hold
//! histograms, wheel peaks) and legitimately differ between scheduler
//! implementations.

use cedar::apps::perfect_suite;
use cedar::check::fingerprint_text;
use cedar::core::suite::SuiteResult;
use cedar::faults::FaultPlan;
use cedar::hw::Configuration;
use cedar::obs::RunOptions;
use cedar::sim::SchedKind;

const SHRINK: u32 = 16;
const CONFIGS: [Configuration; 2] = [Configuration::P8, Configuration::P32];

fn fingerprint_suite(suite: &SuiteResult) -> String {
    suite
        .apps
        .iter()
        .flat_map(|a| a.runs.iter())
        .map(fingerprint_text)
        .collect::<Vec<_>>()
        .join("\n")
}

fn campaign(opts: &RunOptions) -> SuiteResult {
    let apps: Vec<_> = perfect_suite()
        .into_iter()
        .filter(|a| a.name == "FLO52" || a.name == "MDG")
        .map(|a| a.shrunk(SHRINK))
        .collect();
    SuiteResult::run_parallel(&apps, &CONFIGS, opts).expect("campaign experiment panicked")
}

#[test]
fn fault_campaign_is_scheduler_independent() {
    let plan = FaultPlan::canonical();
    let calendar = campaign(
        &RunOptions::default()
            .with_scheduler(SchedKind::Calendar)
            .with_faults(plan),
    );
    let heap = campaign(
        &RunOptions::default()
            .with_scheduler(SchedKind::Heap)
            .with_faults(plan),
    );
    assert_eq!(
        fingerprint_suite(&calendar),
        fingerprint_suite(&heap),
        "heap and calendar schedulers must agree on every faulted measurement"
    );
}

#[test]
fn fault_campaign_is_worker_count_independent() {
    let plan = FaultPlan::canonical();
    let apps: Vec<_> = perfect_suite()
        .into_iter()
        .filter(|a| a.name == "FLO52" || a.name == "MDG")
        .map(|a| a.shrunk(SHRINK))
        .collect();
    let opts1 = RunOptions::default().with_faults(plan).with_workers(1);
    let optsn = RunOptions::default().with_faults(plan).with_workers(3);
    let sequential =
        SuiteResult::run_sequential(&apps, &CONFIGS, &opts1).expect("sequential campaign");
    let one = SuiteResult::run_parallel(&apps, &CONFIGS, &opts1).expect("1-worker campaign");
    let three = SuiteResult::run_parallel(&apps, &CONFIGS, &optsn).expect("3-worker campaign");
    let want = fingerprint_suite(&sequential);
    assert_eq!(want, fingerprint_suite(&one), "sequential vs 1 worker");
    assert_eq!(want, fingerprint_suite(&three), "sequential vs 3 workers");
}

#[test]
fn fault_seed_and_plan_change_the_measurements() {
    let apps: Vec<_> = perfect_suite()
        .into_iter()
        .filter(|a| a.name == "FLO52")
        .map(|a| a.shrunk(SHRINK))
        .collect();
    let configs = [Configuration::P32];
    let base = SuiteResult::run_sequential(
        &apps,
        &configs,
        &RunOptions::default().with_faults(FaultPlan::canonical()),
    )
    .expect("faulted campaign");
    let reseeded = SuiteResult::run_sequential(
        &apps,
        &configs,
        &RunOptions::default().with_faults(FaultPlan::canonical().with_seed(99)),
    )
    .expect("reseeded campaign");
    let clean = SuiteResult::run_sequential(&apps, &configs, &RunOptions::default())
        .expect("clean campaign");
    let ct = |s: &SuiteResult| s.apps[0].runs[0].completion_time;
    assert_ne!(
        ct(&base),
        ct(&clean),
        "the canonical plan must perturb the run"
    );
    assert_ne!(ct(&base), ct(&reseeded), "the fault seed must matter");
    assert!(ct(&base) > ct(&clean), "faults cannot speed the machine up");
}
