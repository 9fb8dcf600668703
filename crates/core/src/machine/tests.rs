//! Machine-level behaviour tests on small workloads.

use cedar_apps::{synthetic, AppBuilder, BodySpec};
use cedar_hw::Configuration;
use cedar_sim::Cycles;
use cedar_trace::qmon::ClusterUtilization;
use cedar_trace::UserBucket;
use cedar_xylem::accounting::Category;

use crate::config::SimConfig;
use crate::machine::Machine;
use crate::result::RunResult;

fn run(app: cedar_apps::AppSpec, c: Configuration) -> RunResult {
    Machine::new(&app, SimConfig::cedar(c)).run()
}

#[test]
fn serial_only_program_finishes_in_about_its_work() {
    let app = AppBuilder::new("S").serial(10_000).serial(5_000).build();
    let r = run(app, Configuration::P1);
    assert!(r.completion_time >= Cycles(15_000));
    // Overheads exist but must be modest on a serial program.
    assert!(
        r.completion_time < Cycles(25_000),
        "CT {} far above serial work",
        r.completion_time
    );
    assert!(r.main_breakdown().get(UserBucket::Serial) >= Cycles(15_000));
}

#[test]
fn cluster_loop_executes_all_bodies() {
    let app = AppBuilder::new("C")
        .cluster_loop(20, BodySpec::compute(100))
        .build();
    let r = run(app, Configuration::P8);
    assert_eq!(r.bodies, 20);
    assert!(r.main_breakdown().get(UserBucket::ClusterLoop) > Cycles::ZERO);
}

#[test]
fn sdoall_runs_on_one_cluster() {
    let app = synthetic::uniform_sdoall(1, 2, 4, 8, 200, 0);
    let r = run(app, Configuration::P8);
    assert_eq!(r.bodies, 2 * 4 * 8);
    assert!(r.main_breakdown().get(UserBucket::IterExec) > Cycles::ZERO);
}

#[test]
fn sdoall_spreads_across_clusters() {
    let app = synthetic::uniform_sdoall(1, 1, 8, 8, 500, 0);
    let r = run(app, Configuration::P32);
    assert_eq!(r.bodies, 8 * 8);
    // Helpers must have joined and executed iterations.
    let helper_work: u64 = r
        .helper_breakdowns()
        .iter()
        .map(|b| b.get(UserBucket::IterExec).0)
        .sum();
    assert!(helper_work > 0, "helpers never executed loop bodies");
}

#[test]
fn xdoall_executes_exactly_once_per_iteration() {
    let app = synthetic::uniform_xdoall(2, 3, 32, 300, 0);
    let r = run(app, Configuration::P32);
    assert_eq!(r.bodies, 2 * 3 * 32, "every iteration exactly once");
}

#[test]
fn xdoall_pickup_shows_up_as_overhead() {
    let app = synthetic::uniform_xdoall(1, 2, 64, 400, 0);
    let r = run(app, Configuration::P32);
    assert!(r.main_breakdown().get(UserBucket::PickupXdoall) > Cycles::ZERO);
}

#[test]
fn multiprocessor_runs_are_faster() {
    let app = || synthetic::uniform_sdoall(2, 2, 8, 16, 400, 8);
    let r1 = run(app(), Configuration::P1);
    let r8 = run(app(), Configuration::P8);
    let r32 = run(app(), Configuration::P32);
    assert!(r8.completion_time < r1.completion_time);
    assert!(r32.completion_time < r8.completion_time);
    let s8 = r8.speedup_over(&r1);
    assert!(s8 > 3.0, "8-processor speedup {s8} too low");
}

#[test]
fn concurrency_tracks_processors() {
    let app = || synthetic::uniform_sdoall(2, 2, 8, 16, 400, 0);
    let r1 = run(app(), Configuration::P1);
    let r8 = run(app(), Configuration::P8);
    assert!(r1.total_concurrency() <= 1.01);
    assert!(r8.total_concurrency() > 2.0);
    assert!(r8.total_concurrency() <= 8.01);
}

#[test]
fn speedup_is_below_concurrency() {
    // §3.1 result (2): part of active processors' time goes to overhead.
    let app = || synthetic::uniform_sdoall(2, 4, 8, 16, 300, 8);
    let r1 = run(app(), Configuration::P1);
    let r32 = run(app(), Configuration::P32);
    assert!(r32.speedup_over(&r1) < r32.total_concurrency());
}

#[test]
fn page_faults_occur_and_split_by_class() {
    let app = synthetic::streaming(1, 4, 8, 32);
    let r = run(app, Configuration::P8);
    let (seq, conc) = r.faults;
    assert!(seq > 0, "first touches must fault");
    // Parallel sweeps of a fresh array produce concurrent faults too.
    assert!(seq + conc > 4);
}

#[test]
fn machine_internal_accounting_helpers_agree() {
    let app = synthetic::uniform_sdoall(1, 1, 4, 8, 200, 4);
    let mut m = Machine::new(&app, SimConfig::cedar(Configuration::P4));
    assert_eq!(m.os_wall(0), Cycles::ZERO);
    m.charge_os(0, cedar_xylem::OsActivity::Ctx, Cycles(100));
    m.charge_os(0, cedar_xylem::OsActivity::Cpi, Cycles(40));
    assert_eq!(m.os_wall(0), Cycles(140));
    assert_eq!(m.category_total(Category::System), Cycles(100));
    assert_eq!(m.category_total(Category::Interrupt), Cycles(40));
}

#[test]
fn utilization_is_consistent_with_os_accounting() {
    let app = synthetic::uniform_sdoall(4, 2, 8, 16, 300, 8);
    let r = run(app, Configuration::P8);
    // Figure 3's categories are sums of the Table 2 ledger's activities.
    let sum =
        |f: fn(&ClusterUtilization) -> Cycles| -> Cycles { r.utilization.iter().map(f).sum() };
    assert_eq!(r.os.category_total(Category::System), sum(|u| u.system));
    assert_eq!(
        r.os.category_total(Category::Interrupt),
        sum(|u| u.interrupt)
    );
    assert_eq!(r.os.category_total(Category::Spin), sum(|u| u.spin));
    assert_eq!(r.os.os_total(), sum(ClusterUtilization::os_total));
    assert!(r.os.os_total() > Cycles::ZERO, "daemons must have fired");
}

#[test]
fn os_overhead_stays_below_completion_time() {
    let app = synthetic::uniform_sdoall(4, 2, 8, 16, 300, 8);
    let r = run(app, Configuration::P32);
    for u in &r.utilization {
        assert!(u.os_total() < r.completion_time);
    }
    // And user() does not panic:
    let _ = r.os_category_fraction(Category::User);
}

#[test]
fn deterministic_across_identical_runs() {
    let app = || synthetic::uniform_xdoall(1, 2, 32, 300, 8);
    let a = run(app(), Configuration::P16);
    let b = run(app(), Configuration::P16);
    assert_eq!(a.completion_time, b.completion_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn trace_can_be_kept_and_pairs_iterations() {
    let app = synthetic::uniform_sdoall(1, 1, 2, 4, 100, 0);
    let r = Machine::new(&app, SimConfig::cedar(Configuration::P4).with_trace()).run();
    let trace = r.trace.as_ref().expect("trace kept");
    let starts = trace
        .iter()
        .filter(|e| e.id == cedar_trace::TraceEventId::IterStart)
        .count();
    let ends = trace
        .iter()
        .filter(|e| e.id == cedar_trace::TraceEventId::IterEnd)
        .count();
    assert_eq!(starts, 8);
    assert_eq!(ends, 8);
}

#[test]
fn helper_wait_dominates_when_main_is_serial() {
    // A mostly-serial program: helpers spin the whole time (§6's
    // helper_wait explanation).
    let app = AppBuilder::new("SER")
        .serial(50_000)
        .xdoall(16, BodySpec::compute(100))
        .serial(50_000)
        .build();
    let r = run(app, Configuration::P16);
    let helper = &r.helper_breakdowns()[0];
    let wait_frac = helper
        .get(UserBucket::HelperWait)
        .fraction_of(r.completion_time);
    assert!(
        wait_frac > 0.7,
        "helper wait fraction {wait_frac} should dominate a serial program"
    );
}

#[test]
fn doacross_executes_all_bodies_in_serialized_order() {
    let app = synthetic::doacross_pipeline(2, 16, 100, 200);
    let r = Machine::new(&app, SimConfig::cedar(Configuration::P8).with_trace()).run();
    assert_eq!(r.bodies, 2 * 16);
    // The serialized regions bound the completion time from below...
    assert!(
        r.completion_time >= Cycles(2 * 16 * 200),
        "serialized regions must serialize: CT {}",
        r.completion_time
    );
    // ...but the parallel bodies overlap, so it beats full serialization
    // of body + region + protocol.
    let trace = r.trace.as_ref().unwrap();
    let ends: Vec<_> = trace
        .iter()
        .filter(|e| e.id == cedar_trace::TraceEventId::IterEnd)
        .collect();
    assert_eq!(ends.len(), 32);
}

#[test]
fn doacross_region_time_lands_in_cluster_loop_bucket() {
    let app = synthetic::doacross_pipeline(1, 8, 100, 300);
    let r = run(app, Configuration::P4);
    assert!(
        r.main_breakdown().get(UserBucket::ClusterLoop) >= Cycles(8 * 300 / 2),
        "doacross time charges to the cluster-loop bucket"
    );
}

#[test]
fn doacross_parallel_bodies_beat_one_processor() {
    let app = || synthetic::doacross_pipeline(2, 16, 2_000, 100);
    let r1 = run(app(), Configuration::P1);
    let r8 = run(app(), Configuration::P8);
    assert!(
        r8.completion_time.0 * 2 < r1.completion_time.0,
        "parallel parts must overlap: {} vs {}",
        r8.completion_time,
        r1.completion_time
    );
}

#[test]
fn hotspot_workload_contends_on_the_lock_module() {
    let app = synthetic::hotspot(1, 256);
    let r = run(app, Configuration::P32);
    let max_sync = r.gmem.module_sync_requests.iter().max().copied().unwrap();
    let total_sync: u64 = r.gmem.module_sync_requests.iter().sum();
    assert!(
        max_sync as f64 > total_sync as f64 * 0.4,
        "sync traffic should concentrate on the lock's module"
    );
    assert!(r.gmem.total_queued() > Cycles::ZERO);
}

#[test]
fn background_load_stretches_completion_time() {
    use cedar_xylem::BackgroundLoad;
    let app = || synthetic::uniform_sdoall(4, 2, 8, 16, 400, 4);
    let dedicated = run(app(), Configuration::P8);
    let loaded = Machine::new(
        &app(),
        SimConfig::cedar(Configuration::P8).with_background(BackgroundLoad::heavy()),
    )
    .run();
    assert_eq!(dedicated.background_stolen, Cycles::ZERO);
    assert!(loaded.background_stolen > Cycles::ZERO);
    assert!(
        loaded.completion_time.0 as f64 > dedicated.completion_time.0 as f64 * 1.2,
        "heavy load must stretch CT: {} vs {}",
        loaded.completion_time,
        dedicated.completion_time
    );
    // Same work still executes exactly once.
    assert_eq!(loaded.bodies, dedicated.bodies);
}

#[test]
fn xdoall_works_on_one_processor() {
    let app = synthetic::uniform_xdoall(1, 2, 12, 200, 4);
    let r = run(app, Configuration::P1);
    assert_eq!(r.bodies, 24);
    assert!(r.total_concurrency() <= 1.0 + 1e-9);
}

#[test]
fn sdoall_with_fewer_chunks_than_clusters() {
    // Two outer chunks on a 4-cluster machine: two clusters do the work,
    // the late-joining others discover exhaustion and detach cleanly.
    let app = synthetic::uniform_sdoall(1, 1, 2, 8, 800, 0);
    let r = run(app, Configuration::P32);
    assert_eq!(r.bodies, 16);
}

#[test]
fn single_iteration_loops_round_trip() {
    let app = synthetic::uniform_xdoall(1, 4, 1, 500, 4);
    let r = run(app, Configuration::P16);
    assert_eq!(r.bodies, 4);
}

#[test]
fn serial_only_program_terminates_helpers_on_multicluster() {
    let app = AppBuilder::new("SER32").serial(30_000).build();
    let r = run(app, Configuration::P32);
    assert_eq!(r.bodies, 0);
    // Every helper spent essentially its whole life waiting for work.
    for h in r.helper_breakdowns() {
        let wait = h.get(UserBucket::HelperWait).fraction_of(r.completion_time);
        assert!(wait > 0.8, "helper wait {wait}");
    }
}

#[test]
fn many_tiny_loops_reuse_the_rtl_words_safely() {
    // 30 back-to-back two-iteration loops: the activity word, index and
    // joined counter are reset/reused every time without double or lost
    // executions.
    let app = synthetic::uniform_xdoall(30, 1, 2, 300, 0);
    let r = run(app, Configuration::P16);
    assert_eq!(r.bodies, 60);
}

#[test]
fn alternating_constructs_in_one_program() {
    let app = AppBuilder::new("MIX")
        .array("a", 128 * 1024)
        .serial(2_000)
        .sdoall(4, 8, BodySpec::compute(300))
        .xdoall(16, BodySpec::compute(300))
        .cluster_loop(8, BodySpec::compute(200))
        .doacross(6, BodySpec::compute(200), 100)
        .build();
    let r = run(app, Configuration::P16);
    assert_eq!(r.bodies, 32 + 16 + 8 + 6);
}

#[test]
fn seed_changes_jitter_but_not_coverage() {
    // Bodies carry 15% jitter, so different seeds must produce different
    // (but equally complete) runs.
    let app = || {
        AppBuilder::new("JIT")
            .array("a", 128 * 1024)
            .sdoall(8, 16, BodySpec::compute(400).with_jitter(15))
            .build()
    };
    let a = Machine::new(&app(), SimConfig::cedar(Configuration::P8).with_seed(1)).run();
    let b = Machine::new(&app(), SimConfig::cedar(Configuration::P8).with_seed(2)).run();
    assert_eq!(a.bodies, b.bodies, "coverage is seed-independent");
    assert_ne!(
        a.completion_time, b.completion_time,
        "jitter must vary with the seed"
    );
}

#[test]
fn fault_events_count_under_their_own_class() {
    use cedar_faults::{FaultPlan, InterruptStorm};

    let app = || synthetic::uniform_sdoall(2, 2, 8, 16, 400, 0);
    let plan = FaultPlan::default().with_interrupt_storm(InterruptStorm {
        mean_interval: Cycles(20_000),
        burst: 2,
    });
    let base = run(app(), Configuration::P4);
    let faulted = Machine::new(
        &app(),
        SimConfig::cedar(Configuration::P4).with_faults(plan),
    )
    .run();

    // Injected occurrences ride a distinct event class — never folded
    // into the organic counts.
    assert_eq!(base.stats.counters.get("events.fault"), 0);
    let fault_events = faulted.stats.counters.get("events.fault");
    assert!(fault_events > 0, "armed plan must fire fault events");
    assert_eq!(
        fault_events,
        faulted.stats.counters.get("faults.occ.storm"),
        "event class and occurrence counter agree"
    );
    // The storm charges only the CPI bucket's primitives; its injected
    // cost is recorded.
    assert!(faulted.stats.counters.get("faults.injected.cpi") > 0);
    assert_eq!(faulted.stats.counters.get("faults.injected.ast"), 0);
    // Empty plans carry no fault counters at all.
    assert_eq!(base.stats.counters.get("faults.occ.storm"), 0);
    assert!(!base
        .stats
        .counters
        .iter()
        .any(|(name, _)| name.starts_with("faults.")));
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let app = || synthetic::uniform_sdoall(2, 2, 8, 16, 400, 8);
    let base = run(app(), Configuration::P8);
    let with_default_plan = Machine::new(
        &app(),
        SimConfig::cedar(Configuration::P8).with_faults(cedar_faults::FaultPlan::default()),
    )
    .run();
    assert_eq!(base.completion_time, with_default_plan.completion_time);
    assert_eq!(base.events, with_default_plan.events);
    assert_eq!(
        base.stats.counters.iter().collect::<Vec<_>>(),
        with_default_plan.stats.counters.iter().collect::<Vec<_>>()
    );
}

#[test]
fn injected_page_faults_stay_out_of_organic_vm_counts() {
    use cedar_faults::{FaultPlan, PageFaultWave};

    let app = || synthetic::uniform_sdoall(1, 2, 8, 16, 400, 4);
    let plan = FaultPlan::default().with_page_fault_wave(PageFaultWave {
        mean_interval: Cycles(15_000),
        faults_per_wave: 4,
        concurrent_pct: 50,
        seq_cost: Cycles(700),
        conc_cost: Cycles(1_100),
    });
    let base = run(app(), Configuration::P4);
    let faulted = Machine::new(
        &app(),
        SimConfig::cedar(Configuration::P4).with_faults(plan),
    )
    .run();
    // RunResult.faults reports organic demand faults only.
    assert_eq!(base.faults, faulted.faults);
    let injected = faulted.stats.counters.get("faults.count.pgflt_seq")
        + faulted.stats.counters.get("faults.count.pgflt_conc");
    assert!(injected > 0, "waves must inject faults");
}
