//! Cross-checks of the measurement methodology: the trace-driven
//! analysis must agree with the machine's direct accounting, and the §7
//! estimators must behave sensibly at their boundary cases.

use cedar::apps::{synthetic, AppBuilder};
use cedar::core::methodology::{contention_overhead, parallel_loop_concurrency};
use cedar::core::{Experiment, SimConfig};
use cedar::hw::Configuration;
use cedar::trace::{pair_intervals, TraceEventId, UserBucket};
use cedar_sim::Cycles;

#[test]
fn trace_iteration_count_matches_bodies_executed() {
    let app = synthetic::uniform_sdoall(2, 2, 6, 8, 300, 4);
    let expected = app.total_bodies();
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P8).with_trace()).run();
    let trace = run.trace.as_ref().unwrap();
    let starts = trace
        .iter()
        .filter(|e| e.id == TraceEventId::IterStart)
        .count() as u64;
    let ends = trace
        .iter()
        .filter(|e| e.id == TraceEventId::IterEnd)
        .count() as u64;
    assert_eq!(starts, expected);
    assert_eq!(ends, expected);
    assert_eq!(run.bodies, expected);
}

#[test]
fn trace_derived_barrier_time_matches_charged_bucket() {
    let app = synthetic::uniform_sdoall(2, 3, 8, 8, 400, 4);
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P16).with_trace()).run();
    let trace = run.trace.as_ref().unwrap();
    let intervals = pair_intervals(
        trace,
        TraceEventId::FinishBarrierEnter,
        TraceEventId::FinishBarrierExit,
    );
    let from_trace: Cycles = intervals.iter().map(|i| i.duration()).sum();
    let charged = run.main_breakdown().get(UserBucket::BarrierWait);
    // The charged bucket excludes OS overlap, so it can only be smaller,
    // and only slightly.
    assert!(charged <= from_trace);
    let diff = (from_trace - charged).0 as f64;
    assert!(
        diff <= from_trace.0 as f64 * 0.25 + 1000.0,
        "trace {} vs charged {} diverge",
        from_trace,
        charged
    );
}

#[test]
fn serial_sections_pair_up_in_the_trace() {
    let app = AppBuilder::new("S").serial(5_000).serial(7_000).build();
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P1).with_trace()).run();
    let trace = run.trace.as_ref().unwrap();
    let serials = pair_intervals(trace, TraceEventId::SerialStart, TraceEventId::SerialEnd);
    assert_eq!(serials.len(), 2);
    let total: Cycles = serials.iter().map(|i| i.duration()).sum();
    assert!(total >= Cycles(12_000));
}

#[test]
fn compute_only_app_shows_negligible_contention() {
    // No global-memory traffic in bodies: the contention estimate must
    // be close to zero (only protocol words flow).
    let app = synthetic::uniform_sdoall(2, 2, 8, 16, 500, 0);
    let base = Experiment::new(app.clone(), SimConfig::cedar(Configuration::P1)).run();
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P8)).run();
    let est = contention_overhead(&base, &run);
    assert!(
        est.overhead_pct.abs() < 8.0,
        "compute-only contention {} should be small",
        est.overhead_pct
    );
}

#[test]
fn streaming_app_shows_substantial_contention() {
    let app = synthetic::streaming(2, 8, 16, 32);
    let base = Experiment::new(app.clone(), SimConfig::cedar(Configuration::P1)).run();
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P32)).run();
    let est = contention_overhead(&base, &run);
    assert!(
        est.overhead_pct > 10.0,
        "pure streaming at 32p must contend, got {}",
        est.overhead_pct
    );
    assert!(run.gmem.total_queued() > Cycles::ZERO);
}

#[test]
fn module_conflict_stride_is_worse_than_unit_stride() {
    // The interleaving pathology: stride-32 accesses hit one module.
    let unit = synthetic::streaming(1, 4, 8, 16);
    let conflict = synthetic::module_conflict(1, 4, 8, 16);
    let u = Experiment::new(unit, SimConfig::cedar(Configuration::P8)).run();
    let c = Experiment::new(conflict, SimConfig::cedar(Configuration::P8)).run();
    assert!(
        c.gmem.mean_queued_per_packet() > u.gmem.mean_queued_per_packet(),
        "module-conflict stride must queue more per packet"
    );
}

#[test]
fn parallel_fraction_counts_xdoall_pickup() {
    // Footnote 4: xdoall pickup is a parallel activity.
    let app = synthetic::uniform_xdoall(2, 2, 32, 400, 4);
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P16)).run();
    let cc = parallel_loop_concurrency(&run);
    let b = run.main_breakdown();
    let pickup = b.get(UserBucket::PickupXdoall);
    assert!(pickup > Cycles::ZERO);
    let pf_with = cc[0].pf;
    let pf_without = (b.parallel_execution() - pickup).fraction_of(run.completion_time);
    assert!(pf_with > pf_without);
}

#[test]
fn one_processor_run_has_unit_concurrency_and_no_helpers() {
    let app = synthetic::uniform_sdoall(1, 1, 4, 4, 200, 2);
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P1)).run();
    assert!(run.total_concurrency() <= 1.0 + 1e-9);
    assert!(run.helper_breakdowns().is_empty());
    assert_eq!(run.concurrency.len(), 1);
}

#[test]
fn faults_fall_on_first_touch_only() {
    // Two identical passes over the same array: pass 2 adds no faults.
    let one_pass = synthetic::streaming(1, 4, 8, 16);
    let two_pass = synthetic::streaming(2, 4, 8, 16);
    let r1 = Experiment::new(one_pass, SimConfig::cedar(Configuration::P8)).run();
    let r2 = Experiment::new(two_pass, SimConfig::cedar(Configuration::P8)).run();
    let f1 = r1.faults.0 + r1.faults.1;
    let f2 = r2.faults.0 + r2.faults.1;
    assert_eq!(f1, f2, "second pass must be fault-free (demand paging)");
}

#[test]
fn trace_reconstruction_approximates_charged_breakdown() {
    // The paper derives Figures 5-9 from the off-loaded trace; the
    // simulator charges the same buckets directly. The lead CE's paired
    // enter/exit intervals must agree with the charged buckets on the big
    // buckets within a tolerance (an interval also holds the OS stalls
    // that landed in it).
    use cedar::hw::CeId;
    use TraceEventId as Id;
    let app = synthetic::uniform_sdoall(2, 2, 8, 16, 500, 8);
    let run = Experiment::new(app, SimConfig::cedar(Configuration::P8).with_trace()).run();
    let trace = run.trace.as_ref().unwrap();
    let lead_time = |enter, exit| {
        let intervals = pair_intervals(trace, enter, exit);
        let lead = intervals.iter().filter(|i| i.ce == CeId(0));
        lead.map(|i| i.duration().0).sum::<u64>() as f64
    };
    let charged = run.main_breakdown();
    for (bucket, enter, exit) in [
        (UserBucket::Serial, Id::SerialStart, Id::SerialEnd),
        (
            UserBucket::BarrierWait,
            Id::FinishBarrierEnter,
            Id::FinishBarrierExit,
        ),
        (UserBucket::LoopSetup, Id::LoopSetupEnter, Id::LoopSetupExit),
    ] {
        let a = lead_time(enter, exit);
        let b = charged.get(bucket).0 as f64;
        let tol = (b * 0.3).max(2_000.0);
        assert!((a - b).abs() <= tol, "{bucket:?}: trace {a} vs charged {b}");
    }
    // Loop-execution time: the charged view splits a body's tail into
    // intra-cluster sync, so compare the aggregate of bodies and pickups.
    let a = lead_time(Id::IterStart, Id::IterEnd) + lead_time(Id::PickIterEnter, Id::PickIterExit);
    let b = charged.parallel_execution().0 as f64 + charged.get(UserBucket::PickupSdoall).0 as f64;
    assert!(
        (a - b).abs() <= b * 0.25 + 2_000.0,
        "aggregate loop time: trace {a} vs charged {b}"
    );
}
