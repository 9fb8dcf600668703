//! Unit coverage for [`cedar_trace::breakdown::from_lead_trace`] — the
//! off-line trace-driven breakdown reconstruction (§4: traces are
//! off-loaded and analysed off-line) — on hand-built event sequences.
//!
//! Each test lays out a tiny `cedarhpm` timeline by hand and asserts
//! exactly which Figure-4 bucket every span lands in, including the
//! tick→cycle conversion, the sdoall/xdoall pickup distinction, the
//! post-iteration `ClusterSync` attribution, and the lead-CE filter.

use cedar_hw::CeId;
use cedar_rtl::LoopKind;
use cedar_sim::{Cycles, HPM_TICKS_PER_CYCLE};
use cedar_trace::breakdown::from_lead_trace;
use cedar_trace::event::{TraceEvent, TraceEventId as Id};
use cedar_trace::UserBucket;

const LEAD: CeId = CeId(0);

/// Event on the lead CE at cycle `t` (converted to HPM ticks).
fn ev(id: Id, t: u64, arg: u32) -> TraceEvent {
    TraceEvent {
        id,
        at: Cycles(t).to_hpm_ticks(),
        ce: LEAD,
        arg,
    }
}

#[test]
fn serial_span_charges_serial_in_cycles_not_ticks() {
    let b = from_lead_trace(
        &[ev(Id::SerialStart, 0, 0), ev(Id::SerialEnd, 100, 0)],
        LEAD,
    );
    assert_eq!(b.get(UserBucket::Serial), Cycles(100));
    assert_eq!(b.total(), Cycles(100), "nothing else was charged");
    // Guard the scaling assumption the function divides by.
    const { assert!(HPM_TICKS_PER_CYCLE > 1, "ticks are finer than cycles") };
}

#[test]
fn pickup_bucket_follows_the_loop_kind_argument() {
    let sdoall = from_lead_trace(
        &[
            ev(Id::PickIterEnter, 0, LoopKind::Sdoall.code()),
            ev(Id::PickIterExit, 7, 0),
        ],
        LEAD,
    );
    assert_eq!(sdoall.get(UserBucket::PickupSdoall), Cycles(7));
    assert_eq!(sdoall.get(UserBucket::PickupXdoall), Cycles(0));

    let xdoall = from_lead_trace(
        &[
            ev(Id::PickIterEnter, 0, LoopKind::Xdoall.code()),
            ev(Id::PickIterExit, 7, 0),
        ],
        LEAD,
    );
    assert_eq!(xdoall.get(UserBucket::PickupXdoall), Cycles(7));
    assert_eq!(xdoall.get(UserBucket::PickupSdoall), Cycles(0));
}

#[test]
fn iteration_body_charges_iter_exec_and_the_gap_charges_cluster_sync() {
    // pick(2) → iter body(10) → 3-cycle gap to the next pick: the gap is
    // intra-cluster territory and must land in ClusterSync, not IterExec.
    let b = from_lead_trace(
        &[
            ev(Id::PickIterEnter, 0, LoopKind::Sdoall.code()),
            ev(Id::PickIterExit, 2, 0),
            ev(Id::IterStart, 2, LoopKind::Sdoall.code()),
            ev(Id::IterEnd, 12, 0),
            ev(Id::PickIterEnter, 15, LoopKind::Sdoall.code()),
            ev(Id::PickIterExit, 16, 0),
            ev(Id::ProgramEnd, 16, 0),
        ],
        LEAD,
    );
    assert_eq!(b.get(UserBucket::PickupSdoall), Cycles(3)); // 2 + 1
    assert_eq!(b.get(UserBucket::IterExec), Cycles(10));
    assert_eq!(b.get(UserBucket::ClusterSync), Cycles(3));
    assert_eq!(b.total(), Cycles(16), "the timeline partitions exactly");
}

#[test]
fn cluster_loop_iterations_stay_out_of_the_parallel_buckets() {
    // A cdoall/doacross body is main-cluster-only loop time (below the
    // line), never s(x)doall IterExec.
    for kind in [LoopKind::Cluster.code(), LoopKind::Doacross.code()] {
        let b = from_lead_trace(
            &[
                ev(Id::IterStart, 0, kind),
                ev(Id::IterEnd, 20, 0),
                ev(Id::ProgramEnd, 20, 0),
            ],
            LEAD,
        );
        assert_eq!(b.get(UserBucket::ClusterLoop), Cycles(20), "kind {kind}");
        assert_eq!(b.get(UserBucket::IterExec), Cycles(0), "kind {kind}");
    }
}

#[test]
fn barrier_and_helper_waits_are_parallelization_overhead() {
    let b = from_lead_trace(
        &[
            ev(Id::FinishBarrierEnter, 0, 0),
            ev(Id::FinishBarrierExit, 30, 0),
            ev(Id::WaitForWorkEnter, 30, 0),
            ev(Id::WaitForWorkExit, 50, 0),
        ],
        LEAD,
    );
    assert_eq!(b.get(UserBucket::BarrierWait), Cycles(30));
    assert_eq!(b.get(UserBucket::HelperWait), Cycles(20));
    assert_eq!(b.parallelization_overhead(), Cycles(50));
    assert_eq!(b.parallel_execution(), Cycles(0));
}

#[test]
fn loop_setup_span_is_charged_to_loop_setup() {
    let b = from_lead_trace(
        &[ev(Id::LoopSetupEnter, 5, 0), ev(Id::LoopSetupExit, 11, 0)],
        LEAD,
    );
    assert_eq!(b.get(UserBucket::LoopSetup), Cycles(6));
    assert!(UserBucket::LoopSetup.is_parallelization_overhead());
}

#[test]
fn other_ces_events_are_ignored() {
    let mut events = vec![ev(Id::SerialStart, 0, 0), ev(Id::SerialEnd, 40, 0)];
    // A noisy neighbour on CE 3: must not open/close lead spans.
    events.push(TraceEvent {
        id: Id::SerialEnd,
        at: Cycles(10).to_hpm_ticks(),
        ce: CeId(3),
        arg: 0,
    });
    events.push(TraceEvent {
        id: Id::FinishBarrierEnter,
        at: Cycles(20).to_hpm_ticks(),
        ce: CeId(3),
        arg: 0,
    });
    let b = from_lead_trace(&events, LEAD);
    assert_eq!(b.get(UserBucket::Serial), Cycles(40));
    assert_eq!(b.get(UserBucket::BarrierWait), Cycles(0));
    assert_eq!(b.total(), Cycles(40));
}

#[test]
fn program_end_closes_an_open_span() {
    let b = from_lead_trace(
        &[ev(Id::WaitForWorkEnter, 0, 0), ev(Id::ProgramEnd, 25, 0)],
        LEAD,
    );
    assert_eq!(b.get(UserBucket::HelperWait), Cycles(25));
}

#[test]
fn detach_and_join_open_helper_wait_spans() {
    // After detaching from a loop the helper busy-waits for work until
    // the next join; both transitions route through HelperWait.
    let b = from_lead_trace(
        &[
            ev(Id::IterStart, 0, LoopKind::Sdoall.code()),
            ev(Id::IterEnd, 10, 0),
            ev(Id::TaskDetach, 12, 0),
            ev(Id::HelperJoinLoop, 30, 0),
            ev(Id::PickIterEnter, 35, LoopKind::Sdoall.code()),
            ev(Id::PickIterExit, 36, 0),
            ev(Id::ProgramEnd, 36, 0),
        ],
        LEAD,
    );
    assert_eq!(b.get(UserBucket::IterExec), Cycles(10));
    assert_eq!(b.get(UserBucket::ClusterSync), Cycles(2)); // 10 → 12
                                                           // Detach opens a wait (12→30), join re-opens it (30→35).
    assert_eq!(b.get(UserBucket::HelperWait), Cycles(23));
    assert_eq!(b.get(UserBucket::PickupSdoall), Cycles(1));
    assert_eq!(b.total(), Cycles(36));
}

#[test]
fn an_empty_trace_yields_an_empty_breakdown() {
    let b = from_lead_trace(&[], LEAD);
    assert_eq!(b.total(), Cycles(0));
    for bucket in UserBucket::ALL {
        assert_eq!(b.get(bucket), Cycles(0), "{bucket:?}");
    }
}
