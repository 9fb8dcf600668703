//! Instrumentation points and trace records.
//!
//! §4 lists the events inserted into the Cedar Fortran runtime library
//! and the Xylem OS. Each recorded event carries the event id, a
//! timestamp (50 ns resolution) and the id of the processor it occurred
//! on — exactly the `cedarhpm` record format — plus a small argument word
//! the analysis uses to distinguish loop constructs.

use cedar_hw::CeId;
use cedar_sim::HpmTicks;

/// Identifies an instrumentation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventId {
    // ---- runtime-library events (§4 items a–f of the RTL list) ----
    /// Main task encounters an `s(x)doall` loop (arg = `LoopKind::code`).
    MainEncounterLoop,
    /// A helper task joins in the execution of an `s(x)doall` loop.
    HelperJoinLoop,
    /// Entry to the pick-next-iteration routine (arg = `LoopKind::code`).
    PickIterEnter,
    /// Exit from the pick-next-iteration routine.
    PickIterExit,
    /// Start of one `s(x)doall` iteration body.
    IterStart,
    /// End of one `s(x)doall` iteration body.
    IterEnd,
    /// Main task enters the `s(x)doall` finish barrier.
    FinishBarrierEnter,
    /// Main task leaves the finish barrier (all helpers detached).
    FinishBarrierExit,
    /// Helper task enters its wait-for-work spin.
    WaitForWorkEnter,
    /// Helper task leaves wait-for-work (saw new parallel loop work).
    WaitForWorkExit,
    /// Entry to parallel-loop parameter setup.
    LoopSetupEnter,
    /// Exit from parallel-loop parameter setup.
    LoopSetupExit,
    /// A task detaches from the current loop.
    TaskDetach,

    // ---- application instrumentation (§6 footnote 2) ----
    /// Start of a main-cluster-only loop (`cdoall`/`cdoacross` without an
    /// outer spread loop).
    ClusterLoopStart,
    /// End of a main-cluster-only loop.
    ClusterLoopEnd,
    /// Start of a serial code section on the main task.
    SerialStart,
    /// End of a serial code section.
    SerialEnd,

    // ---- OS events (§4 items a–f of the OS list) ----
    /// Entry to an OS service routine (arg = activity code).
    OsServiceEnter,
    /// Exit from an OS service routine.
    OsServiceExit,
    /// Context switch between application and system task.
    ContextSwitch,

    // ---- program lifecycle ----
    /// Program (measured region) begins.
    ProgramStart,
    /// Program (measured region) ends.
    ProgramEnd,
}

/// One record in the `cedarhpm` trace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which instrumentation point fired.
    pub id: TraceEventId,
    /// Timestamp at 50 ns resolution.
    pub at: HpmTicks,
    /// Processor the event occurred on.
    pub ce: CeId,
    /// Construct/loop argument (0 when unused).
    pub arg: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_rtl::LoopKind;
    use cedar_sim::Cycles;

    #[test]
    fn event_record_layout() {
        let e = TraceEvent {
            id: TraceEventId::IterStart,
            at: Cycles(100).to_hpm_ticks(),
            ce: CeId(3),
            arg: LoopKind::Xdoall.code(),
        };
        assert_eq!(e.at.0, 200); // 100 cycles = 200 hpm ticks
        assert_eq!(e.arg, 2);
    }
}
