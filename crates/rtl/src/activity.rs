//! The helper task's wait-for-work spin.
//!
//! "When a helper task is scheduled to run on its cluster, it begins
//! spin-waiting for work. When the main task of an application encounters
//! an SDOALL, it posts the same in the shared global memory. When this is
//! seen by a helper task of that application, it joins in the execution
//! of the loop" (§2). The helper's lead CE re-reads the
//! `sdoall_activity` word in global memory every few cycles (§7).

use cedar_hw::MemOp;
use cedar_sim::Cycles;

use crate::loops::{unpack_activity, LoopKind, TERMINATE_CODE};
use crate::words::RtlWords;
use crate::WordIssue;

/// What the waiting helper wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitStep {
    /// Issue this read of the activity word and feed the value back in.
    Issue(WordIssue),
    /// A new cross-cluster loop was posted; join it.
    NewWork {
        /// The loop's sequence number.
        seq: u32,
        /// The loop construct.
        kind: LoopKind,
    },
    /// The main task signalled program termination.
    Terminate,
}

/// The helper's activity-word spin state machine.
#[derive(Debug, Clone)]
pub struct WorkWaiter {
    words: RtlWords,
    period: Cycles,
    last_seq: u32,
    checks: u64,
    stalled: Cycles,
    active: bool,
}

impl WorkWaiter {
    /// Creates a waiter polling `words.activity` every `period`.
    pub fn new(words: RtlWords, period: Cycles) -> Self {
        WorkWaiter {
            words,
            period,
            last_seq: 0,
            checks: 0,
            stalled: Cycles::ZERO,
            active: false,
        }
    }

    /// Begins (or resumes) spin-waiting; the first check is immediate.
    ///
    /// # Panics
    ///
    /// Panics if already spinning.
    pub fn begin(&mut self) -> WaitStep {
        assert!(!self.active, "wait-for-work already active");
        self.active = true;
        self.checks += 1;
        WaitStep::Issue(WordIssue::now(self.words.activity, MemOp::Read))
    }

    /// Feeds the observed activity word back in.
    ///
    /// # Panics
    ///
    /// Panics if not spinning.
    pub fn on_value(&mut self, word: u64) -> WaitStep {
        assert!(self.active, "on_value with no wait active");
        let (seq, code) = unpack_activity(word);
        if code == TERMINATE_CODE {
            self.active = false;
            return WaitStep::Terminate;
        }
        if seq > self.last_seq {
            if let Some(kind) = LoopKind::from_code(code) {
                if kind.is_cross_cluster() {
                    self.last_seq = seq;
                    self.active = false;
                    return WaitStep::NewWork { seq, kind };
                }
            }
        }
        self.checks += 1;
        WaitStep::Issue(WordIssue::after(
            self.words.activity,
            MemOp::Read,
            self.period,
        ))
    }

    /// Marks a loop sequence as already handled (used when the helper
    /// learns the seq from the descriptor re-validation instead).
    pub fn mark_seen(&mut self, seq: u32) {
        self.last_seq = self.last_seq.max(seq);
    }

    /// Activity-word reads issued so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Records `d` cycles the spinning helper lost to an external stall
    /// (OS descheduling, fault injection). Telemetry only: the stall
    /// itself is applied on the helper's CE timeline; this keeps the
    /// wait-phase share of the loss visible per task.
    pub fn record_stall(&mut self, d: Cycles) {
        self.stalled += d;
    }

    /// Total stall time recorded while wait-for-work was active.
    pub fn stalled(&self) -> Cycles {
        self.stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::pack_activity;

    fn waiter() -> WorkWaiter {
        WorkWaiter::new(RtlWords::cedar(), Cycles(60))
    }

    #[test]
    fn idle_word_keeps_spinning() {
        let mut w = waiter();
        w.begin();
        match w.on_value(0) {
            WaitStep::Issue(i) => {
                assert_eq!(i.after, Cycles(60));
                assert_eq!(i.op, MemOp::Read);
            }
            other => panic!("expected re-read, got {other:?}"),
        }
        assert_eq!(w.checks(), 2);
    }

    #[test]
    fn new_sdoall_is_reported() {
        let mut w = waiter();
        w.begin();
        let word = pack_activity(1, LoopKind::Sdoall.code());
        assert_eq!(
            w.on_value(word),
            WaitStep::NewWork {
                seq: 1,
                kind: LoopKind::Sdoall
            }
        );
        assert!(!w.active);
    }

    #[test]
    fn stale_seq_is_ignored() {
        let mut w = waiter();
        w.begin();
        let word = pack_activity(3, LoopKind::Xdoall.code());
        assert!(matches!(w.on_value(word), WaitStep::NewWork { seq: 3, .. }));
        // Re-arm; the same (old) word must not re-trigger.
        w.begin();
        assert!(matches!(w.on_value(word), WaitStep::Issue(_)));
    }

    #[test]
    fn cluster_loops_do_not_wake_helpers() {
        let mut w = waiter();
        w.begin();
        let word = pack_activity(1, LoopKind::Cluster.code());
        assert!(matches!(w.on_value(word), WaitStep::Issue(_)));
    }

    #[test]
    fn terminate_signal_stops_the_helper() {
        let mut w = waiter();
        w.begin();
        let word = pack_activity(99, TERMINATE_CODE);
        assert_eq!(w.on_value(word), WaitStep::Terminate);
    }

    #[test]
    fn stall_telemetry_accumulates_without_touching_the_spin() {
        let mut w = waiter();
        assert_eq!(w.stalled(), Cycles::ZERO);
        w.begin();
        w.record_stall(Cycles(800));
        w.record_stall(Cycles(200));
        assert_eq!(w.stalled(), Cycles(1_000));
        // The spin state machine is unaffected.
        assert!(w.active);
        assert_eq!(w.checks(), 1);
        assert!(matches!(w.on_value(0), WaitStep::Issue(_)));
    }

    #[test]
    fn mark_seen_suppresses_duplicate_joins() {
        let mut w = waiter();
        w.mark_seen(5);
        w.begin();
        let word = pack_activity(5, LoopKind::Sdoall.code());
        assert!(matches!(w.on_value(word), WaitStep::Issue(_)));
        let word6 = pack_activity(6, LoopKind::Sdoall.code());
        assert!(matches!(
            w.on_value(word6),
            WaitStep::NewWork { seq: 6, .. }
        ));
    }
}
