//! The `s(x)doall` finish barrier.
//!
//! "After each SDOALL loop, the main task spin waits at a barrier for all
//! the helpers which entered the loop to detach themselves. This is to
//! ensure that all helper tasks are finished with their work before the
//! main task executes the code after the loop" (§2). Joining tasks
//! fetch-add `+1` on the joined-count word; detaching tasks fetch-add
//! `-1`; the main task (after detaching itself) re-reads the count every
//! spin period until it reaches zero.

use cedar_hw::MemOp;

use crate::config::BARRIER_SPIN_PERIOD;
use crate::words::RtlWords;
use crate::WordIssue;

/// What the barrier spinner wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierStep {
    /// Issue this read and feed the value back in.
    Issue(WordIssue),
    /// All joined tasks have detached; the main task proceeds.
    Released,
}

/// The main task's finish-barrier spin.
#[derive(Debug, Clone)]
pub struct FinishBarrier {
    words: RtlWords,
    checks: u64,
    active: bool,
}

impl FinishBarrier {
    /// Creates the spinner reading through `words.joined` every
    /// [`BARRIER_SPIN_PERIOD`].
    pub fn new(words: RtlWords) -> Self {
        FinishBarrier {
            words,
            checks: 0,
            active: false,
        }
    }

    /// Begins spinning: the first check is immediate.
    ///
    /// # Panics
    ///
    /// Panics if already spinning.
    pub fn begin(&mut self) -> BarrierStep {
        assert!(!self.active, "finish barrier already active");
        self.active = true;
        self.checks += 1;
        BarrierStep::Issue(WordIssue::now(self.words.joined, MemOp::Read))
    }

    /// Feeds the observed joined count back in.
    ///
    /// # Panics
    ///
    /// Panics if not spinning.
    pub fn on_value(&mut self, joined: u64) -> BarrierStep {
        assert!(self.active, "on_value with no barrier active");
        if joined == 0 {
            self.active = false;
            BarrierStep::Released
        } else {
            self.checks += 1;
            BarrierStep::Issue(WordIssue::after(
                self.words.joined,
                MemOp::Read,
                BARRIER_SPIN_PERIOD,
            ))
        }
    }

    /// Reads issued so far (across all barrier episodes).
    pub fn checks(&self) -> u64 {
        self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barrier() -> FinishBarrier {
        FinishBarrier::new(RtlWords::cedar())
    }

    #[test]
    fn releases_when_count_reaches_zero() {
        let mut b = barrier();
        assert!(matches!(b.begin(), BarrierStep::Issue(_)));
        assert!(matches!(b.on_value(2), BarrierStep::Issue(_)));
        assert!(matches!(b.on_value(1), BarrierStep::Issue(_)));
        assert_eq!(b.on_value(0), BarrierStep::Released);
        assert!(!b.active);
        assert_eq!(b.checks(), 3);
    }

    #[test]
    fn rechecks_are_delayed_by_spin_period() {
        let mut b = barrier();
        b.begin();
        match b.on_value(3) {
            BarrierStep::Issue(i) => {
                assert_eq!(i.after, BARRIER_SPIN_PERIOD);
                assert_eq!(i.op, MemOp::Read);
            }
            other => panic!("expected delayed re-read, got {other:?}"),
        }
    }

    #[test]
    fn immediate_release_when_no_helpers_joined() {
        let mut b = barrier();
        b.begin();
        assert_eq!(b.on_value(0), BarrierStep::Released);
        assert_eq!(b.checks(), 1);
    }

    #[test]
    fn reusable_across_loops() {
        let mut b = barrier();
        b.begin();
        assert_eq!(b.on_value(0), BarrierStep::Released);
        b.begin();
        assert!(matches!(b.on_value(1), BarrierStep::Issue(_)));
        assert_eq!(b.on_value(0), BarrierStep::Released);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_begin_panics() {
        let mut b = barrier();
        b.begin();
        b.begin();
    }
}
