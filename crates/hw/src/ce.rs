//! Computational-element activity engine.
//!
//! A CE executes one **activity** at a time on behalf of its cluster
//! task's runtime-library state machine: a span of computation, a vector
//! burst to global memory, or a single synchronization word access. The
//! engine tracks outstanding memory responses and uses a generation
//! counter so that a completion event stamped for an earlier activity is
//! recognized and dropped — the standard versioned-event technique for
//! preemption in DES.

use cedar_sim::Cycles;

use crate::addr::GlobalAddr;
use crate::packet::MemOp;
use crate::topology::CeId;
use crate::vector::VectorAccess;

/// Something a CE can be told to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Pure computation (local/cache work folded in) for a duration.
    Compute(Cycles),
    /// A pipelined vector burst to global memory.
    Vector(VectorAccess),
    /// A single word access — lock, flag or counter traffic.
    Word {
        /// Target address.
        addr: GlobalAddr,
        /// Operation to perform.
        op: MemOp,
    },
}

impl Activity {
    /// Number of memory responses this activity must collect.
    pub(crate) fn responses_expected(&self) -> u32 {
        match self {
            Activity::Compute(_) => 0,
            Activity::Vector(v) => v.words,
            Activity::Word { .. } => 1,
        }
    }
}

/// Execution state of one CE.
#[derive(Debug, Clone)]
pub struct CeEngine {
    id: CeId,
    generation: u64,
    outstanding: u32,
    active: bool,
}

impl CeEngine {
    /// Creates an idle CE.
    pub fn new(id: CeId) -> Self {
        CeEngine {
            id,
            generation: 0,
            outstanding: 0,
            active: false,
        }
    }

    /// Begins an activity; returns the generation token that a matching
    /// completion event must carry.
    ///
    /// # Panics
    ///
    /// Panics if an activity is already in flight.
    pub fn begin(&mut self, activity: &Activity) -> u64 {
        assert!(
            !self.active,
            "{}: begin() while an activity is in flight",
            self.id
        );
        self.generation += 1;
        self.outstanding = activity.responses_expected();
        self.active = true;
        self.generation
    }

    /// Records one memory response; returns `true` when it was the last
    /// outstanding response (activity complete).
    ///
    /// # Panics
    ///
    /// Panics if no responses are outstanding.
    pub fn on_response(&mut self) -> bool {
        assert!(self.outstanding > 0, "{}: unexpected response", self.id);
        self.outstanding -= 1;
        self.outstanding == 0
    }

    /// `true` if `generation` matches the current activity (stale
    /// completion events fail this check and must be dropped).
    pub fn is_current(&self, generation: u64) -> bool {
        generation == self.generation && self.active
    }

    /// Marks the current activity finished.
    ///
    /// # Panics
    ///
    /// Panics if no activity is in flight.
    pub fn finish(&mut self) {
        assert!(self.active, "{}: finish() with no activity", self.id);
        self.active = false;
    }

    /// Responses still outstanding for the current activity.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_activity_lifecycle() {
        let mut ce = CeEngine::new(CeId(3));
        let g = ce.begin(&Activity::Compute(Cycles(100)));
        assert!(ce.is_current(g));
        assert_eq!(ce.outstanding(), 0);
        ce.finish();
        assert!(!ce.is_current(g), "finished activity is no longer current");
        let g2 = ce.begin(&Activity::Compute(Cycles(5)));
        assert!(!ce.is_current(g), "stale completion must be dropped");
        assert!(ce.is_current(g2));
    }

    #[test]
    fn vector_activity_waits_for_all_responses() {
        let mut ce = CeEngine::new(CeId(0));
        let v = Activity::Vector(VectorAccess::read(GlobalAddr(0), 3, 1));
        ce.begin(&v);
        assert_eq!(ce.outstanding(), 3);
        assert!(!ce.on_response());
        assert!(!ce.on_response());
        assert!(ce.on_response(), "last response completes");
        assert_eq!(ce.outstanding(), 0);
    }

    #[test]
    fn word_activity_expects_one_response() {
        let mut ce = CeEngine::new(CeId(1));
        ce.begin(&Activity::Word {
            addr: GlobalAddr(0x40),
            op: MemOp::TestAndSet,
        });
        assert_eq!(ce.outstanding(), 1);
        assert!(ce.on_response());
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_begin_panics() {
        let mut ce = CeEngine::new(CeId(0));
        ce.begin(&Activity::Compute(Cycles(1)));
        ce.begin(&Activity::Compute(Cycles(1)));
    }

    #[test]
    #[should_panic(expected = "unexpected response")]
    fn response_without_outstanding_panics() {
        let mut ce = CeEngine::new(CeId(0));
        ce.begin(&Activity::Compute(Cycles(1)));
        ce.on_response();
    }
}
