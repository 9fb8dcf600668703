//! Self-scheduled iteration claiming over a lock-protected global index.
//!
//! "Each processor ... individually and independently issue test and set
//! requests to the critical section locks such as the lock protecting
//! the loop iteration index. This leads to global memory and network
//! contention, and hence, to larger amount of time being spent on
//! picking up loop iterations and in determining that no more iterations
//! are left" (§6).
//!
//! The claim protocol, one global-memory round trip per step:
//!
//! 1. `Read(index)` — the lock-free pre-check ("test before
//!    test-and-set"): if the index already equals the trip count, the
//!    loop is exhausted and the lock is never touched — so the
//!    end-of-loop discovery storm reads in parallel instead of
//!    serializing on the lock;
//! 2. `TestAndSet(lock)` — retried with backoff while the lock is held;
//! 3. `FetchAdd(index, +1)` — claim the next iteration number in one
//!    atomic round trip (the global-memory modules execute
//!    read-modify-write operations locally, so the lock is held for a
//!    single round trip rather than a read/write pair);
//! 4. `Unset(lock)` — release.
//!
//! After step 4 the claimer holds the fetched iteration number, or has
//! determined the loop is exhausted (a fetch past the trip count is
//! benign: the index stays past-the-end and later pre-checks short-cut).
//! For `xdoall` all N processors run this machine against one lock; for
//! `sdoall` only one processor per cluster does.

use cedar_hw::MemOp;
use cedar_sim::Cycles;

use crate::words::RtlWords;
use crate::WordIssue;

/// What the claimer wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimStep {
    /// Issue this word operation and feed the response value back into
    /// [`IterClaimer::on_value`].
    Issue(WordIssue),
    /// The claimer obtained this iteration number.
    Claimed(u32),
    /// No iterations remain; the claimer released the lock and is done.
    Exhausted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    WaitPreCheck,
    WaitTas,
    WaitFetch,
    WaitUnlock { result: Option<u32> },
}

/// The per-processor iteration-claim state machine.
#[derive(Debug, Clone)]
pub struct IterClaimer {
    words: RtlWords,
    total: u32,
    backoff: Cycles,
    state: State,
}

impl IterClaimer {
    /// Creates a claimer for a loop of `total` iterations coordinated
    /// through `words`, with `backoff` between failed lock attempts.
    pub fn new(words: RtlWords, total: u32, backoff: Cycles) -> Self {
        IterClaimer {
            words,
            total,
            backoff,
            state: State::Idle,
        }
    }

    /// Begins a claim attempt.
    ///
    /// # Panics
    ///
    /// Panics if a claim is already in progress.
    pub fn begin(&mut self) -> ClaimStep {
        assert_eq!(self.state, State::Idle, "claim already in progress");
        self.state = State::WaitPreCheck;
        ClaimStep::Issue(WordIssue::now(self.words.index, MemOp::Read))
    }

    /// Feeds the value of the previously issued operation back in.
    ///
    /// # Panics
    ///
    /// Panics if no operation is outstanding.
    pub fn on_value(&mut self, value: u64) -> ClaimStep {
        match self.state {
            State::Idle => panic!("on_value with no claim in progress"),
            State::WaitPreCheck => {
                if value as u32 >= self.total {
                    // Exhausted: discovered without touching the lock.
                    self.state = State::Idle;
                    return ClaimStep::Exhausted;
                }
                self.state = State::WaitTas;
                ClaimStep::Issue(WordIssue::now(self.words.lock, MemOp::TestAndSet))
            }
            State::WaitTas => {
                if value != 0 {
                    // Lock held: back off, then retry the test-and-set.
                    ClaimStep::Issue(WordIssue::after(
                        self.words.lock,
                        MemOp::TestAndSet,
                        self.backoff,
                    ))
                } else {
                    self.state = State::WaitFetch;
                    ClaimStep::Issue(WordIssue::now(self.words.index, MemOp::FetchAdd(1)))
                }
            }
            State::WaitFetch => {
                let fetched = value as u32;
                let result = if fetched >= self.total {
                    // Raced past the end since the pre-check: release
                    // and report exhaustion.
                    None
                } else {
                    Some(fetched)
                };
                self.state = State::WaitUnlock { result };
                ClaimStep::Issue(WordIssue::now(self.words.lock, MemOp::Unset))
            }
            State::WaitUnlock { result } => {
                self.state = State::Idle;
                match result {
                    Some(i) => ClaimStep::Claimed(i),
                    None => ClaimStep::Exhausted,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::RtlWords;

    fn claimer(total: u32) -> IterClaimer {
        IterClaimer::new(RtlWords::cedar(), total, Cycles(30))
    }

    /// Drives a claimer against an in-memory lock/index pair, returning
    /// the outcome of one claim attempt.
    fn drive(c: &mut IterClaimer, lock: &mut u64, index: &mut u64) -> ClaimStep {
        let w = RtlWords::cedar();
        let mut step = c.begin();
        loop {
            match step {
                ClaimStep::Issue(issue) => {
                    let value = if issue.addr == w.lock {
                        match issue.op {
                            MemOp::TestAndSet => {
                                let old = *lock;
                                *lock = 1;
                                old
                            }
                            MemOp::Unset => {
                                *lock = 0;
                                0
                            }
                            _ => panic!("unexpected lock op"),
                        }
                    } else if issue.addr == w.index {
                        match issue.op {
                            MemOp::Read => *index,
                            MemOp::FetchAdd(d) => {
                                let old = *index;
                                *index = index.wrapping_add_signed(d);
                                old
                            }
                            _ => panic!("unexpected index op"),
                        }
                    } else {
                        panic!("unexpected address");
                    };
                    step = c.on_value(value);
                }
                done => return done,
            }
        }
    }

    #[test]
    fn claims_iterations_in_order_then_exhausts() {
        let mut c = claimer(3);
        let (mut lock, mut index) = (0u64, 0u64);
        assert_eq!(drive(&mut c, &mut lock, &mut index), ClaimStep::Claimed(0));
        assert_eq!(drive(&mut c, &mut lock, &mut index), ClaimStep::Claimed(1));
        assert_eq!(drive(&mut c, &mut lock, &mut index), ClaimStep::Claimed(2));
        assert_eq!(drive(&mut c, &mut lock, &mut index), ClaimStep::Exhausted);
        assert_eq!(index, 3, "one index fetch per claim");
        assert_eq!(lock, 0, "lock released after exhaustion");
    }

    #[test]
    fn held_lock_causes_backoff_retry() {
        let mut c = claimer(5);
        let step = c.begin();
        assert!(matches!(step, ClaimStep::Issue(i) if i.op == MemOp::Read));
        // Pre-check sees work left; the TAS goes out...
        let step = c.on_value(0);
        assert!(matches!(step, ClaimStep::Issue(i) if i.op == MemOp::TestAndSet));
        // ...but the lock is held (TAS returns 1): expect a delayed retry.
        match c.on_value(1) {
            ClaimStep::Issue(i) => {
                assert_eq!(i.op, MemOp::TestAndSet);
                assert_eq!(i.after, Cycles(30), "backoff passed through");
            }
            other => panic!("expected retry, got {other:?}"),
        }
        // Now the lock is free: the claim proceeds to the index fetch.
        match c.on_value(0) {
            ClaimStep::Issue(i) => assert_eq!(i.op, MemOp::FetchAdd(1)),
            other => panic!("expected index fetch, got {other:?}"),
        }
    }

    #[test]
    fn exhaustion_skips_index_write() {
        let mut c = claimer(2);
        assert!(matches!(c.begin(), ClaimStep::Issue(i) if i.op == MemOp::Read));
        assert_eq!(
            c.on_value(2),
            ClaimStep::Exhausted,
            "exhaustion discovered lock-free"
        );
        let (mut lock, mut index) = (0u64, 2u64); // already exhausted
        assert_eq!(drive(&mut c, &mut lock, &mut index), ClaimStep::Exhausted);
        assert_eq!(index, 2, "index not advanced past total");
        assert_eq!(lock, 0, "pre-check never touched the lock");
    }

    #[test]
    fn race_after_pre_check_releases_without_claim() {
        // Pre-check sees work left, but by the time the lock is held a
        // racing claimer has exhausted the loop: the index re-read under
        // the lock says so and the claimer unsets and reports Exhausted.
        let mut c = claimer(4);
        assert!(matches!(c.begin(), ClaimStep::Issue(i) if i.op == MemOp::Read));
        let step = c.on_value(3); // pre-check: 3 < 4, keep going
        assert!(matches!(step, ClaimStep::Issue(i) if i.op == MemOp::TestAndSet));
        let step = c.on_value(0); // lock acquired
        assert!(matches!(step, ClaimStep::Issue(i) if i.op == MemOp::FetchAdd(1)));
        let step = c.on_value(4); // raced: fetched past the end
        assert!(matches!(step, ClaimStep::Issue(i) if i.op == MemOp::Unset));
        assert_eq!(c.on_value(0), ClaimStep::Exhausted);
    }

    #[test]
    fn two_claimers_interleaved_respect_mutual_exclusion() {
        // Claimer A holds the lock; claimer B's TAS must fail until A's
        // Unset lands.
        let w = RtlWords::cedar();
        let mut a = claimer(10);
        let mut b = claimer(10);
        let mut lock = 0u64;
        // A pre-checks, then acquires.
        a.begin();
        a.on_value(0); // pre-check: work left
        let old = lock;
        lock = 1;
        let step_a = a.on_value(old); // A proceeds to index read
        assert!(matches!(step_a, ClaimStep::Issue(i) if i.addr == w.index));
        // B pre-checks and tries while A holds.
        b.begin();
        b.on_value(0);
        let old_b = lock;
        assert!(matches!(
            b.on_value(old_b),
            ClaimStep::Issue(i) if i.op == MemOp::TestAndSet && i.after > Cycles::ZERO
        ));
    }

    #[test]
    #[should_panic(expected = "claim already in progress")]
    fn double_begin_panics() {
        let mut c = claimer(1);
        c.begin();
        c.begin();
    }

    #[test]
    fn zero_iteration_loop_exhausts_immediately() {
        let mut c = claimer(0);
        let (mut lock, mut index) = (0u64, 0u64);
        assert_eq!(drive(&mut c, &mut lock, &mut index), ClaimStep::Exhausted);
    }
}
