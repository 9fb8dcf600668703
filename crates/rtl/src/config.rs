//! Runtime-library cost constants of the modelled Cedar Fortran runtime,
//! with compile-time checks of the calibration's invariants.

use cedar_sim::Cycles;

/// Period at which a spin-waiting helper re-reads the `sdoall_activity`
/// word ("checking ... every few cycles", §7 — kept coarse enough that
/// idle helpers cause negligible contention).
pub(crate) const ACTIVITY_SPIN_PERIOD: Cycles = Cycles(60);
/// Period at which the main task re-reads the joined count while
/// spin-waiting at the loop finish barrier (also the DOACROSS ticket
/// re-read period).
pub const BARRIER_SPIN_PERIOD: Cycles = Cycles(60);
/// Backoff before re-issuing a failed test-and-set on the iteration
/// lock.
pub const LOCK_BACKOFF: Cycles = Cycles(150);
/// Local (non-network) work to set up loop parameters before the
/// descriptor is posted.
pub const SETUP_LOCAL: Cycles = Cycles(60);
/// Local work a task performs when joining a posted loop.
pub const JOIN_LOCAL: Cycles = Cycles(15);
/// Cost for a CE to claim the next inner (`cdoall`) iteration over the
/// concurrency bus — intra-cluster self-scheduling is fast and
/// network-free (§2).
pub const INNER_CLAIM: Cycles = Cycles(3);

const _: () = assert!(
    ACTIVITY_SPIN_PERIOD.0 > 10,
    "the activity spin must be coarse"
);
const _: () = assert!(INNER_CLAIM.0 < 10, "a concurrency-bus claim must be cheap");
const _: () = assert!(LOCK_BACKOFF.0 > 0, "a failed lock attempt must back off");
