//! Kernel memory locks.
//!
//! Xylem protects critical resources with locks in shared global memory
//! (shared by all CEs) and in private cluster memory (shared by a
//! cluster's CEs and IPs). The paper's headline finding for this layer is
//! *negative*: "Kernel lock contention is negligible (kernel lock spin
//! time is < 1% of the completion time)" (§5). The model therefore tracks
//! lock occupancy exactly — spin time **emerges** from overlapping
//! critical-section entries rather than being assumed — letting the
//! reproduction confirm the same negative result.

use cedar_sim::{Cycles, SimTime};

/// A kernel lock modelled as a FCFS server: an acquirer arriving while
/// the lock is held spins until the holder releases.
#[derive(Debug, Clone, Default)]
pub struct KernelLock {
    free_at: SimTime,
}

impl KernelLock {
    /// Creates a free lock.
    pub fn new() -> Self {
        KernelLock::default()
    }

    /// Acquires at `now`, holding for `hold` inflated by `inflate_pct`%
    /// (fault injection; 0 is the plain acquire). Returns
    /// `(critical_section_start, spin_time, effective_hold)`: the caller
    /// spins for `spin_time` (charged to the kernel-spin bucket), occupies
    /// the critical section from `critical_section_start` for
    /// `effective_hold`, and charges `effective_hold` to its
    /// critical-section bucket so accounting matches the lock's true
    /// occupancy.
    pub fn acquire_scaled(
        &mut self,
        now: SimTime,
        hold: Cycles,
        inflate_pct: u32,
    ) -> (SimTime, Cycles, Cycles) {
        let held = Cycles(hold.0 + hold.0 * inflate_pct as u64 / 100);
        let start = now.max(self.free_at);
        let spin = start - now;
        self.free_at = start + held;
        (start, spin, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An uninflated acquire: `(critical_section_start, spin_time)`.
    fn acquire(l: &mut KernelLock, now: SimTime, hold: Cycles) -> (SimTime, Cycles) {
        let (start, spin, held) = l.acquire_scaled(now, hold, 0);
        assert_eq!(held, hold, "zero inflation holds exactly the hold time");
        (start, spin)
    }

    #[test]
    fn uncontended_acquire_has_no_spin() {
        let mut l = KernelLock::new();
        let (start, spin) = acquire(&mut l, Cycles(100), Cycles(50));
        assert_eq!(start, Cycles(100));
        assert_eq!(spin, Cycles::ZERO);
    }

    #[test]
    fn overlapping_acquire_spins_until_release() {
        let mut l = KernelLock::new();
        acquire(&mut l, Cycles(0), Cycles(100));
        let (start, spin) = acquire(&mut l, Cycles(30), Cycles(10));
        assert_eq!(start, Cycles(100));
        assert_eq!(spin, Cycles(70));
    }

    #[test]
    fn serialized_acquires_never_spin() {
        let mut l = KernelLock::new();
        let mut now = Cycles(0);
        for _ in 0..10 {
            let (start, spin) = acquire(&mut l, now, Cycles(10));
            assert_eq!(spin, Cycles::ZERO);
            now = start + Cycles(10);
        }
        assert_eq!(l.free_at, Cycles(100), "ten holds of 10 cycles each");
    }

    #[test]
    fn scaled_acquire_inflates_hold_and_occupancy() {
        let mut l = KernelLock::new();
        let (start, spin, held) = l.acquire_scaled(Cycles(0), Cycles(100), 150);
        assert_eq!((start, spin), (Cycles(0), Cycles::ZERO));
        assert_eq!(held, Cycles(250));
        // The next acquirer spins until the inflated hold releases.
        let (s2, spin2) = acquire(&mut l, Cycles(10), Cycles(10));
        assert_eq!(s2, Cycles(250));
        assert_eq!(spin2, Cycles(240));
        assert_eq!(l.free_at, Cycles(260));
    }

    #[test]
    fn queue_of_spinners_forms_fcfs() {
        let mut l = KernelLock::new();
        acquire(&mut l, Cycles(0), Cycles(10));
        let (s1, _) = acquire(&mut l, Cycles(1), Cycles(10));
        let (s2, _) = acquire(&mut l, Cycles(2), Cycles(10));
        assert_eq!(s1, Cycles(10));
        assert_eq!(s2, Cycles(20));
    }
}
