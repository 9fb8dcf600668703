//! Virtual memory: demand paging with the concurrent/sequential fault
//! distinction.
//!
//! "Concurrent page faults are caused by two or more CEs simultaneously
//! attempting to access a page which had not been accessed previously.
//! Concurrent page faults are more expensive than sequential page
//! faults" (§5.1). The model: the first CE to touch an unmapped page
//! starts a fault that maps the page after the sequential service time;
//! any CE touching the page while that fault is in flight experiences a
//! *concurrent* fault — it stalls until the page is mapped, pays the
//! (higher) concurrent service cost, and a cross-processor interrupt is
//! raised on its cluster to obtain the single-CE execution thread the
//! fault handler needs.

use cedar_hw::addr::PageId;
use cedar_hw::CeId;
use cedar_sim::{Cycles, SimTime};

use crate::config::OsConfig;

/// Classification of a page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A single CE touched the unmapped page.
    Sequential,
    /// The page was touched while another CE's fault on it was still in
    /// flight.
    Concurrent,
}

/// Result of touching a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageTouch {
    /// The page is mapped; the access proceeds immediately.
    Mapped,
    /// The CE faults: it stalls until `resume_at`, `cost` is charged to
    /// the corresponding fault bucket, and `raise_cpi` requests a
    /// cross-processor interrupt on the faulting CE's cluster.
    Fault {
        /// Fault class for accounting.
        class: FaultClass,
        /// When the faulting CE resumes.
        resume_at: SimTime,
        /// OS service time to charge.
        cost: Cycles,
        /// Whether this fault raises a CPI (concurrent faults do, §5.1).
        raise_cpi: bool,
    },
}

/// Growable bitmap over page ids.
///
/// The layout allocator hands out addresses densely from the bottom of
/// the global address space, so page ids are small and dense — a bitmap
/// is both compact (one bit per page up to the highest page touched) and
/// allocation-free on the touch hot path once grown. This replaces a
/// hash probe per touched page per vector access with a shift-and-mask.
#[derive(Debug, Clone, Default)]
struct PageBitmap {
    bits: Vec<u64>,
}

impl PageBitmap {
    fn contains(&self, page: PageId) -> bool {
        match self.bits.get((page.0 / 64) as usize) {
            Some(word) => word & (1 << (page.0 % 64)) != 0,
            None => false,
        }
    }

    fn insert(&mut self, page: PageId) {
        let word = (page.0 / 64) as usize;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (page.0 % 64);
    }
}

/// The demand-paged address space shared by an application's cluster
/// tasks.
///
/// # Example
///
/// ```
/// use cedar_xylem::{AddressSpace, OsConfig, PageTouch};
/// use cedar_hw::{addr::PageId, CeId};
/// use cedar_sim::Cycles;
///
/// let cfg = OsConfig::cedar();
/// let mut vm = AddressSpace::new(&cfg);
/// // First touch faults sequentially...
/// assert!(matches!(vm.touch(PageId(0), CeId(0), Cycles(0)),
///                  PageTouch::Fault { .. }));
/// // ...and once mapped, later touches proceed immediately.
/// assert!(matches!(vm.touch(PageId(0), CeId(1), Cycles(10_000)),
///                  PageTouch::Mapped));
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    seq_cost: Cycles,
    conc_cost: Cycles,
    mapped: PageBitmap,
    /// Faults currently being serviced, `(page, mapped_at)`. At most a
    /// handful are ever in flight at once (one per concurrently faulting
    /// page), so a linear scan beats a hash probe and allocates nothing.
    in_flight: Vec<(PageId, SimTime)>,
    seq_faults: u64,
    conc_faults: u64,
    injected_seq: u64,
    injected_conc: u64,
}

impl AddressSpace {
    /// Creates an empty address space with `cfg`'s fault costs.
    pub fn new(cfg: &OsConfig) -> Self {
        AddressSpace {
            seq_cost: cfg.page_fault_sequential,
            conc_cost: cfg.page_fault_concurrent,
            mapped: PageBitmap::default(),
            in_flight: Vec::new(),
            seq_faults: 0,
            conc_faults: 0,
            injected_seq: 0,
            injected_conc: 0,
        }
    }

    /// CE `ce` touches `page` at `now`.
    pub fn touch(&mut self, page: PageId, ce: CeId, now: SimTime) -> PageTouch {
        let _ = ce; // classification does not depend on the toucher's id
        if self.mapped.contains(page) {
            return PageTouch::Mapped;
        }
        if let Some(i) = self.in_flight.iter().position(|&(p, _)| p == page) {
            let (_, fault_mapped_at) = self.in_flight[i];
            if now >= fault_mapped_at {
                // The earlier fault has completed by now; promote the page.
                self.in_flight.swap_remove(i);
                self.mapped.insert(page);
                return PageTouch::Mapped;
            }
            // Concurrent fault: wait out the in-flight mapping, then pay
            // the (higher) concurrent service cost.
            self.conc_faults += 1;
            let resume_at = fault_mapped_at + self.conc_cost;
            return PageTouch::Fault {
                class: FaultClass::Concurrent,
                resume_at,
                cost: self.conc_cost,
                raise_cpi: true,
            };
        }
        // Sequential fault: map after the sequential service time.
        self.seq_faults += 1;
        let mapped_at = now + self.seq_cost;
        self.in_flight.push((page, mapped_at));
        PageTouch::Fault {
            class: FaultClass::Sequential,
            resume_at: mapped_at,
            cost: self.seq_cost,
            raise_cpi: false,
        }
    }

    /// Pre-maps `page` without a fault (program text, stacks — anything
    /// warmed before the measured region).
    pub fn premap(&mut self, page: PageId) {
        self.mapped.insert(page);
    }

    /// Sequential faults taken so far.
    pub fn seq_faults(&self) -> u64 {
        self.seq_faults
    }

    /// Concurrent faults taken so far.
    pub fn conc_faults(&self) -> u64 {
        self.conc_faults
    }

    /// Records one fault *injected* by a fault-injection campaign. Kept
    /// in the address space (the single page-fault bookkeeper) but in
    /// separate counters, so [`seq_faults`](Self::seq_faults) /
    /// [`conc_faults`](Self::conc_faults) stay organic-only and injected
    /// faults are never silently folded into the demand-paging numbers.
    pub fn record_injected(&mut self, class: FaultClass) {
        match class {
            FaultClass::Sequential => self.injected_seq += 1,
            FaultClass::Concurrent => self.injected_conc += 1,
        }
    }

    /// (sequential, concurrent) injected-fault counts.
    pub fn injected_faults(&self) -> (u64, u64) {
        (self.injected_seq, self.injected_conc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> AddressSpace {
        AddressSpace::new(&OsConfig::cedar())
    }

    #[test]
    fn first_touch_is_sequential_fault() {
        let mut vm = vm();
        match vm.touch(PageId(5), CeId(0), Cycles(100)) {
            PageTouch::Fault {
                class,
                resume_at,
                cost,
                raise_cpi,
            } => {
                assert_eq!(class, FaultClass::Sequential);
                assert_eq!(cost, OsConfig::cedar().page_fault_sequential);
                assert_eq!(resume_at, Cycles(100) + cost);
                assert!(!raise_cpi);
            }
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(vm.seq_faults(), 1);
    }

    #[test]
    fn simultaneous_touch_is_concurrent_and_raises_cpi() {
        let mut vm = vm();
        let cfg = OsConfig::cedar();
        vm.touch(PageId(1), CeId(0), Cycles(0));
        match vm.touch(PageId(1), CeId(1), Cycles(10)) {
            PageTouch::Fault {
                class,
                resume_at,
                cost,
                raise_cpi,
            } => {
                assert_eq!(class, FaultClass::Concurrent);
                assert!(raise_cpi);
                assert_eq!(cost, cfg.page_fault_concurrent);
                // Resumes after the original mapping completes plus the
                // concurrent service cost.
                assert_eq!(
                    resume_at,
                    Cycles(0) + cfg.page_fault_sequential + cfg.page_fault_concurrent
                );
            }
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(vm.conc_faults(), 1);
    }

    #[test]
    fn touch_after_fault_completes_is_mapped() {
        let mut vm = vm();
        let cfg = OsConfig::cedar();
        vm.touch(PageId(2), CeId(0), Cycles(0));
        let later = cfg.page_fault_sequential + Cycles(1);
        assert_eq!(vm.touch(PageId(2), CeId(1), later), PageTouch::Mapped);
        assert_eq!(vm.conc_faults(), 0);
        assert!(vm.mapped.contains(PageId(2)));
    }

    #[test]
    fn premap_avoids_faults() {
        let mut vm = vm();
        vm.premap(PageId(9));
        assert_eq!(vm.touch(PageId(9), CeId(0), Cycles(0)), PageTouch::Mapped);
        assert_eq!(vm.seq_faults(), 0);
    }

    #[test]
    fn distinct_pages_fault_independently() {
        let mut vm = vm();
        for p in 0..10 {
            match vm.touch(PageId(p), CeId(0), Cycles(p * 10_000)) {
                PageTouch::Fault { class, .. } => assert_eq!(class, FaultClass::Sequential),
                other => panic!("expected fault, got {other:?}"),
            }
        }
        assert_eq!(vm.seq_faults(), 10);
    }

    #[test]
    fn injected_faults_never_contaminate_organic_counts() {
        let mut vm = vm();
        vm.touch(PageId(0), CeId(0), Cycles(0));
        vm.record_injected(FaultClass::Sequential);
        vm.record_injected(FaultClass::Concurrent);
        vm.record_injected(FaultClass::Concurrent);
        assert_eq!((vm.seq_faults(), vm.conc_faults()), (1, 0));
        assert_eq!(vm.injected_faults(), (1, 2));
    }

    #[test]
    fn many_ces_on_one_fresh_page_mostly_fault_concurrently() {
        // The start-of-loop pattern: 8 CEs sweep a fresh array together.
        let mut vm = vm();
        let mut conc = 0;
        for ce in 0..8u16 {
            if let PageTouch::Fault {
                class: FaultClass::Concurrent,
                ..
            } = vm.touch(PageId(0), CeId(ce), Cycles(ce as u64))
            {
                conc += 1;
            }
        }
        assert_eq!(conc, 7, "one sequential leader, seven concurrent");
    }
}
