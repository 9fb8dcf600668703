//! The six fault classes and the typed fault plan: an intensity level,
//! and whether all six classes or exactly one are armed.
//!
//! Each class's level-1 intensity is a constant below. A plan at level
//! `n` divides every timed class's mean interval by `n` (never below one
//! cycle) and multiplies the lock and network percentages by `n`; burst
//! sizes and per-occurrence costs do not scale.

use cedar_sim::Cycles;

/// The six fault classes, each targeting one attribution surface. The
/// first four are timed: each fires as its own timer of the machine's
/// timer table. The two static classes perturb the cost model directly
/// and need no occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A burst of cross-processor interrupts.
    InterruptStorm,
    /// A burst of AST deliveries.
    AstBurst,
    /// A wave of synthetic page faults.
    PageFaultWave,
    /// A helper-task scheduling stall.
    HelperStall,
    /// Kernel-lock hold inflation (static).
    LockInflation,
    /// Degraded switch and module latencies (static).
    DegradedNetwork,
}

impl FaultKind {
    /// All six classes, the timed ones first.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::InterruptStorm,
        FaultKind::AstBurst,
        FaultKind::PageFaultWave,
        FaultKind::HelperStall,
        FaultKind::LockInflation,
        FaultKind::DegradedNetwork,
    ];
}

/// Interrupt storm: mean cycles between storms on each cluster at
/// level 1 (±25% jitter).
pub(crate) const STORM_INTERVAL: Cycles = Cycles(40_000);
/// Interrupt storm: cross-processor interrupts raised per storm, each at
/// the machine's per-CE CPI service time (§5.1's "Interrupt" row).
pub const STORM_BURST: u32 = 3;

/// AST burst: mean cycles between bursts on each cluster at level 1.
pub(crate) const AST_BURST_INTERVAL: Cycles = Cycles(60_000);
/// AST burst: deliveries per burst, each to the cluster's lead CE.
pub const AST_BURST_SIZE: u32 = 4;
/// AST burst: OS service time charged per delivery.
pub const AST_BURST_COST: Cycles = Cycles(150);

/// Page-fault wave: mean cycles between waves on each cluster at
/// level 1.
pub(crate) const WAVE_INTERVAL: Cycles = Cycles(50_000);
/// Page-fault wave: faults injected per wave.
pub const WAVE_FAULTS: u32 = 6;
/// Page-fault wave: probability (0–100) that an injected fault is
/// concurrent rather than sequential.
pub const WAVE_CONCURRENT_PCT: u64 = 50;
/// Page-fault wave: service cost charged per sequential fault.
pub const WAVE_SEQ_COST: Cycles = Cycles(700);
/// Page-fault wave: service cost charged per concurrent fault.
pub const WAVE_CONC_COST: Cycles = Cycles(1_100);

/// Lock inflation: extra kernel-lock hold at level 1, as a percentage
/// of the nominal hold (100 = 2×).
pub(crate) const LOCK_HOLD_PCT: u32 = 150;

/// Degraded network: extra switch-stage latency at level 1, percent.
pub(crate) const NET_SWITCH_PCT: u32 = 50;
/// Degraded network: extra module service and access latency at
/// level 1, percent.
pub(crate) const NET_MODULE_PCT: u32 = 50;

/// Helper stall: mean cycles between stalls on each helper cluster at
/// level 1.
pub(crate) const STALL_INTERVAL: Cycles = Cycles(45_000);
/// Helper stall: cycles each stall freezes the helper's lead CE.
pub const STALL_CYCLES: Cycles = Cycles(800);

/// A fault campaign for one run: an intensity level and the armed
/// classes. The default plan, level 0, is empty — running with it is
/// byte-identical to running without the faults subsystem at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Intensity; 0 injects nothing.
    level: u32,
    /// The one armed class, or `None` for all six.
    only: Option<FaultKind>,
}

impl FaultPlan {
    /// The highest intensity a plan takes: the top of `faultsweep`'s
    /// ladder. The cap keeps every product of a level and an intensity
    /// far from overflow, and, in a dedicated run, the timed classes
    /// from firing so often that the run no longer ends in reasonable
    /// time.
    ///
    /// It does not bound a run under a background load as well. At
    /// levels 3 and 4 the injected gang penalties and the stolen quanta
    /// can together outpace a cluster's progress: FLO52 on one
    /// processor at 1/16 scale, level 4 under `BackgroundLoad::heavy()`,
    /// ran about six minutes until it hit `Machine::run`'s bound of
    /// 4 × 10⁹ events, at simulated time 1.37 × 10¹³ cycles. No caller
    /// combines the two.
    pub const MAX_LEVEL: u32 = 4;

    /// Every class armed at intensity `level`: 0 is the empty plan, 1 the
    /// canonical campaign the golden snapshot, the determinism suite and
    /// `faultsweep` share (sized for the shrink-16 workloads), and each
    /// higher level fires every timed class `level`× as often and
    /// stretches the lock and network percentages `level`×.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds [`FaultPlan::MAX_LEVEL`].
    pub fn canonical_at(level: u32) -> Self {
        assert!(
            level <= Self::MAX_LEVEL,
            "fault level {level} exceeds FaultPlan::MAX_LEVEL ({})",
            Self::MAX_LEVEL
        );
        FaultPlan { level, only: None }
    }

    /// The same intensity with only `kind` armed: the single-class
    /// probes of the attribution checks.
    ///
    /// ```
    /// use cedar_faults::{FaultKind, FaultPlan};
    ///
    /// let storm = FaultPlan::canonical_at(2).only(FaultKind::InterruptStorm);
    /// assert!(!storm.is_empty());
    /// assert_eq!(storm.lock_hold_pct(), 0);
    /// ```
    pub fn only(self, kind: FaultKind) -> Self {
        FaultPlan {
            only: Some(kind),
            ..self
        }
    }

    /// `true` when nothing is armed — the run must then be
    /// byte-identical to one with no plan at all.
    pub fn is_empty(&self) -> bool {
        self.level == 0
    }

    /// Whether the plan arms `kind`.
    pub(crate) fn arms(&self, kind: FaultKind) -> bool {
        self.level > 0 && self.only.is_none_or(|k| k == kind)
    }

    /// Mean interval of a timed class at this level, if armed (never
    /// for a static class).
    pub fn interval(&self, kind: FaultKind) -> Option<Cycles> {
        let base = match kind {
            FaultKind::InterruptStorm => STORM_INTERVAL,
            FaultKind::AstBurst => AST_BURST_INTERVAL,
            FaultKind::PageFaultWave => WAVE_INTERVAL,
            FaultKind::HelperStall => STALL_INTERVAL,
            FaultKind::LockInflation | FaultKind::DegradedNetwork => return None,
        };
        self.arms(kind)
            .then(|| Cycles((base.0 / u64::from(self.level)).max(1)))
    }

    /// Extra kernel-lock hold, percent of the nominal hold: 0 unless
    /// lock inflation is armed.
    pub fn lock_hold_pct(&self) -> u32 {
        if self.arms(FaultKind::LockInflation) {
            LOCK_HOLD_PCT * self.level
        } else {
            0
        }
    }

    /// Extra `(switch, module)` latency, percent, if the degraded
    /// network is armed.
    pub fn network_slowdown(&self) -> Option<(u32, u32)> {
        self.arms(FaultKind::DegradedNetwork)
            .then(|| (NET_SWITCH_PCT * self.level, NET_MODULE_PCT * self.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert_eq!(p, FaultPlan::canonical_at(0));
        assert!(FaultKind::ALL.iter().all(|&k| !p.arms(k)));
    }

    #[test]
    fn builders_arm_each_class() {
        let p = FaultPlan::canonical_at(1);
        assert!(!p.is_empty());
        assert!(FaultKind::ALL.iter().all(|&k| p.arms(k)));
    }

    #[test]
    fn intensity_zero_is_empty_and_levels_scale_intervals() {
        assert!(FaultPlan::canonical_at(0).is_empty());
        let one = FaultPlan::canonical_at(1);
        let four = FaultPlan::canonical_at(4);
        let storm = |p: FaultPlan| p.interval(FaultKind::InterruptStorm).unwrap();
        assert_eq!(storm(one), STORM_INTERVAL);
        assert_eq!(storm(four), Cycles(STORM_INTERVAL.0 / 4));
        assert_eq!(four.lock_hold_pct(), one.lock_hold_pct() * 4);
        assert_eq!(four.network_slowdown(), Some((200, 200)));
        assert_eq!(one.interval(FaultKind::LockInflation), None);
    }

    #[test]
    fn a_single_class_plan_arms_only_that_class() {
        let plan = FaultPlan::canonical_at(3).only(FaultKind::HelperStall);
        for kind in FaultKind::ALL {
            assert_eq!(plan.arms(kind), kind == FaultKind::HelperStall, "{kind:?}");
        }
        assert_eq!(
            plan.interval(FaultKind::HelperStall),
            Some(Cycles(STALL_INTERVAL.0 / 3))
        );
        assert_eq!(plan.lock_hold_pct(), 0);
        assert_eq!(plan.network_slowdown(), None);
        assert!(FaultPlan::default().only(FaultKind::AstBurst).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds FaultPlan::MAX_LEVEL")]
    fn a_level_above_the_maximum_panics() {
        FaultPlan::canonical_at(FaultPlan::MAX_LEVEL + 1);
    }
}
