//! Complete simulation configuration.

use cedar_faults::FaultPlan;
use cedar_hw::{Configuration, HwConfig};
use cedar_rtl::RtlConfig;
use cedar_sim::{SchedKind, TieBreak};
use cedar_xylem::{BackgroundLoad, OsConfig};

/// Everything needed to instantiate one simulated Cedar machine.
///
/// The builders are total: every field has both a setter and (where the
/// field is a toggle) an unsetter, so any configuration is reachable
/// from [`SimConfig::cedar`] by chaining.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware: configuration, network, cluster parameters.
    pub hw: HwConfig,
    /// Operating-system cost model.
    pub os: OsConfig,
    /// Runtime-library cost model.
    pub rtl: RtlConfig,
    /// Master random seed (workload jitter, daemon phases).
    pub seed: u64,
    /// Keep the full cedarhpm event trace in the result (memory-hungry
    /// on long runs; breakdowns are computed either way).
    pub(crate) keep_trace: bool,
    /// Safety valve: abort if the event count exceeds this bound.
    pub(crate) max_events: u64,
    /// Pending-event-set implementation backing the machine's queue.
    /// Both kinds produce bit-identical runs; see
    /// [`cedar_sim::EventQueue`].
    pub sched: SchedKind,
    /// Simultaneous-event ordering policy. Measurements must not
    /// depend on it — `cedar-check` perturbs it to prove that; the
    /// FIFO default is the documented scheduling order.
    pub tiebreak: TieBreak,
    /// Competing multiprogrammed load (None = the paper's dedicated,
    /// single-user setting).
    pub background: Option<BackgroundLoad>,
    /// Fault-injection campaign (the empty default injects nothing —
    /// the run is byte-identical to one without the faults subsystem).
    pub faults: FaultPlan,
}

impl SimConfig {
    /// The machine the paper measured, at a given processor count.
    pub fn cedar(configuration: Configuration) -> Self {
        SimConfig {
            hw: HwConfig::cedar(configuration),
            os: OsConfig::cedar(),
            rtl: RtlConfig::cedar(),
            seed: 0xCEDA_12B5,
            keep_trace: false,
            max_events: 4_000_000_000,
            sched: SchedKind::default(),
            tiebreak: TieBreak::default(),
            background: None,
            faults: FaultPlan::default(),
        }
    }

    /// Overrides the seed (builder style).
    ///
    /// ```
    /// use cedar_core::SimConfig;
    /// use cedar_hw::Configuration;
    ///
    /// let c = SimConfig::cedar(Configuration::P8).with_seed(42);
    /// assert_eq!(c.seed, 42);
    /// ```
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Keeps the cedarhpm trace in the result (builder style).
    ///
    /// ```
    /// use cedar_apps::synthetic;
    /// use cedar_core::{Experiment, SimConfig};
    /// use cedar_hw::Configuration;
    ///
    /// let app = synthetic::uniform_sdoall(1, 1, 2, 4, 100, 0);
    /// let cfg = SimConfig::cedar(Configuration::P4).with_trace();
    /// assert!(Experiment::new(app, cfg).run().trace.is_some());
    /// ```
    pub fn with_trace(mut self) -> Self {
        self.keep_trace = true;
        self
    }

    /// Selects the pending-event-set implementation (builder style).
    /// The scheduler changes wall-clock speed only, never results.
    ///
    /// ```
    /// use cedar_core::SimConfig;
    /// use cedar_hw::Configuration;
    /// use cedar_sim::SchedKind;
    ///
    /// let c = SimConfig::cedar(Configuration::P8).with_scheduler(SchedKind::Heap);
    /// assert_eq!(c.sched, SchedKind::Heap);
    /// ```
    pub fn with_scheduler(mut self, sched: SchedKind) -> Self {
        self.sched = sched;
        self
    }

    /// Selects the simultaneous-event ordering policy (builder style).
    /// Like the scheduler, the tie-break never changes measurements —
    /// a claim `cedar-check` verifies by perturbing it.
    ///
    /// ```
    /// use cedar_core::SimConfig;
    /// use cedar_hw::Configuration;
    /// use cedar_sim::TieBreak;
    ///
    /// let c = SimConfig::cedar(Configuration::P8).with_tiebreak(TieBreak::Lifo);
    /// assert_eq!(c.tiebreak, TieBreak::Lifo);
    /// ```
    pub fn with_tiebreak(mut self, tiebreak: TieBreak) -> Self {
        self.tiebreak = tiebreak;
        self
    }

    /// Adds a competing multiprogrammed load (builder style) — beyond
    /// the paper, which measured a dedicated system.
    ///
    /// ```
    /// use cedar_core::SimConfig;
    /// use cedar_hw::Configuration;
    /// use cedar_xylem::BackgroundLoad;
    ///
    /// let c = SimConfig::cedar(Configuration::P8)
    ///     .with_background(BackgroundLoad::heavy());
    /// assert!(c.background.is_some());
    /// ```
    pub fn with_background(mut self, load: BackgroundLoad) -> Self {
        self.background = Some(load);
        self
    }

    /// Applies a fault-injection campaign (builder style). Passing
    /// `FaultPlan::default()` restores the unperturbed machine, so the
    /// builder is total.
    ///
    /// ```
    /// use cedar_core::SimConfig;
    /// use cedar_faults::FaultPlan;
    /// use cedar_hw::Configuration;
    ///
    /// let c = SimConfig::cedar(Configuration::P8)
    ///     .with_faults(FaultPlan::canonical());
    /// assert!(!c.faults.is_empty());
    /// assert!(c.with_faults(FaultPlan::default()).faults.is_empty());
    /// ```
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The active processor configuration.
    pub fn configuration(&self) -> Configuration {
        self.hw.configuration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cedar_config_carries_configuration() {
        let c = SimConfig::cedar(Configuration::P16);
        assert_eq!(c.configuration(), Configuration::P16);
        assert_eq!(c.sched, SchedKind::Calendar);
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::cedar(Configuration::P1)
            .with_seed(7)
            .with_trace()
            .with_scheduler(SchedKind::Heap);
        assert_eq!(c.seed, 7);
        assert!(c.keep_trace);
        assert_eq!(c.sched, SchedKind::Heap);
    }
}
