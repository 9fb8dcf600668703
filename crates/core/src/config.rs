//! Complete simulation configuration.

use cedar_faults::FaultPlan;
use cedar_hw::Configuration;
use cedar_sim::TieBreak;
use cedar_xylem::BackgroundLoad;

/// What one run of the simulated Cedar varies: the processor
/// configuration, the seed, the tie-break, the background load, the
/// fault plan and whether the trace is kept.
///
/// The hardware, OS and runtime-library costs are not here: Cedar is
/// one machine, so they are constants in the crates that use them
/// (`cedar_hw::config`, `cedar_xylem::config`, `cedar_rtl::config`).
/// Every value is reachable from [`SimConfig::cedar`] by chaining the
/// builders. [`with_trace`](Self::with_trace) and
/// [`with_background`](Self::with_background) only switch on: neither
/// has an unsetter.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which processor configuration is active (1/4/8/16/32).
    configuration: Configuration,
    /// Master random seed (workload jitter, daemon phases).
    pub seed: u64,
    /// Keep the full cedarhpm event trace in the result (memory-hungry
    /// on long runs; breakdowns are computed either way).
    pub(crate) keep_trace: bool,
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
            configuration,
            seed: 0xCEDA_12B5,
            keep_trace: false,
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

    /// Selects the simultaneous-event ordering policy (builder style).
    /// The tie-break never changes measurements — a claim `cedar-check`
    /// verifies by perturbing it.
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
        self.configuration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cedar_config_carries_configuration() {
        let c = SimConfig::cedar(Configuration::P16);
        assert_eq!(c.configuration(), Configuration::P16);
        assert_eq!(c.tiebreak, TieBreak::Fifo);
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::cedar(Configuration::P1)
            .with_seed(7)
            .with_trace()
            .with_tiebreak(TieBreak::Lifo);
        assert_eq!(c.seed, 7);
        assert!(c.keep_trace);
        assert_eq!(c.tiebreak, TieBreak::Lifo);
    }
}
