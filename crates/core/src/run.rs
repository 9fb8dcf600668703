//! Running one experiment.

use cedar_apps::AppSpec;

use crate::config::SimConfig;
use crate::machine::Machine;
use crate::result::RunResult;

/// One `(application, configuration)` measurement, mirroring a dedicated
/// single-user run on the instrumented Cedar (§3).
///
/// # Example
///
/// ```
/// use cedar_core::{Experiment, SimConfig};
/// use cedar_hw::Configuration;
/// use cedar_apps::synthetic;
///
/// let app = synthetic::uniform_xdoall(1, 2, 16, 300, 8);
/// let r = Experiment::new(app, SimConfig::cedar(Configuration::P4)).run();
/// assert_eq!(r.configuration, Configuration::P4);
/// assert_eq!(r.bodies, 2 * 16);
/// ```
#[derive(Debug)]
pub struct Experiment {
    app: AppSpec,
    cfg: SimConfig,
}

impl Experiment {
    /// Prepares an experiment.
    pub fn new(app: AppSpec, cfg: SimConfig) -> Self {
        Experiment { app, cfg }
    }

    /// The application under test.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Builds the machine, runs to completion, returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics if the workload deadlocks or exceeds the event bound (the
    /// configuration's `max_events`).
    pub fn run(self) -> RunResult {
        execute(&self.app, self.cfg)
    }
}

/// Builds and runs one machine, stamping the setup phase's wall-clock
/// into the result's telemetry. The single choke point every runner path
/// (sequential, pooled, benchmarked) goes through, so `RunStats` phase
/// timings mean the same thing everywhere.
pub(crate) fn execute(app: &AppSpec, cfg: SimConfig) -> RunResult {
    let t_setup = std::time::Instant::now();
    let machine = Machine::new(app, cfg);
    let setup_ns = t_setup.elapsed().as_nanos() as u64;
    let mut result = machine.run();
    result.stats.setup_ns = setup_ns;
    result
}
