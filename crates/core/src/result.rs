//! The measured outcome of one run.

use cedar_hw::gmem::GmemStats;
use cedar_hw::{ClusterId, Configuration};
use cedar_sim::Cycles;
use cedar_trace::qmon::ClusterUtilization;
use cedar_trace::{TaskBreakdown, TraceEvent};
use cedar_xylem::accounting::Category;
use cedar_xylem::{OsAccounting, OsActivity};

/// Everything the methodology needs from one `(application,
/// configuration)` run.
///
/// It is also the run's one persistent form: [`RunResult::encode`]
/// writes it as the line records the run cache stores and
/// `cedar_check`'s fingerprint hashes, and [`RunResult::decode`] reads
/// them back.
#[derive(Debug)]
pub struct RunResult {
    /// Application name.
    pub app: &'static str,
    /// Processor configuration.
    pub configuration: Configuration,
    /// Completion time (the paper's CT).
    pub completion_time: Cycles,
    /// Per-cluster user-time breakdowns; index 0 is the main task,
    /// indices 1.. are the helper tasks.
    pub breakdowns: Vec<TaskBreakdown>,
    /// Per-cluster Q-facility utilization (system/interrupt/spin).
    pub utilization: Vec<ClusterUtilization>,
    /// Per-activity OS accounting (Table 2).
    pub os: OsAccounting,
    /// statfx average concurrency per cluster.
    pub concurrency: Vec<f64>,
    /// Global-memory system statistics.
    pub gmem: GmemStats,
    /// Cluster time stolen by a competing job (zero in the paper's
    /// dedicated setting).
    pub background_stolen: Cycles,
    /// Loop bodies executed.
    pub bodies: u64,
    /// (sequential, concurrent) page-fault counts.
    pub faults: (u64, u64),
    /// Events processed by the simulator (work proxy).
    pub events: u64,
    /// The cedarhpm trace, when `SimConfig::keep_trace` was set.
    pub trace: Option<Vec<TraceEvent>>,
    /// The simulator's own telemetry for this run: per-phase wall-clock
    /// and the counter rollup (event classes and queue statistics). The
    /// counters are deterministic for a fixed configuration; only the
    /// `*_ns` phase fields vary run to run.
    pub stats: cedar_obs::RunStats,
}

impl RunResult {
    /// The main task's breakdown.
    pub fn main_breakdown(&self) -> &TaskBreakdown {
        &self.breakdowns[0]
    }

    /// Helper-task breakdowns (empty on single-cluster configurations).
    pub fn helper_breakdowns(&self) -> &[TaskBreakdown] {
        &self.breakdowns[1..]
    }

    /// Machine-wide average concurrency (sum over clusters, as Table 1
    /// reports).
    pub fn total_concurrency(&self) -> f64 {
        self.concurrency.iter().sum()
    }

    /// Speedup of this run relative to `base` (normally the 1-processor
    /// run of the same application).
    pub fn speedup_over(&self, base: &RunResult) -> f64 {
        base.completion_time.0 as f64 / self.completion_time.0 as f64
    }

    /// Completion time in (scaled) seconds, as the tables print.
    pub fn ct_seconds(&self) -> f64 {
        self.completion_time.as_secs()
    }

    /// Fraction of completion time spent in a Figure 3 OS category on
    /// the main cluster.
    pub fn os_category_fraction(&self, category: Category) -> f64 {
        let u = self.utilization[0];
        let c = match category {
            Category::System => u.system,
            Category::Interrupt => u.interrupt,
            Category::Spin => u.spin,
            Category::User => u.user(self.completion_time),
        };
        c.fraction_of(self.completion_time)
    }

    /// Total OS overhead fraction (system + interrupt + spin) on the
    /// main cluster — the paper's "operating system overhead" headline.
    pub fn os_overhead_fraction(&self) -> f64 {
        self.utilization[0]
            .os_total()
            .fraction_of(self.completion_time)
    }

    /// Main-cluster time charged to one OS activity (a Table 2 cell).
    pub fn os_activity(&self, activity: OsActivity) -> Cycles {
        self.os.cluster(ClusterId(0)).get(activity).total()
    }

    /// The main task's parallelization-overhead fraction of CT.
    pub fn main_parallelization_fraction(&self) -> f64 {
        self.main_breakdown()
            .parallelization_overhead()
            .fraction_of(self.completion_time)
    }
}
