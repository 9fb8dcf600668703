//! The master event enum of the simulation.

use cedar_hw::GmemEvent;

/// Every event the machine's queue can carry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A packet hop inside the global-memory system.
    Gmem(GmemEvent),
    /// A CE's current activity (compute span) completed. `gen` is the
    /// activity generation; stale completions are dropped.
    CeDone {
        /// CE position (dense index among active CEs).
        ce: usize,
        /// Activity generation stamped at scheduling time.
        gen: u64,
    },
    /// A CE resumes after an OS stall or penalty with its stashed state.
    CeResume {
        /// CE position.
        ce: usize,
    },
    /// An intra-cluster (concurrency-bus) barrier released.
    CbusRelease {
        /// Cluster position (dense index among active clusters).
        cluster: usize,
        /// Barrier episode, to drop stale releases.
        episode: u64,
    },
    /// The OS bookkeeping daemon fires on a cluster.
    Daemon {
        /// Cluster position.
        cluster: usize,
    },
    /// An asynchronous system trap fires on a cluster.
    Ast {
        /// Cluster position.
        cluster: usize,
    },
    /// A competing job's gang quantum steals a cluster (multiprogrammed
    /// extension; never fires in the paper's dedicated setting).
    Background {
        /// Cluster position.
        cluster: usize,
    },
    /// A timed fault-injection occurrence fires on a cluster (never
    /// scheduled when the run's `FaultPlan` is empty). A distinct class
    /// so injected events are never silently folded into the organic
    /// event counts.
    Fault {
        /// Which timed fault class fired.
        kind: cedar_faults::FaultKind,
        /// Cluster position.
        cluster: usize,
    },
}

/// Telemetry counter name of each event class, indexed by
/// [`Ev::class`]. Dotted `events.*` paths, ready for the run manifest's
/// counter rollup.
pub(crate) const EV_CLASS_NAMES: [&str; 8] = [
    "events.gmem",
    "events.ce_done",
    "events.ce_resume",
    "events.cbus_release",
    "events.daemon",
    "events.ast",
    "events.background",
    "events.fault",
];

impl Ev {
    /// Dense class index for per-class event accounting (the index into
    /// [`EV_CLASS_NAMES`]).
    pub fn class(&self) -> usize {
        match self {
            Ev::Gmem(_) => 0,
            Ev::CeDone { .. } => 1,
            Ev::CeResume { .. } => 2,
            Ev::CbusRelease { .. } => 3,
            Ev::Daemon { .. } => 4,
            Ev::Ast { .. } => 5,
            Ev::Background { .. } => 6,
            Ev::Fault { .. } => 7,
        }
    }
}
