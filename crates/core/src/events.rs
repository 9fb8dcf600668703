//! The master event enum of the simulation.

use cedar_hw::GmemEvent;

use crate::machine::timers::Timer;

/// Every event the machine's queue can carry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A packet's next hop inside the global-memory system.
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
    /// A periodic activity fires on a cluster: the OS daemon, an AST, a
    /// background quantum or a timed fault class. Counted under
    /// `events.daemon`, `events.ast`, `events.background` and, for all
    /// four fault timers, `events.fault`, so injected occurrences are
    /// never folded into the organic counts.
    Timer {
        /// Which timer fired.
        timer: Timer,
        /// Cluster position.
        cluster: usize,
    },
}

// The 24-byte packet's spare bits carry the discriminant, so an event
// stays 24 bytes and a calendar bucket entry, `(rank, Ev)`, 32.
const _: () = assert!(std::mem::size_of::<Ev>() <= 24);
const _: () = assert!(std::mem::size_of::<(u64, Ev)>() <= 32);

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
    /// The class index of a packet hop, [`Ev::Gmem`].
    pub(crate) const GMEM_CLASS: usize = 0;

    /// Dense class index for per-class event accounting (the index into
    /// [`EV_CLASS_NAMES`]).
    pub fn class(&self) -> usize {
        match self {
            Ev::Gmem(_) => Self::GMEM_CLASS,
            Ev::CeDone { .. } => 1,
            Ev::CeResume { .. } => 2,
            Ev::CbusRelease { .. } => 3,
            Ev::Timer { timer, .. } => match timer {
                Timer::Daemon => 4,
                Timer::Ast => 5,
                Timer::Background => 6,
                _ => 7,
            },
        }
    }
}
