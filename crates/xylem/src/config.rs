//! Operating-system cost constants of the modelled Xylem OS.
//!
//! Each constant is documented with the paper observation it is
//! calibrated against; together they make the OS overhead land at 3–4%
//! of completion time on 1 processor and 5–21% on the 4-cluster machine
//! (§5), with the Table 2 component ordering (cpi ≳ ctx ≳ page faults ≳
//! critical sections ≫ syscalls ≳ ast). The invariants the model relies
//! on are compile-time assertions below the constants.

use cedar_sim::Cycles;

/// Bytes per virtual-memory page. Small pages keep fault counts
/// realistic at our ~1000x scaled data sizes (the real Xylem used larger
/// pages on larger data).
pub const PAGE_BYTES: u64 = 16 * 1024;
/// Service time of a sequential (single-CE) page fault.
pub(crate) const PAGE_FAULT_SEQUENTIAL: Cycles = Cycles(350);
/// Service time charged to each *additional* CE involved in a
/// concurrent page fault ("more expensive than sequential", §5.1).
pub(crate) const PAGE_FAULT_CONCURRENT: Cycles = Cycles(550);
/// Per-CE cost of servicing a cross-processor interrupt: register
/// save/restore and "miscellaneous accounting calculations" (§5.1).
pub const CPI_COST_PER_CE: Cycles = Cycles(320);
/// Mean interval between OS bookkeeping context switches on each
/// cluster (system daemons, I/O bookkeeping).
pub const CTX_INTERVAL: Cycles = Cycles(55_000);
/// Register save + restore cost of one context switch, per CE.
pub const CTX_COST_PER_CE: Cycles = Cycles(220);
/// Duration the system task runs per bookkeeping context switch.
pub const DAEMON_DURATION: Cycles = Cycles(1_100);
/// The daemon's time inside cluster critical sections: 35% of
/// [`DAEMON_DURATION`].
pub const DAEMON_CR_SECT: Cycles = Cycles(385);
/// The daemon's time in cluster system calls, charged to
/// `SyscallCluster`: 15% of [`DAEMON_DURATION`].
pub const DAEMON_SYSCALL: Cycles = Cycles(165);
/// The rest of the daemon's bookkeeping, charged to `Ctx` with the
/// per-CE save/restore.
pub const DAEMON_OTHER: Cycles = Cycles(550);
/// Cost of a global system call (task creation, start and stop across
/// clusters), the only calls the runtime library makes.
pub const SYSCALL_GLOBAL: Cycles = Cycles(800);
/// Duration of one global critical-section entry.
pub const CR_SECT_GLOBAL: Cycles = Cycles(220);
/// Mean interval between asynchronous system traps per cluster.
pub const AST_INTERVAL: Cycles = Cycles(600_000);
/// Cost of servicing one AST.
pub const AST_COST: Cycles = Cycles(120);

const _: () = assert!(PAGE_BYTES > 0, "page size must be positive");
const _: () = assert!(
    PAGE_FAULT_CONCURRENT.0 >= PAGE_FAULT_SEQUENTIAL.0,
    "concurrent faults are more expensive than sequential (§5.1)"
);
const _: () = assert!(
    DAEMON_CR_SECT.0 + DAEMON_SYSCALL.0 + DAEMON_OTHER.0 == DAEMON_DURATION.0,
    "the daemon's shares partition its duration"
);
