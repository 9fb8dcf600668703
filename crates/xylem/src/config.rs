//! Operating-system cost parameters.
//!
//! Each knob is documented with the paper observation it is calibrated
//! against; together they make the OS overhead land at 3–4% of completion
//! time on 1 processor and 5–21% on the 4-cluster machine (§5), with the
//! Table 2 component ordering (cpi ≳ ctx ≳ page faults ≳ critical
//! sections ≫ syscalls ≳ ast).

use cedar_sim::Cycles;

/// Timing parameters of the modelled Xylem OS.
#[derive(Debug, Clone, PartialEq)]
pub struct OsConfig {
    /// Bytes per virtual-memory page.
    pub page_bytes: u64,
    /// Service time of a sequential (single-CE) page fault.
    pub(crate) page_fault_sequential: Cycles,
    /// Service time charged to each *additional* CE involved in a
    /// concurrent page fault ("more expensive than sequential", §5.1).
    pub(crate) page_fault_concurrent: Cycles,
    /// Per-CE cost of servicing a cross-processor interrupt: register
    /// save/restore and "miscellaneous accounting calculations" (§5.1).
    pub cpi_cost_per_ce: Cycles,
    /// Mean interval between OS bookkeeping context switches on each
    /// cluster (system daemons, I/O bookkeeping).
    pub(crate) ctx_interval: Cycles,
    /// Register save + restore cost of one context switch, per CE.
    pub ctx_cost_per_ce: Cycles,
    /// Duration the system task runs per bookkeeping context switch.
    pub(crate) daemon_duration: Cycles,
    /// Fraction of daemon duration spent inside cluster critical sections.
    pub(crate) daemon_cr_sect_fraction: f64,
    /// Fraction of daemon duration spent in cluster system calls.
    pub(crate) daemon_syscall_fraction: f64,
    /// Cost of a cluster-local system call from the runtime library.
    pub syscall_cluster: Cycles,
    /// Cost of a global system call (task creation/start across
    /// clusters).
    pub syscall_global: Cycles,
    /// Duration of one cluster critical-section entry.
    pub cr_sect_cluster: Cycles,
    /// Duration of one global critical-section entry.
    pub cr_sect_global: Cycles,
    /// Mean interval between asynchronous system traps per cluster.
    pub(crate) ast_interval: Cycles,
    /// Cost of servicing one AST.
    pub(crate) ast_cost: Cycles,
}

impl OsConfig {
    /// Parameters calibrated for the Cedar reproduction.
    pub fn cedar() -> Self {
        OsConfig {
            // Small pages keep fault counts realistic at our ~1000x scaled
            // data sizes (the real Xylem used larger pages on larger data).
            page_bytes: 16 * 1024,
            page_fault_sequential: Cycles(350),
            page_fault_concurrent: Cycles(550),
            cpi_cost_per_ce: Cycles(320),
            ctx_interval: Cycles(55_000),
            ctx_cost_per_ce: Cycles(220),
            daemon_duration: Cycles(1_100),
            daemon_cr_sect_fraction: 0.35,
            daemon_syscall_fraction: 0.15,
            syscall_cluster: Cycles(260),
            syscall_global: Cycles(800),
            cr_sect_cluster: Cycles(140),
            cr_sect_global: Cycles(220),
            ast_interval: Cycles(600_000),
            ast_cost: Cycles(120),
        }
    }

    /// Sanity-checks invariants the model relies on.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is outside `[0, 1]`, the fractions exceed 1
    /// combined, or the concurrent fault is not at least as expensive as
    /// the sequential one.
    pub fn validate(&self) {
        assert!(self.page_bytes > 0, "page size must be positive");
        assert!(
            self.page_fault_concurrent >= self.page_fault_sequential,
            "concurrent faults are more expensive than sequential (§5.1)"
        );
        for f in [self.daemon_cr_sect_fraction, self.daemon_syscall_fraction] {
            assert!((0.0..=1.0).contains(&f), "fraction {f} outside [0,1]");
        }
        assert!(
            self.daemon_cr_sect_fraction + self.daemon_syscall_fraction <= 1.0,
            "daemon work fractions exceed the daemon duration"
        );
    }
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig::cedar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cedar_config_is_valid() {
        OsConfig::cedar().validate();
    }

    #[test]
    fn concurrent_fault_costs_more() {
        let c = OsConfig::cedar();
        assert!(c.page_fault_concurrent > c.page_fault_sequential);
    }

    #[test]
    #[should_panic(expected = "more expensive")]
    fn validate_rejects_cheap_concurrent_fault() {
        let mut c = OsConfig::cedar();
        c.page_fault_concurrent = Cycles(1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "exceed the daemon duration")]
    fn validate_rejects_oversubscribed_daemon() {
        let mut c = OsConfig::cedar();
        c.daemon_cr_sect_fraction = 0.7;
        c.daemon_syscall_fraction = 0.7;
        c.validate();
    }
}
