//! System calls the runtime library makes.
//!
//! The Cedar Fortran runtime creates one helper task per non-master
//! cluster "with the help of the OS" (§2): it creates and starts each
//! helper at program start and stops it at program end. All three are
//! global calls: each costs [`SYSCALL_GLOBAL`](crate::config::SYSCALL_GLOBAL)
//! and enters a global critical section. They are expensive but rare —
//! Table 2 shows `glbl syscall` at ≤0.05% of completion time. The
//! `clus syscall` row is the bookkeeping daemon's share.

/// Which critical section a kernel path enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrSect {
    /// Protected by a cluster memory lock.
    Cluster,
    /// Protected by a global memory lock.
    Global,
}
