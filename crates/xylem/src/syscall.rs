//! System calls the runtime library makes.
//!
//! The Cedar Fortran runtime creates one helper task per non-master
//! cluster "with the help of the OS" (§2); task creation, start and
//! inter-task synchronization are Xylem system calls. Cluster-local calls
//! are cheap; global calls (crossing clusters) are expensive but rare —
//! Table 2 shows `glbl syscall` at ≤0.05% of completion time.

use cedar_sim::Cycles;

use crate::config::{SYSCALL_CLUSTER, SYSCALL_GLOBAL};

/// Kinds of system calls the modelled runtime issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    /// Create a helper cluster task (global: coordinates across clusters).
    TaskCreate,
    /// Start a created task on its cluster (global).
    TaskStart,
    /// Stop/detach a task at program end (global).
    TaskStop,
    /// Cluster-local resource request (scheduling, memory growth).
    ClusterResource,
    /// Cluster-local bookkeeping call.
    ClusterMisc,
}

impl SyscallKind {
    /// `true` for calls that cross cluster boundaries (global syscalls).
    pub fn is_global(self) -> bool {
        matches!(
            self,
            SyscallKind::TaskCreate | SyscallKind::TaskStart | SyscallKind::TaskStop
        )
    }

    /// Service time of this call.
    pub fn cost(self) -> Cycles {
        if self.is_global() {
            SYSCALL_GLOBAL
        } else {
            SYSCALL_CLUSTER
        }
    }

    /// Whether serving this call also enters a critical section, and
    /// which kind (global calls take the global resource lock; cluster
    /// resource requests take the cluster lock).
    pub fn critical_section(self) -> Option<CrSect> {
        match self {
            SyscallKind::TaskCreate | SyscallKind::TaskStart | SyscallKind::TaskStop => {
                Some(CrSect::Global)
            }
            SyscallKind::ClusterResource => Some(CrSect::Cluster),
            SyscallKind::ClusterMisc => None,
        }
    }
}

/// Which critical section a syscall enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrSect {
    /// Protected by a cluster memory lock.
    Cluster,
    /// Protected by a global memory lock.
    Global,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_calls_are_global() {
        assert!(SyscallKind::TaskCreate.is_global());
        assert!(SyscallKind::TaskStart.is_global());
        assert!(SyscallKind::TaskStop.is_global());
        assert!(!SyscallKind::ClusterResource.is_global());
        assert!(!SyscallKind::ClusterMisc.is_global());
    }

    #[test]
    fn global_calls_cost_more() {
        assert!(SyscallKind::TaskCreate.cost() > SyscallKind::ClusterMisc.cost());
        assert_eq!(SyscallKind::ClusterResource.cost(), SYSCALL_CLUSTER);
    }

    #[test]
    fn critical_sections_follow_scope() {
        assert_eq!(
            SyscallKind::TaskCreate.critical_section(),
            Some(CrSect::Global)
        );
        assert_eq!(
            SyscallKind::ClusterResource.critical_section(),
            Some(CrSect::Cluster)
        );
        assert_eq!(SyscallKind::ClusterMisc.critical_section(), None);
    }
}
