//! Network packets: global-memory requests and responses.

use crate::addr::GlobalAddr;
use crate::topology::{CeId, ModuleId};

/// The operation a request performs at the memory module.
///
/// `TestAndSet`, `Unset` and `FetchAdd` are the synchronization primitives
/// the Cedar Fortran runtime builds its loop-dispatch locks, activity
/// flags and barrier counters from; they execute atomically at the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Read a double word; the response carries the stored value.
    Read,
    /// Write a double word.
    Write(u64),
    /// Atomically read the old value and store 1 (lock acquire attempt;
    /// old value 0 means the lock was obtained).
    TestAndSet,
    /// Store 0 (lock release).
    Unset,
    /// Atomically add a delta and return the *old* value (used for barrier
    /// counters and self-scheduled iteration indices).
    FetchAdd(i64),
}

impl MemOp {
    /// `true` for the synchronization primitives (they address hot lock
    /// words, which matters for hot-spot statistics).
    pub(crate) fn is_sync(self) -> bool {
        matches!(self, MemOp::TestAndSet | MemOp::Unset | MemOp::FetchAdd(_))
    }
}

/// A request packet travelling CE → forward network → memory module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuing computational element.
    pub ce: CeId,
    /// Target address.
    pub addr: GlobalAddr,
    /// Destination module (precomputed from `addr` at injection).
    pub module: ModuleId,
    /// Operation to perform at the module.
    pub op: MemOp,
    /// Injection timestamp in cycles (for end-to-end latency stats).
    pub injected_at: u64,
}

/// A response packet travelling memory module → reverse network → CE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// CE to deliver to.
    pub ce: CeId,
    /// Value returned by the module (old value for `TestAndSet` /
    /// `FetchAdd`, stored value for `Read`, undefined-but-zero for pure
    /// writes).
    pub value: u64,
    /// Module that served the request.
    pub module: ModuleId,
    /// Injection timestamp copied from the request.
    pub injected_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(MemOp::TestAndSet.is_sync());
        assert!(MemOp::FetchAdd(1).is_sync());
        assert!(!MemOp::Read.is_sync());
        assert!(!MemOp::Write(0).is_sync());
        assert!(MemOp::Unset.is_sync());
    }
}
