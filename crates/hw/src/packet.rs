//! The global-memory packet, the operation it performs and the
//! response its round trip delivers.

use cedar_sim::{Cycles, SimTime};

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

/// The hop a packet takes next, in route order; its arrival there is
/// the packet's event. `Delivered` is the arrival at the issuing CE's
/// Global Interface. Every other hop is one layer of FCFS servers, and
/// its discriminant is the layer's index in route order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Hop {
    FwdStage1,
    FwdStage2,
    AtModule,
    RevStage1,
    RevStage2,
    Delivered,
}

impl Hop {
    /// The hop after each server layer, indexed by the layer's hop.
    pub(crate) const NEXT: [Hop; 5] = [
        Hop::FwdStage2,
        Hop::AtModule,
        Hop::RevStage1,
        Hop::RevStage2,
        Hop::Delivered,
    ];
}

/// A [`MemOp`] without its operand, which the packet's word carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    TestAndSet,
    Unset,
    FetchAdd,
}

/// One global-memory packet in flight, as the event of its next hop.
///
/// The same 24 bytes travel CE → forward network → module → reverse
/// network → CE: the address (the module is its interleave bits), one
/// 64-bit word (the op's operand on the way out, the module's value on
/// the way back), a 32-bit injection stamp, the issuing CE, the op kind
/// and the hop. `cedar-core` wraps it in its master event enum and
/// feeds it back into [`GlobalMemorySystem::handle`](crate::GlobalMemorySystem::handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmemEvent {
    pub(crate) addr: GlobalAddr,
    pub(crate) word: u64,
    /// Low 32 bits of the injection time. Round trips are far below
    /// 2^32 cycles, so the wrapping difference is the exact latency.
    stamp: u32,
    pub(crate) ce: CeId,
    op: OpKind,
    pub(crate) hop: Hop,
}

const _: () = assert!(std::mem::size_of::<GmemEvent>() == 24);

impl GmemEvent {
    /// A fresh request from `ce` for `addr`/`op`, injected at `now` and
    /// bound for its stage-1 switch.
    pub(crate) fn new(ce: CeId, addr: GlobalAddr, op: MemOp, now: SimTime) -> Self {
        let (op, word) = match op {
            MemOp::Read => (OpKind::Read, 0),
            MemOp::Write(v) => (OpKind::Write, v),
            MemOp::TestAndSet => (OpKind::TestAndSet, 0),
            MemOp::Unset => (OpKind::Unset, 0),
            MemOp::FetchAdd(d) => (OpKind::FetchAdd, d as u64),
        };
        GmemEvent {
            addr,
            word,
            stamp: now.0 as u32,
            ce,
            op,
            hop: Hop::FwdStage1,
        }
    }

    /// The operation, rebuilt from its kind and the outbound word.
    pub(crate) fn op(&self) -> MemOp {
        match self.op {
            OpKind::Read => MemOp::Read,
            OpKind::Write => MemOp::Write(self.word),
            OpKind::TestAndSet => MemOp::TestAndSet,
            OpKind::Unset => MemOp::Unset,
            OpKind::FetchAdd => MemOp::FetchAdd(self.word as i64),
        }
    }

    /// Cycles since injection, at `now`.
    pub(crate) fn age(&self, now: SimTime) -> Cycles {
        Cycles(u64::from((now.0 as u32).wrapping_sub(self.stamp)))
    }
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
    /// Injection time in cycles (delivery time minus the packet's age).
    pub injected_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_operands_survive_the_packet() {
        for op in [
            MemOp::Write(u64::MAX),
            MemOp::FetchAdd(i64::MIN),
            MemOp::FetchAdd(-1),
        ] {
            assert_eq!(
                GmemEvent::new(CeId(31), GlobalAddr(0x1F8), op, Cycles(7)).op(),
                op
            );
        }
    }

    #[test]
    fn age_is_exact_across_the_stamp_wrap() {
        let injected = (1u64 << 32) - 5;
        let p = GmemEvent::new(CeId(0), GlobalAddr(0), MemOp::Read, Cycles(injected));
        assert_eq!(p.age(Cycles(injected + 20)), Cycles(20));
    }

    #[test]
    fn op_classification() {
        assert!(MemOp::TestAndSet.is_sync());
        assert!(MemOp::FetchAdd(1).is_sync());
        assert!(!MemOp::Read.is_sync());
        assert!(!MemOp::Write(0).is_sync());
        assert!(MemOp::Unset.is_sync());
    }
}
