//! Strided vector accesses to global memory.
//!
//! The Cedar CEs are pipelined vector processors (§2); parallel loop
//! bodies mostly operate on vector sections of global arrays, so "there
//! could be multiple vector requests issued to the global memory from
//! different processors at the same time leading to substantial global
//! memory and network activity, and hence contention" (§7). A
//! [`VectorAccess`] describes one such burst; the CE injects its words
//! pipelined at one per cycle.

use crate::addr::{GlobalAddr, DWORD_BYTES};
use crate::packet::MemOp;
use crate::topology::MODULES;

/// One strided burst of double-word accesses.
///
/// # Example
///
/// ```
/// use cedar_hw::{VectorAccess, GlobalAddr, MemOp};
///
/// let v = VectorAccess::read(GlobalAddr(0), 4, 2);
/// let addrs: Vec<u64> = v.addresses().map(|a| a.0).collect();
/// assert_eq!(addrs, vec![0, 16, 32, 48]); // stride of 2 dwords
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorAccess {
    /// First element address.
    pub base: GlobalAddr,
    /// Number of double words.
    pub words: u32,
    /// Stride between elements, in double words.
    pub stride_dwords: u64,
    /// Operation applied to every element.
    pub op: MemOp,
}

impl VectorAccess {
    /// A strided vector load.
    pub fn read(base: GlobalAddr, words: u32, stride_dwords: u64) -> Self {
        VectorAccess {
            base,
            words,
            stride_dwords,
            op: MemOp::Read,
        }
    }

    /// A strided vector store.
    pub fn write(base: GlobalAddr, words: u32, stride_dwords: u64) -> Self {
        VectorAccess {
            base,
            words,
            stride_dwords,
            op: MemOp::Write(0),
        }
    }

    /// Iterator over the element addresses, in issue order.
    pub fn addresses(&self) -> impl Iterator<Item = GlobalAddr> + '_ {
        let base = self.base;
        let stride = self.stride_dwords;
        (0..self.words as u64).map(move |k| base.offset(k * stride * DWORD_BYTES))
    }

    /// Bytes spanned from the first to one past the last element.
    pub fn span_bytes(&self) -> u64 {
        if self.words == 0 {
            0
        } else {
            ((self.words as u64 - 1) * self.stride_dwords + 1) * DWORD_BYTES
        }
    }

    /// Number of *distinct* memory modules touched — unit-stride
    /// vectors sweep all modules, while power-of-two strides can
    /// concentrate on few (classic interleaving pathology).
    pub fn modules_touched(&self) -> usize {
        let mut seen = [false; MODULES];
        let mut count = 0;
        for a in self.addresses() {
            let m = a.module().0 as usize;
            if !seen[m] {
                seen[m] = true;
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_sweeps_all_modules() {
        let v = VectorAccess::read(GlobalAddr(0), 64, 1);
        assert_eq!(v.modules_touched(), 32);
    }

    #[test]
    fn stride_32_hits_one_module() {
        // Stride equal to the module count: every element lands on the
        // same module — the worst case for an interleaved memory.
        let v = VectorAccess::read(GlobalAddr(0), 16, 32);
        assert_eq!(v.modules_touched(), 1);
    }

    #[test]
    fn stride_2_hits_half_the_modules() {
        let v = VectorAccess::read(GlobalAddr(0), 64, 2);
        assert_eq!(v.modules_touched(), 16);
    }

    #[test]
    fn addresses_follow_stride() {
        let v = VectorAccess::write(GlobalAddr(0x100), 3, 4);
        let a: Vec<u64> = v.addresses().map(|x| x.0).collect();
        assert_eq!(a, vec![0x100, 0x120, 0x140]);
    }

    #[test]
    fn span_bytes() {
        assert_eq!(VectorAccess::read(GlobalAddr(0), 0, 1).span_bytes(), 0);
        assert_eq!(VectorAccess::read(GlobalAddr(0), 1, 7).span_bytes(), 8);
        assert_eq!(VectorAccess::read(GlobalAddr(0), 4, 2).span_bytes(), 7 * 8);
    }
}
