//! Global-memory addressing.
//!
//! The Cedar global memory is double-word (8 byte) interleaved and aligned
//! across 32 independent modules (§2). Address `a` therefore lives in
//! module `(a / 8) mod 32`.

use std::fmt;
use std::ops::Add;

use crate::topology::{ModuleId, MODULES};

/// Bytes per interleaving unit (one double word).
pub const DWORD_BYTES: u64 = 8;

/// A byte address in Cedar shared global memory.
///
/// # Example
///
/// ```
/// use cedar_hw::GlobalAddr;
/// let a = GlobalAddr(0x100);
/// assert_eq!(a.module().0, (0x100 / 8) % 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalAddr(pub u64);

impl GlobalAddr {
    /// The memory module this address interleaves to.
    pub fn module(self) -> ModuleId {
        // 32 modules: the interleave is a mask.
        ModuleId((self.dword_index() & (MODULES as u64 - 1)) as u16)
    }

    /// The double-word index of this address (used as the key for lock and
    /// flag words stored in module state).
    pub fn dword_index(self) -> u64 {
        self.0 / DWORD_BYTES
    }

    /// The page this address belongs to, for `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn page(self, page_bytes: u64) -> PageId {
        assert!(page_bytes > 0, "page size must be positive");
        PageId(self.0 / page_bytes)
    }

    /// Address advanced by `bytes`.
    pub fn offset(self, bytes: u64) -> GlobalAddr {
        GlobalAddr(self.0 + bytes)
    }
}

impl Add<u64> for GlobalAddr {
    type Output = GlobalAddr;
    fn add(self, rhs: u64) -> GlobalAddr {
        self.offset(rhs)
    }
}

impl fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A virtual-memory page number (address / page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{}", self.0)
    }
}

/// Iterator over the distinct pages touched by a strided access of
/// `words` double-words starting at `base` with a stride of
/// `stride_dwords` double-words.
///
/// Allocation-free: addresses are non-decreasing (strides are
/// non-negative), so the page sequence is non-decreasing and dropping
/// adjacent repeats is a full dedup. Called once per vector access on
/// the machine's hot path.
pub fn pages_touched(
    base: GlobalAddr,
    words: u32,
    stride_dwords: u64,
    page_bytes: u64,
) -> impl Iterator<Item = PageId> {
    let mut last: Option<PageId> = None;
    (0..words as u64).filter_map(move |k| {
        let p = base
            .offset(k * stride_dwords * DWORD_BYTES)
            .page(page_bytes);
        if last == Some(p) {
            None
        } else {
            last = Some(p);
            Some(p)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dword_interleaving_matches_paper() {
        // Consecutive double words land in consecutive modules.
        for i in 0..64u64 {
            let a = GlobalAddr(i * DWORD_BYTES);
            assert_eq!(a.module().0, (i % 32) as u16);
        }
    }

    #[test]
    fn same_dword_same_module() {
        // All byte addresses within one double word map to one module.
        for b in 0..8u64 {
            assert_eq!(GlobalAddr(0x40 + b).module(), GlobalAddr(0x40).module());
        }
    }

    #[test]
    fn page_mapping() {
        let p = 4096;
        assert_eq!(GlobalAddr(0).page(p), PageId(0));
        assert_eq!(GlobalAddr(4095).page(p), PageId(0));
        assert_eq!(GlobalAddr(4096).page(p), PageId(1));
    }

    #[test]
    fn pages_touched_unit_stride() {
        // 1024 dwords from 0 = 8 KiB = two 4 KiB pages.
        let pages: Vec<PageId> = pages_touched(GlobalAddr(0), 1024, 1, 4096).collect();
        assert_eq!(pages, vec![PageId(0), PageId(1)]);
    }

    #[test]
    fn pages_touched_large_stride_skips_pages() {
        // Stride of 512 dwords = 4 KiB: each word lands on a new page.
        assert_eq!(pages_touched(GlobalAddr(0), 4, 512, 4096).count(), 4);
    }

    #[test]
    fn pages_touched_dedups_revisits() {
        let pages: Vec<PageId> = pages_touched(GlobalAddr(0), 16, 1, 4096).collect();
        assert_eq!(pages, vec![PageId(0)]);
    }
}
