//! Global-memory layout: placing runtime words and application arrays.

use cedar_apps::{AccessPattern, AppSpec};
use cedar_hw::addr::DWORD_BYTES;
use cedar_hw::{GlobalAddr, MemOp, VectorAccess};
use cedar_rtl::RtlWords;
use cedar_xylem::config::PAGE_BYTES;

/// The resolved memory map for one run.
#[derive(Debug, Clone)]
pub(crate) struct MemoryLayout {
    words: RtlWords,
    array_bases: Vec<GlobalAddr>,
    array_dwords: Vec<u64>,
}

impl MemoryLayout {
    /// Lays out the runtime data area followed by the application's
    /// arrays, each aligned to a page boundary.
    pub fn new(app: &AppSpec) -> Self {
        let words = RtlWords::cedar();
        let mut cursor = align_up(words.end().0, PAGE_BYTES);
        let mut array_bases = Vec::with_capacity(app.arrays.len());
        let mut array_dwords = Vec::with_capacity(app.arrays.len());
        for a in &app.arrays {
            array_bases.push(GlobalAddr(cursor));
            array_dwords.push(a.bytes / DWORD_BYTES);
            cursor = align_up(cursor + a.bytes, PAGE_BYTES);
        }
        MemoryLayout {
            words,
            array_bases,
            array_dwords,
        }
    }

    /// The runtime coordination words.
    pub fn words(&self) -> RtlWords {
        self.words
    }

    /// Resolves an access pattern for logical iteration `iter` into a
    /// concrete vector access, wrapping within the array so that the
    /// access always stays in bounds while successive iterations walk
    /// the array.
    pub(crate) fn resolve(&self, a: &AccessPattern, iter: u64, op: MemOp) -> VectorAccess {
        let dwords = self.array_dwords[a.array];
        let span = (a.words as u64).saturating_sub(1) * a.stride_dwords + 1;
        debug_assert!(span <= dwords, "validated by AppSpec::validate");
        let max_start = (dwords - span).max(1);
        let start = (a.base_offset + iter.wrapping_mul(a.offset_per_iter)) % max_start;
        VectorAccess {
            base: self.array_bases[a.array].offset(start * DWORD_BYTES),
            words: a.words,
            stride_dwords: a.stride_dwords,
            op,
        }
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;

    fn layout() -> MemoryLayout {
        MemoryLayout::new(&synthetic::streaming(1, 2, 2, 8))
    }

    #[test]
    fn arrays_are_page_aligned_and_disjoint() {
        let l = layout();
        let a = l.array_bases[0];
        let b = l.array_bases[1];
        assert_eq!(a.0 % PAGE_BYTES, 0);
        assert_eq!(b.0 % PAGE_BYTES, 0);
        assert!(b.0 >= a.0 + 2 * 1024 * 1024);
    }

    #[test]
    fn arrays_start_after_rtl_words() {
        let l = layout();
        assert!(l.array_bases[0].0 >= l.words().end().0);
    }

    #[test]
    fn resolve_walks_the_array_per_iteration() {
        let l = layout();
        let a = AccessPattern::sweep(0, 8);
        let v0 = l.resolve(&a, 0, MemOp::Read);
        let v1 = l.resolve(&a, 1, MemOp::Read);
        assert_eq!(v1.base.0 - v0.base.0, 8 * DWORD_BYTES);
    }

    #[test]
    fn resolve_wraps_within_bounds() {
        let l = layout();
        let a = AccessPattern::sweep(0, 8);
        let dwords = 2 * 1024 * 1024 / 8;
        for iter in [0u64, 1_000, 100_000, u64::MAX / 16] {
            let v = l.resolve(&a, iter, MemOp::Read);
            let last = v.base.0 + (v.words as u64 - 1) * v.stride_dwords * DWORD_BYTES;
            assert!(v.base.0 >= l.array_bases[0].0);
            assert!(last < l.array_bases[0].0 + dwords * DWORD_BYTES);
        }
    }

    #[test]
    fn resolve_preserves_stride_and_op() {
        let l = layout();
        let a = AccessPattern::strided(1, 4, 16);
        let v = l.resolve(&a, 3, MemOp::Write(0));
        assert_eq!(v.stride_dwords, 16);
        assert_eq!(v.op, MemOp::Write(0));
        assert_eq!(v.words, 4);
    }
}
