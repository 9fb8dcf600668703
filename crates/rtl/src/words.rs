//! Well-known runtime-library words in global memory.
//!
//! The runtime keeps its coordination state — the `sdoall_activity` word,
//! the lock protecting the loop iteration index, the index itself, the
//! descriptor and the joined-task count — in shared global memory, where
//! every access travels through the interconnection network. Their
//! addresses are consecutive double words, so the interleaving places
//! them on distinct memory modules.

use cedar_hw::addr::DWORD_BYTES;
use cedar_hw::GlobalAddr;

/// Addresses of the runtime's coordination words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtlWords {
    /// The `sdoall_activity` word helpers spin on (§7).
    pub activity: GlobalAddr,
    /// Lock protecting the loop iteration index (§6: the test-and-set
    /// target of `xdoall` distribution).
    pub lock: GlobalAddr,
    /// The shared loop iteration index.
    pub index: GlobalAddr,
    /// The packed loop descriptor (total iteration count).
    pub descriptor: GlobalAddr,
    /// Count of tasks currently joined to the loop (fetch-and-add).
    pub joined: GlobalAddr,
    /// DOACROSS serialization ticket (iteration whose serialized region
    /// may run).
    pub ticket: GlobalAddr,
}

impl RtlWords {
    /// The runtime data area used by the reproduction, starting at
    /// `base`. Consecutive double words land on consecutive modules.
    pub fn at(base: GlobalAddr) -> Self {
        RtlWords {
            activity: base,
            lock: base.offset(DWORD_BYTES),
            index: base.offset(2 * DWORD_BYTES),
            descriptor: base.offset(3 * DWORD_BYTES),
            joined: base.offset(4 * DWORD_BYTES),
            ticket: base.offset(5 * DWORD_BYTES),
        }
    }

    /// Default placement (past the zero page).
    pub fn cedar() -> Self {
        RtlWords::at(GlobalAddr(0x2000))
    }

    /// End of the runtime data area; application arrays are laid out
    /// above this.
    pub fn end(&self) -> GlobalAddr {
        self.ticket.offset(DWORD_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_distinct_dwords() {
        let w = RtlWords::cedar();
        let addrs = [
            w.activity,
            w.lock,
            w.index,
            w.descriptor,
            w.joined,
            w.ticket,
        ];
        for (i, a) in addrs.iter().enumerate() {
            for b in addrs.iter().skip(i + 1) {
                assert_ne!(a.dword_index(), b.dword_index());
            }
        }
    }

    #[test]
    fn words_land_on_distinct_modules() {
        let w = RtlWords::cedar();
        let m: Vec<u16> = [
            w.activity,
            w.lock,
            w.index,
            w.descriptor,
            w.joined,
            w.ticket,
        ]
        .iter()
        .map(|a| a.module().0)
        .collect();
        let mut dedup = m.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), m.len(), "interleaving must spread the words");
    }

    #[test]
    fn end_is_past_all_words() {
        let w = RtlWords::cedar();
        assert!(w.end() > w.ticket);
        assert!(w.ticket > w.joined);
    }
}
