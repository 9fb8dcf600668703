//! Parallel-loop constructs and the activity word that posts them.

use std::fmt;

/// The Cedar Fortran loop-parallel constructs (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKind {
    /// Hierarchical SDOALL/CDOALL: outer iterations self-scheduled one
    /// per cluster task, inner iterations spread over the cluster.
    Sdoall,
    /// Flat XDOALL: all CEs of all clusters compete for iterations of a
    /// single global index.
    Xdoall,
    /// Main-cluster-only CDOALL (no outer spread loop).
    Cluster,
    /// DOACROSS: parallel loop with serialized regions.
    Doacross,
}

impl LoopKind {
    /// Code used in the packed activity word and trace-event arguments.
    pub fn code(self) -> u32 {
        match self {
            LoopKind::Sdoall => 1,
            LoopKind::Xdoall => 2,
            LoopKind::Cluster => 3,
            LoopKind::Doacross => 4,
        }
    }

    /// Decodes a construct code.
    pub(crate) fn from_code(code: u32) -> Option<LoopKind> {
        match code {
            1 => Some(LoopKind::Sdoall),
            2 => Some(LoopKind::Xdoall),
            3 => Some(LoopKind::Cluster),
            4 => Some(LoopKind::Doacross),
            _ => None,
        }
    }

    /// `true` for constructs posted to helpers across clusters (cluster
    /// loops and doacross run on the main cluster only).
    pub fn is_cross_cluster(self) -> bool {
        matches!(self, LoopKind::Sdoall | LoopKind::Xdoall)
    }
}

impl fmt::Display for LoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LoopKind::Sdoall => "sdoall",
            LoopKind::Xdoall => "xdoall",
            LoopKind::Cluster => "cdoall(main)",
            LoopKind::Doacross => "doacross",
        };
        f.write_str(s)
    }
}

/// Code used in the activity word to tell helpers the program has ended.
pub const TERMINATE_CODE: u32 = 7;

/// Packs the activity word helpers spin on from a loop sequence number
/// (monotonically increasing, starting at 1) and a construct code.
pub fn pack_activity(seq: u32, kind_code: u32) -> u64 {
    (seq as u64) << 3 | kind_code as u64
}

/// Unpacks an activity word into `(seq, kind_code)`.
pub(crate) fn unpack_activity(word: u64) -> (u32, u32) {
    ((word >> 3) as u32, (word & 0x7) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for k in [
            LoopKind::Sdoall,
            LoopKind::Xdoall,
            LoopKind::Cluster,
            LoopKind::Doacross,
        ] {
            assert_eq!(LoopKind::from_code(k.code()), Some(k));
        }
        assert_eq!(LoopKind::from_code(0), None);
        assert_eq!(LoopKind::from_code(TERMINATE_CODE), None);
    }

    #[test]
    fn packed_activity_round_trips() {
        let (seq, code) = unpack_activity(pack_activity(12345, LoopKind::Xdoall.code()));
        assert_eq!(seq, 12345);
        assert_eq!(code, LoopKind::Xdoall.code());
    }

    #[test]
    fn zero_word_means_no_work() {
        let (seq, code) = unpack_activity(0);
        assert_eq!(seq, 0);
        assert_eq!(LoopKind::from_code(code), None);
    }

    #[test]
    fn cross_cluster_classification() {
        assert!(LoopKind::Sdoall.is_cross_cluster());
        assert!(LoopKind::Xdoall.is_cross_cluster());
        assert!(!LoopKind::Cluster.is_cross_cluster());
        assert!(!LoopKind::Doacross.is_cross_cluster());
    }
}
