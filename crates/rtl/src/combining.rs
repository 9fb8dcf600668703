//! Software combining trees (Yew, Tzeng & Lawrie \[16\]).
//!
//! §6 argues that a flat 32-task barrier on one global-memory word
//! "would create a hot spot and could severely degrade performance for
//! all traffic in the multistage interconnection network \[15\]", and that
//! "special mechanisms such as hardware message combining in the
//! interconnection network or software combining tree approach \[16\]
//! would be needed". This module provides the combining-tree layout and
//! arrival logic so the claim can be measured (see the `combining`
//! experiment binary).
//!
//! An N-participant, fanout-k tree assigns each participant a leaf
//! counter; the *last* arriver at each node propagates one fetch-add to
//! the parent, so each counter word sees at most `k` operations and the
//! counters are spread across memory modules by the interleaving.

use cedar_hw::addr::DWORD_BYTES;
use cedar_hw::GlobalAddr;

/// Layout and arrival logic for one software combining tree.
#[derive(Debug, Clone)]
pub struct CombiningTree {
    base: GlobalAddr,
    fanout: u32,
    participants: u32,
    /// `levels[l]` = number of nodes at level `l` (0 = leaves).
    levels: Vec<u32>,
}

impl CombiningTree {
    /// Builds a tree for `participants` arrivers with the given fanout,
    /// its counters laid out from `base` (consecutive double words, so
    /// the interleaving spreads them across modules).
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2` or `participants == 0`.
    pub fn new(base: GlobalAddr, participants: u32, fanout: u32) -> Self {
        assert!(fanout >= 2, "combining fanout must be at least 2");
        assert!(participants > 0, "tree needs participants");
        let mut levels = Vec::new();
        let mut width = participants.div_ceil(fanout);
        loop {
            levels.push(width);
            if width == 1 {
                break;
            }
            width = width.div_ceil(fanout);
        }
        CombiningTree {
            base,
            fanout,
            participants,
            levels,
        }
    }

    /// Number of tree levels (1 for ≤ `fanout` participants).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total counter words the tree occupies.
    pub fn words(&self) -> u32 {
        self.levels.iter().sum()
    }

    /// Address of node `idx` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub(crate) fn node(&self, level: usize, idx: u32) -> GlobalAddr {
        assert!(level < self.levels.len(), "level {level} out of range");
        assert!(idx < self.levels[level], "node {idx} out of range");
        let before: u32 = self.levels[..level].iter().sum();
        self.base.offset((before + idx) as u64 * DWORD_BYTES)
    }

    /// The leaf node participant `p` arrives at.
    pub fn leaf_of(&self, p: u32) -> GlobalAddr {
        self.node(0, (p / self.fanout).min(self.levels[0] - 1))
    }

    /// How many arrivals node `idx` at `level` expects before it
    /// propagates to its parent (the last group may be partial).
    pub(crate) fn expected_at(&self, level: usize, idx: u32) -> u32 {
        let inputs = if level == 0 {
            self.participants
        } else {
            self.levels[level - 1]
        };
        let full = self.fanout;
        let last = idx == self.levels[level] - 1;
        if last {
            inputs - (self.levels[level] - 1) * full
        } else {
            full
        }
    }

    /// Given that a fetch-add on node `(level, idx)` returned `old`
    /// (pre-increment count), returns the parent node to propagate to —
    /// `Some(addr)` if this arrival completed the node and a parent
    /// exists, `None` otherwise. The root's completer is the barrier's
    /// releaser.
    pub fn propagate(&self, level: usize, idx: u32, old: u64) -> Propagation {
        let expected = self.expected_at(level, idx) as u64;
        if old + 1 < expected {
            return Propagation::Waiting;
        }
        if level + 1 >= self.levels.len() {
            // At the root: with a multi-level tree the root combines the
            // level below; a single-level tree's only node *is* the root.
            if self.levels.len() == 1 || level == self.levels.len() - 1 {
                return Propagation::Release;
            }
        }
        let parent_idx = (idx / self.fanout).min(self.levels[level + 1] - 1);
        Propagation::Up {
            level: level + 1,
            idx: parent_idx,
            addr: self.node(level + 1, parent_idx),
        }
    }

    /// Node coordinates of a leaf address (for driving `propagate`).
    pub fn leaf_index(&self, p: u32) -> u32 {
        (p / self.fanout).min(self.levels[0] - 1)
    }
}

/// Result of one combining-tree arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Propagation {
    /// Not the last arrival at this node; wait for release.
    Waiting,
    /// Last arrival: fetch-add the parent node next.
    Up {
        /// Parent level.
        level: usize,
        /// Parent index within the level.
        idx: u32,
        /// Parent counter address.
        addr: GlobalAddr,
    },
    /// Completed the root: release the barrier.
    Release,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: u32, k: u32) -> CombiningTree {
        CombiningTree::new(GlobalAddr(0x4000), n, k)
    }

    #[test]
    fn single_level_tree_for_small_groups() {
        let t = tree(8, 8);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.words(), 1);
        assert_eq!(t.expected_at(0, 0), 8);
    }

    #[test]
    fn thirty_two_participants_fanout_four() {
        let t = tree(32, 4);
        // 8 leaves, 2 mid nodes, 1 root.
        assert_eq!(t.depth(), 3);
        assert_eq!(t.words(), 8 + 2 + 1);
        assert_eq!(t.expected_at(0, 0), 4);
        assert_eq!(t.expected_at(1, 0), 4);
        assert_eq!(t.expected_at(2, 0), 2);
    }

    #[test]
    fn leaves_spread_across_modules() {
        let t = tree(32, 4);
        let modules: Vec<u16> = (0..8).map(|i| t.node(0, i).module().0).collect();
        let mut uniq = modules.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "leaf counters on distinct modules");
    }

    #[test]
    fn propagation_chain_reaches_release() {
        let t = tree(32, 4);
        // Last arriver at leaf 0 (old = 3 of expected 4) goes up.
        match t.propagate(0, 0, 3) {
            Propagation::Up { level, idx, .. } => {
                assert_eq!((level, idx), (1, 0));
            }
            other => panic!("expected Up, got {other:?}"),
        }
        // Earlier arrivers wait.
        assert_eq!(t.propagate(0, 0, 1), Propagation::Waiting);
        // Completing the root releases.
        assert_eq!(t.propagate(2, 0, 1), Propagation::Release);
    }

    #[test]
    fn partial_last_groups_expect_fewer() {
        // 10 participants, fanout 4: leaves expect 4, 4, 2.
        let t = tree(10, 4);
        assert_eq!(t.levels[0], 3);
        assert_eq!(t.expected_at(0, 0), 4);
        assert_eq!(t.expected_at(0, 2), 2);
    }

    #[test]
    fn leaf_assignment_is_total() {
        let t = tree(32, 4);
        for p in 0..32 {
            let leaf = t.leaf_index(p);
            assert!(leaf < 8);
            assert_eq!(t.leaf_of(p), t.node(0, leaf));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate_fanout() {
        tree(8, 1);
    }
}
