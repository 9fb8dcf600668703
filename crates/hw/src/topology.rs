//! Machine topology: clusters, computational elements, memory modules,
//! and the standard Cedar configurations the paper measures.

use std::fmt;

/// Identifies one of the (up to four) Cedar clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u8);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// Identifies a computational element, globally numbered `0..32`.
///
/// CEs are numbered cluster-major: CE `c` belongs to cluster `c / 8` and
/// is CE `c % 8` within it (for the full machine shape; smaller
/// configurations use a prefix of the numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CeId(pub u16);

/// CEs per cluster on the real Cedar.
pub(crate) const CES_PER_CLUSTER: u16 = 8;

/// Clusters in the full machine (§2).
pub(crate) const CLUSTERS: usize = 4;

/// Ports on each cluster's shared path to its Global Interfaces: a
/// cluster issues at most this many global-memory words per cycle. This
/// is why FLO52's contention overhead peaks on the single-cluster
/// configurations (Table 4: 27% at 8 processors).
pub(crate) const CLUSTER_PORTS: usize = 2;

/// Independent, double-word interleaved global-memory modules (§2).
pub(crate) const MODULES: usize = 32;

impl CeId {
    /// The cluster this CE belongs to (full-machine numbering).
    pub fn cluster(self) -> ClusterId {
        ClusterId((self.0 / CES_PER_CLUSTER) as u8)
    }

    /// Index of this CE within its cluster, `0..8`.
    pub fn index_in_cluster(self) -> u16 {
        self.0 % CES_PER_CLUSTER
    }

    /// Constructs a CE id from a cluster and an intra-cluster index.
    pub fn from_parts(cluster: ClusterId, index: u16) -> CeId {
        CeId(cluster.0 as u16 * CES_PER_CLUSTER + index)
    }
}

impl fmt::Display for CeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ce{}", self.0)
    }
}

/// Identifies one of the 32 independent global-memory modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u16);

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mod{}", self.0)
    }
}

/// The Cedar configurations measured in the paper (Table 1 and onwards).
///
/// All configurations share the *same* interconnection network and global
/// memory (and therefore the same minimum memory latency) — §3.2 notes
/// this is what lets the methodology isolate the contention factor.
///
/// # Example
///
/// ```
/// use cedar_hw::Configuration;
/// let c = Configuration::P16;
/// assert_eq!(c.clusters(), 2);
/// assert_eq!(c.total_ces(), 16);
/// assert_eq!(c.label(), "16 proc");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Configuration {
    /// 1 processor (one CE on one cluster).
    P1,
    /// 4 processors, all from the same cluster (Table 1 footnote).
    P4,
    /// 8 processors = one full cluster.
    P8,
    /// 16 processors = 2 clusters.
    P16,
    /// 32 processors = the full 4-cluster Cedar.
    P32,
}

impl Configuration {
    /// All five configurations in the order the paper's tables use.
    pub const ALL: [Configuration; 5] = [
        Configuration::P1,
        Configuration::P4,
        Configuration::P8,
        Configuration::P16,
        Configuration::P32,
    ];

    /// Number of clusters employed.
    pub fn clusters(self) -> u8 {
        match self {
            Configuration::P1 | Configuration::P4 | Configuration::P8 => 1,
            Configuration::P16 => 2,
            Configuration::P32 => 4,
        }
    }

    /// Number of CEs active on each employed cluster.
    pub fn ces_per_cluster(self) -> u16 {
        match self {
            Configuration::P1 => 1,
            Configuration::P4 => 4,
            Configuration::P8 | Configuration::P16 | Configuration::P32 => 8,
        }
    }

    /// Total processors in the configuration.
    pub fn total_ces(self) -> u16 {
        self.clusters() as u16 * self.ces_per_cluster()
    }

    /// Column label as printed in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Configuration::P1 => "1 proc",
            Configuration::P4 => "4 proc",
            Configuration::P8 => "8 proc",
            Configuration::P16 => "16 proc",
            Configuration::P32 => "32 proc",
        }
    }

    /// Iterator over the active CE ids of this configuration.
    pub fn ces(self) -> impl Iterator<Item = CeId> {
        let per = self.ces_per_cluster();
        (0..self.clusters() as u16)
            .flat_map(move |cl| (0..per).map(move |i| CeId::from_parts(ClusterId(cl as u8), i)))
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ce_cluster_mapping() {
        assert_eq!(CeId(0).cluster(), ClusterId(0));
        assert_eq!(CeId(7).cluster(), ClusterId(0));
        assert_eq!(CeId(8).cluster(), ClusterId(1));
        assert_eq!(CeId(31).cluster(), ClusterId(3));
        assert_eq!(CeId(13).index_in_cluster(), 5);
    }

    #[test]
    fn ce_from_parts_round_trips() {
        for c in 0..4u8 {
            for i in 0..8u16 {
                let ce = CeId::from_parts(ClusterId(c), i);
                assert_eq!(ce.cluster(), ClusterId(c));
                assert_eq!(ce.index_in_cluster(), i);
            }
        }
    }

    #[test]
    fn configurations_match_paper() {
        assert_eq!(Configuration::P1.total_ces(), 1);
        assert_eq!(Configuration::P4.total_ces(), 4);
        assert_eq!(Configuration::P8.total_ces(), 8);
        assert_eq!(Configuration::P16.total_ces(), 16);
        assert_eq!(Configuration::P32.total_ces(), 32);
        // 4-processor configuration uses a single cluster (Table 1 note).
        assert_eq!(Configuration::P4.clusters(), 1);
    }

    #[test]
    fn ces_iterator_counts_and_lands_on_right_clusters() {
        let v: Vec<_> = Configuration::P16.ces().collect();
        assert_eq!(v.len(), 16);
        assert_eq!(v[0], CeId(0));
        assert_eq!(v[8], CeId(8)); // second cluster starts at global CE 8
        assert!(v.iter().all(|ce| ce.cluster().0 < 2));
        // CEs are numbered densely from 0, so a CE's id is its position;
        // the machine indexes its CEs by id on that basis.
        for c in Configuration::ALL {
            let ids: Vec<_> = c.ces().collect();
            let dense: Vec<_> = (0..c.total_ces()).map(CeId).collect();
            assert_eq!(ids, dense, "{c}");
        }
    }

    #[test]
    fn p4_uses_single_cluster_ces() {
        let v: Vec<_> = Configuration::P4.ces().collect();
        assert_eq!(v, vec![CeId(0), CeId(1), CeId(2), CeId(3)]);
    }

    #[test]
    fn labels() {
        assert_eq!(Configuration::P32.to_string(), "32 proc");
    }
}
