//! Hardware configuration and latency parameters.

use cedar_sim::Cycles;

use crate::topology::Configuration;

/// Interconnection network and global-memory timing parameters.
///
/// Defaults model the Cedar network described in §2 and [9, 10]: two
/// stages of 8×8 crossbars in each direction, 32 double-word interleaved
/// memory modules with a 4-cycle module busy time (§7: "the global memory
/// takes 4 processor clock cycles to process a request"), and a 2-port
/// shared path from each cluster to its Global Interfaces. The geometry
/// is fixed; only the latencies vary, and only through
/// [`slowed`](Self::slowed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Switch traversal latency per stage, excluding queueing.
    pub(crate) switch_latency: Cycles,
    /// Output-port occupancy per packet (inverse bandwidth; 1 packet per
    /// cycle per port at the default).
    pub(crate) port_occupancy: Cycles,
    /// Module busy time per request (serialization at the module).
    pub(crate) module_service: Cycles,
    /// DRAM access component of module latency (pipelined; does not
    /// occupy the module for followers).
    pub(crate) module_access: Cycles,
    /// Global Interface injection latency (CE → first stage).
    pub(crate) gi_inject: Cycles,
    /// Delivery latency (last reverse stage → CE).
    pub(crate) delivery: Cycles,
}

impl NetConfig {
    /// The Cedar network as built.
    pub fn cedar() -> Self {
        NetConfig {
            switch_latency: Cycles(4),
            port_occupancy: Cycles(1),
            module_service: Cycles(4),
            module_access: Cycles(8),
            gi_inject: Cycles(2),
            delivery: Cycles(2),
        }
    }

    /// Minimum (contention-free) round-trip latency for one word:
    /// one cycle on the cluster path + inject + 4 switch traversals
    /// (each paying port occupancy plus the stage latency) + module
    /// service + access + delivery.
    pub fn min_round_trip(&self) -> Cycles {
        Cycles(1)
            + self.gi_inject
            + (self.switch_latency + self.port_occupancy) * 4
            + self.module_service
            + self.module_access
            + self.delivery
    }

    /// This network with degraded hardware: switch-stage latency
    /// stretched by `switch_pct`% and memory-module service/access
    /// latency by `module_pct`% (fault-injection experiments; 0/0 is
    /// the identity). Port occupancy and injection paths are untouched,
    /// so the degradation models slow silicon, not a narrower network.
    pub fn slowed(&self, switch_pct: u32, module_pct: u32) -> NetConfig {
        let stretch = |c: Cycles, pct: u32| Cycles(c.0 + c.0 * pct as u64 / 100);
        NetConfig {
            switch_latency: stretch(self.switch_latency, switch_pct),
            module_service: stretch(self.module_service, module_pct),
            module_access: stretch(self.module_access, module_pct),
            ..self.clone()
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::cedar()
    }
}

/// Cluster-local hardware timing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Concurrency-bus cost to dispatch a `cdoall` across the cluster's
    /// CEs (the bus makes this fast; §2).
    pub cbus_dispatch: Cycles,
    /// Concurrency-bus cost for an intra-cluster barrier once every CE
    /// has arrived.
    pub cbus_barrier: Cycles,
}

impl ClusterConfig {
    /// Alliant FX/8-class defaults.
    pub fn cedar() -> Self {
        ClusterConfig {
            cbus_dispatch: Cycles(6),
            cbus_barrier: Cycles(8),
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::cedar()
    }
}

/// Complete hardware description for one simulated machine instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwConfig {
    /// Which processor configuration is active (1/4/8/16/32).
    pub configuration: Configuration,
    /// Network and memory parameters (identical across configurations —
    /// the paper's methodology depends on this, §3.2).
    pub net: NetConfig,
    /// Cluster-local parameters.
    pub cluster: ClusterConfig,
}

impl HwConfig {
    /// The machine the paper measured, at a given processor count.
    pub fn cedar(configuration: Configuration) -> Self {
        HwConfig {
            configuration,
            net: NetConfig::cedar(),
            cluster: ClusterConfig::cedar(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_round_trip_is_sum_of_stages() {
        let n = NetConfig::cedar();
        assert_eq!(n.min_round_trip(), Cycles(1 + 2 + (4 + 1) * 4 + 4 + 8 + 2));
    }

    #[test]
    fn all_configurations_share_network_parameters() {
        let p1 = HwConfig::cedar(Configuration::P1);
        let p32 = HwConfig::cedar(Configuration::P32);
        assert_eq!(p1.net, p32.net);
    }

    #[test]
    fn slowed_zero_is_identity_and_stretches_scale() {
        let n = NetConfig::cedar();
        assert_eq!(n.slowed(0, 0), n);
        let s = n.slowed(50, 100);
        assert_eq!(s.switch_latency, Cycles(6)); // 4 * 1.5
        assert_eq!(s.module_service, Cycles(8)); // 4 * 2
        assert_eq!(s.module_access, Cycles(16)); // 8 * 2
        assert_eq!(s.port_occupancy, n.port_occupancy);
        assert!(s.min_round_trip() > n.min_round_trip());
    }
}
