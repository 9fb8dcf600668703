//! Routing for the two-stage shuffle-exchange (delta) network.
//!
//! The Cedar network connects 32 endpoints to 32 endpoints through two
//! stages of 8×8 crossbars (4 switches per stage). Each stage-1 switch has
//! `radix / groups` parallel links to every stage-2 switch (2 on the real
//! geometry); the link is chosen by destination parity, so consecutive
//! interleaved modules alternate links — the shuffle-exchange wiring.
//!
//! The same geometry is used in both directions: the forward network
//! routes CE→module, the reverse network routes module→CE.

/// Geometry of one direction of a two-stage delta network.
///
/// # Example
///
/// ```
/// use cedar_hw::route::DeltaGeometry;
/// let g = DeltaGeometry::new(32, 8); // the Cedar geometry
/// assert_eq!(g.switches_per_stage(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaGeometry {
    endpoints: u16,
    radix: u16,
    /// `endpoints / radix`, precomputed: switches per stage.
    groups: u16,
    /// `radix / groups`, precomputed: parallel links per switch pair.
    links: u16,
    /// `log2(radix)` when the radix is a power of two, else [`NO_SHIFT`].
    /// Routing runs once per packet per stage, so the port math must not
    /// pay for hardware division on the geometries the machine actually
    /// builds (all power-of-two); non-power-of-two geometries take the
    /// exact div/mod slow path.
    radix_shift: u8,
    /// `log2(links)` when the link count is a power of two, else [`NO_SHIFT`].
    links_shift: u8,
}

/// Sentinel for "not a power of two — use real division".
const NO_SHIFT: u8 = u8::MAX;

fn shift_of(n: u16) -> u8 {
    if n.is_power_of_two() {
        n.trailing_zeros() as u8
    } else {
        NO_SHIFT
    }
}

impl DeltaGeometry {
    /// Creates the geometry for `endpoints` sources/destinations and
    /// `radix`-port switches.
    ///
    /// # Panics
    ///
    /// Panics unless `radix` divides `endpoints`, two stages suffice
    /// (`radix² ≥ endpoints`), and the groups divide the radix (so the
    /// parallel-link count is integral).
    pub fn new(endpoints: u16, radix: u16) -> Self {
        assert!(radix > 0 && endpoints > 0, "degenerate geometry");
        assert!(
            endpoints.is_multiple_of(radix),
            "radix {radix} must divide endpoint count {endpoints}"
        );
        assert!(
            (radix as u32) * (radix as u32) >= endpoints as u32,
            "two stages of {radix}x{radix} switches cannot span {endpoints} endpoints"
        );
        let groups = endpoints / radix;
        assert!(
            radix.is_multiple_of(groups),
            "groups {groups} must divide radix {radix} for uniform parallel links"
        );
        let links = radix / groups;
        DeltaGeometry {
            endpoints,
            radix,
            groups,
            links,
            radix_shift: shift_of(radix),
            links_shift: shift_of(links),
        }
    }

    /// The Cedar geometry: 32 endpoints, 8×8 switches.
    pub fn cedar() -> Self {
        DeltaGeometry::new(32, 8)
    }

    /// Endpoints per side.
    pub fn endpoints(&self) -> u16 {
        self.endpoints
    }

    /// Switch radix.
    pub fn radix(&self) -> u16 {
        self.radix
    }

    /// Switches in each stage.
    pub fn switches_per_stage(&self) -> u16 {
        self.groups
    }

    /// `x / radix`, taking the shift fast path on power-of-two radices.
    #[inline]
    fn div_radix(&self, x: u16) -> u16 {
        if self.radix_shift != NO_SHIFT {
            x >> self.radix_shift
        } else {
            x / self.radix
        }
    }

    /// `x % radix`, taking the mask fast path on power-of-two radices.
    #[inline]
    fn mod_radix(&self, x: u16) -> u16 {
        if self.radix_shift != NO_SHIFT {
            x & (self.radix - 1)
        } else {
            x % self.radix
        }
    }

    /// `x % links`, taking the mask fast path on power-of-two link counts.
    #[inline]
    fn mod_links(&self, x: u16) -> u16 {
        if self.links_shift != NO_SHIFT {
            x & (self.links - 1)
        } else {
            x % self.links
        }
    }

    /// The stage-1 switch that input endpoint `src` attaches to.
    pub fn stage1_switch(&self, src: u16) -> u16 {
        debug_assert!(src < self.endpoints);
        self.div_radix(src)
    }

    /// The stage-1 output port used to reach output endpoint `dst`
    /// (selects among the parallel links by destination parity).
    pub fn stage1_port(&self, dst: u16) -> u16 {
        debug_assert!(dst < self.endpoints);
        let target = self.div_radix(dst);
        let link = self.mod_links(dst);
        target + self.groups * link
    }

    /// The stage-2 switch serving output endpoint `dst`.
    pub fn stage2_switch(&self, dst: u16) -> u16 {
        debug_assert!(dst < self.endpoints);
        self.div_radix(dst)
    }

    /// The stage-2 output port delivering to endpoint `dst`.
    pub fn stage2_port(&self, dst: u16) -> u16 {
        debug_assert!(dst < self.endpoints);
        self.mod_radix(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cedar_geometry_constants() {
        let g = DeltaGeometry::cedar();
        assert_eq!(g.endpoints(), 32);
        assert_eq!(g.radix(), 8);
        assert_eq!(g.switches_per_stage(), 4);
        assert_eq!(g.links, 2, "parallel links per switch pair");
    }

    #[test]
    fn every_pair_has_a_route() {
        let g = DeltaGeometry::cedar();
        for src in 0..32 {
            for dst in 0..32 {
                let s1 = g.stage1_switch(src);
                let p1 = g.stage1_port(dst);
                let s2 = g.stage2_switch(dst);
                let p2 = g.stage2_port(dst);
                assert!(s1 < 4 && s2 < 4);
                assert!(p1 < 8 && p2 < 8);
                // The stage-1 port must actually lead to the stage-2
                // switch serving dst: ports are grouped mod `groups`.
                assert_eq!(p1 % g.switches_per_stage(), s2);
            }
        }
    }

    #[test]
    fn stage2_output_is_unique_per_destination() {
        let g = DeltaGeometry::cedar();
        // Within one stage-2 switch, the 8 destinations use 8 distinct ports.
        for s2 in 0..4u16 {
            let mut seen = [false; 8];
            for dst in (s2 * 8)..(s2 * 8 + 8) {
                assert_eq!(g.stage2_switch(dst), s2);
                let p = g.stage2_port(dst) as usize;
                assert!(!seen[p], "port reused");
                seen[p] = true;
            }
        }
    }

    #[test]
    fn consecutive_destinations_alternate_parallel_links() {
        let g = DeltaGeometry::cedar();
        // Destinations 0 and 1 are on the same stage-2 switch but must use
        // different stage-1 ports (different parallel links) so that
        // unit-stride vectors spread over both links.
        assert_ne!(g.stage1_port(0), g.stage1_port(1));
        assert_eq!(g.stage1_port(0), g.stage1_port(2));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_non_dividing_radix() {
        DeltaGeometry::new(30, 8);
    }

    #[test]
    #[should_panic(expected = "cannot span")]
    fn rejects_too_many_endpoints() {
        DeltaGeometry::new(128, 8);
    }

    #[test]
    fn smaller_geometries_work() {
        let g = DeltaGeometry::new(16, 4);
        assert_eq!(g.switches_per_stage(), 4);
        assert_eq!(g.links, 1);
        for dst in 0..16 {
            assert_eq!(g.stage1_port(dst), g.stage2_switch(dst));
        }
    }
}
