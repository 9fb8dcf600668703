//! Routing for the two-stage shuffle-exchange (delta) network.
//!
//! The Cedar network connects 32 endpoints to 32 endpoints through two
//! stages of 8×8 crossbars (4 switches per stage). Each stage-1 switch
//! has 2 parallel links to every stage-2 switch; the link is chosen by
//! destination parity, so consecutive interleaved modules alternate
//! links — the shuffle-exchange wiring.
//!
//! The same routing is used in both directions: the forward network
//! routes CE→module, the reverse network routes module→CE. Endpoints
//! are numbered `0..32`; routing runs once per packet per stage, so it
//! is shifts and masks.
//!
//! # Example
//!
//! ```
//! use cedar_hw::route;
//! // Module 17 sits on stage-2 switch 2, output port 1, and is reached
//! // over the second parallel link into that switch.
//! assert_eq!(route::stage2_switch(17), 2);
//! assert_eq!(route::stage2_port(17), 1);
//! assert_eq!(route::stage1_port(17), 2 + 4);
//! ```

use crate::topology::MODULES;

/// Crossbar radix: Cedar's switches are 8×8.
pub(crate) const RADIX: usize = 8;

/// Switches in each stage: 32 endpoints over 8-port switches.
pub(crate) const SWITCHES_PER_STAGE: usize = 4;

/// Parallel links between each stage-1/stage-2 switch pair.
const LINKS: usize = 2;

const _: () = assert!(SWITCHES_PER_STAGE * RADIX == MODULES);
const _: () = assert!(LINKS * SWITCHES_PER_STAGE == RADIX);

/// `log2(RADIX)`.
const RADIX_SHIFT: u32 = RADIX.trailing_zeros();

/// The stage-1 switch that input endpoint `src` attaches to.
pub fn stage1_switch(src: u16) -> u16 {
    src >> RADIX_SHIFT
}

/// The stage-1 output port used to reach output endpoint `dst`
/// (selects among the parallel links by destination parity).
pub fn stage1_port(dst: u16) -> u16 {
    let link = dst & (LINKS as u16 - 1);
    (dst >> RADIX_SHIFT) + SWITCHES_PER_STAGE as u16 * link
}

/// The stage-2 switch serving output endpoint `dst`.
pub fn stage2_switch(dst: u16) -> u16 {
    dst >> RADIX_SHIFT
}

/// The stage-2 output port delivering to endpoint `dst`.
pub fn stage2_port(dst: u16) -> u16 {
    dst & (RADIX as u16 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pair_has_a_route() {
        for src in 0..32 {
            for dst in 0..32 {
                let s1 = stage1_switch(src);
                let p1 = stage1_port(dst);
                let s2 = stage2_switch(dst);
                let p2 = stage2_port(dst);
                assert!(s1 < 4 && s2 < 4);
                assert!(p1 < 8 && p2 < 8);
                // The stage-1 port must actually lead to the stage-2
                // switch serving dst: ports are grouped mod 4.
                assert_eq!(p1 % 4, s2);
            }
        }
    }

    #[test]
    fn stage2_output_is_unique_per_destination() {
        // Within one stage-2 switch, the 8 destinations use 8 distinct ports.
        for s2 in 0..4u16 {
            let mut seen = [false; 8];
            for dst in (s2 * 8)..(s2 * 8 + 8) {
                assert_eq!(stage2_switch(dst), s2);
                let p = stage2_port(dst) as usize;
                assert!(!seen[p], "port reused");
                seen[p] = true;
            }
        }
    }

    #[test]
    fn consecutive_destinations_alternate_parallel_links() {
        // Destinations 0 and 1 are on the same stage-2 switch but must use
        // different stage-1 ports (different parallel links) so that
        // unit-stride vectors spread over both links.
        assert_ne!(stage1_port(0), stage1_port(1));
        assert_eq!(stage1_port(0), stage1_port(2));
    }
}
