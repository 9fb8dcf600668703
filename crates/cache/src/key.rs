//! The content address of one experiment.

use std::fmt::{self, Write};

/// The standard FNV-1a offset basis ([`cedar_obs::json::fnv1a`]'s).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// An arbitrary fixed alternate basis, giving a second independent
/// 64-bit view of the same bytes for the 128-bit key.
const FNV_ALT_BASIS: u64 = 0x6c62_272e_07bb_0142;
/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Both FNV-1a states of a [`RunKey`], fed from formatted text as it is
/// written, so the canonical text is never built.
struct KeyHasher {
    hi: u64,
    lo: u64,
}

impl Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.hi = (self.hi ^ b as u64).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// The canonical semantic fingerprint of one `(application, machine
/// configuration)` experiment: 128 bits of FNV-1a over the canonical
/// text, with the crate's `MODEL_VERSION` mixed in so behavior bumps
/// re-key everything.
///
/// The canonical text is produced by the caller (`cedar-core` renders
/// the `AppSpec` and `SimConfig` through their `Debug` forms, which
/// cover every field that shapes the simulation) and hashed as it is
/// formatted. Anything that changes the text changes the key; anything
/// that changes simulator behavior without changing the text must bump
/// `MODEL_VERSION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    pub(crate) hi: u64,
    pub(crate) lo: u64,
}

impl RunKey {
    /// Keys `canonical`, mixing in the model version.
    pub fn new(canonical: &str) -> RunKey {
        RunKey::from_args(format_args!("{canonical}"))
    }

    /// Keys the text `canonical` formats to, hashing it as it is
    /// written instead of building it: the key [`new`](Self::new) gives
    /// that text.
    pub fn from_args(canonical: fmt::Arguments<'_>) -> RunKey {
        let mut h = KeyHasher {
            hi: FNV_BASIS,
            lo: FNV_ALT_BASIS,
        };
        write!(h, "model={};{canonical}", crate::MODEL_VERSION).expect("hashing never fails");
        RunKey { hi: h.hi, lo: h.lo }
    }

    /// The 32-hex-digit content address (filename stem).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// The two-level fan-out: first byte of the address.
    pub fn shard(&self) -> String {
        format!("{:02x}", self.hi >> 56)
    }
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_discriminating() {
        let a = RunKey::new("app=FLO52;config=P32");
        let b = RunKey::new("app=FLO52;config=P32");
        let c = RunKey::new("app=FLO52;config=P16");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn shard_is_a_prefix_byte() {
        let k = RunKey::new("x");
        assert_eq!(k.shard(), k.hex()[..2].to_string());
    }

    /// The streamed key is the two byte-at-a-time FNV-1a passes over
    /// the salted text it replaced.
    #[test]
    fn streamed_key_matches_two_passes_over_the_salted_text() {
        fn fnv1a_with(basis: u64, bytes: &[u8]) -> u64 {
            bytes
                .iter()
                .fold(basis, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
        }
        let long = "app=AppSpec { phases: [..] };".repeat(64);
        for canonical in ["", "x", "app=FLO52;cfg=P32", "ünïcode", long.as_str()] {
            let salted = format!("model={};{canonical}", crate::MODEL_VERSION);
            let expected = format!(
                "{:016x}{:016x}",
                cedar_obs::json::fnv1a(salted.as_bytes()),
                fnv1a_with(FNV_ALT_BASIS, salted.as_bytes())
            );
            assert_eq!(RunKey::new(canonical).hex(), expected, "{canonical:.20}");
            assert_eq!(
                RunKey::from_args(format_args!("{canonical}")),
                RunKey::new(canonical)
            );
        }
    }

    #[test]
    fn single_bit_of_input_changes_both_halves() {
        let a = RunKey::new("seed=0");
        let b = RunKey::new("seed=1");
        assert_ne!(a.hex()[..16], b.hex()[..16]);
        assert_ne!(a.hex()[16..], b.hex()[16..]);
    }
}
