//! The content address of one experiment.

use cedar_obs::json::fnv1a;

/// FNV-1a with a different offset basis, giving a second independent
/// 64-bit view of the same bytes for the 128-bit key.
fn fnv1a_alt(bytes: &[u8]) -> u64 {
    // The standard FNV prime with an arbitrary fixed alternate basis.
    let mut h: u64 = 0x6c62_272e_07bb_0142;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical semantic fingerprint of one `(application, machine
/// configuration)` experiment: 128 bits of FNV-1a over the canonical
/// text, with the crate's `MODEL_VERSION` mixed in so behavior bumps
/// re-key everything.
///
/// The canonical text is produced by the caller (`cedar-core` renders
/// the `AppSpec` and `SimConfig` through their `Debug` forms, which
/// cover every field that shapes the simulation). Anything that changes
/// the text changes the key; anything that changes simulator behavior
/// without changing the text must bump `MODEL_VERSION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    hi: u64,
    lo: u64,
}

impl RunKey {
    /// Keys `canonical`, mixing in the model version.
    pub fn new(canonical: &str) -> RunKey {
        let salted = format!("model={};{canonical}", crate::MODEL_VERSION);
        RunKey {
            hi: fnv1a(salted.as_bytes()),
            lo: fnv1a_alt(salted.as_bytes()),
        }
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

    #[test]
    fn single_bit_of_input_changes_both_halves() {
        let a = RunKey::new("seed=0");
        let b = RunKey::new("seed=1");
        assert_ne!(a.hex()[..16], b.hex()[..16]);
        assert_ne!(a.hex()[16..], b.hex()[16..]);
    }
}
