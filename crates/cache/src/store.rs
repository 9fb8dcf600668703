//! The disk-backed store: `results/cache/` layout, atomic writes,
//! defensive reads.
//!
//! Entry layout on disk (`<root>/<shard>/<key>.run`):
//!
//! ```text
//! cedar-run-cache format=1 model=1
//! key 0123456789abcdef0123456789abcdef
//! payload_bytes 1234
//! payload_fnv1a 0123456789abcdef
//! ---
//! <payload: RunResult::encode line records>
//! ```
//!
//! A hit is one file read, one validation pass and one decode scan.
//! The read hands [`RunCache::get`] the entry's raw bytes (no UTF-8
//! check: the decoder compares bytes too). The validation pass walks
//! the header once, comparing its bytes with the fixed text and its
//! numbers, parsed in place, with the format version, model version,
//! key, payload length and the FNV-1a of the payload; it builds no
//! string and accepts only the exact header [`RunCache::put`] writes.
//! Any mismatch — a truncated write, a flipped bit, an entry from an
//! older format or simulator — is a **miss**, counted but otherwise
//! silent, and so is a payload the caller's decoder rejects. Writes go
//! to a `.tmp` sibling and are renamed into place, so readers never
//! observe a half-written entry even under a concurrent campaign.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cedar_obs::json::{canonical_u64, fnv1a};
use cedar_obs::{CacheMode, CedarError};

use crate::key::RunKey;
use crate::{FORMAT_VERSION, MODEL_VERSION};

/// Snapshot of one cache session's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// The mode the session ran under.
    pub mode: CacheMode,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to simulation (including corrupt or
    /// stale entries).
    pub misses: u64,
    /// Entries written (or overwritten).
    pub writes: u64,
    /// Experiments that skipped the cache entirely (trace-keeping
    /// runs).
    pub bypasses: u64,
}

impl CacheStats {
    /// Total lookups that went through cache policy.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction of the looked-up experiments (1.0 when nothing was
    /// looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// The content-addressed run store. Cheap to open (no I/O until the
/// first lookup), safe to share across the worker pool (`&self`
/// methods, atomic counters, atomic-rename writes).
#[derive(Debug)]
pub struct RunCache {
    root: PathBuf,
    mode: CacheMode,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    bypasses: AtomicU64,
}

impl RunCache {
    /// Opens the store rooted at `root` for a session in `mode`.
    ///
    /// Opening stays lazy — shard directories are created on first
    /// write, so a read-only session over a missing directory just
    /// misses — but a root that can *never* work is rejected up front
    /// with [`CedarError::CacheIo`]: a path that exists and is not a
    /// directory would silently turn every operation of a writing
    /// session into a no-op, which is exactly the class of quiet
    /// misconfiguration the typed error API exists to surface.
    pub fn open(root: impl Into<PathBuf>, mode: CacheMode) -> Result<RunCache, CedarError> {
        let root = root.into();
        if root.exists() && !root.is_dir() {
            return Err(CedarError::CacheIo(format!(
                "cache root {} exists and is not a directory",
                root.display()
            )));
        }
        Ok(RunCache {
            root,
            mode,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The session's cache mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The on-disk path of `key`'s entry.
    pub fn entry_path(&self, key: &RunKey) -> PathBuf {
        self.root
            .join(key.shard())
            .join(format!("{}.run", key.hex()))
    }

    /// Looks up `key`, validating the entry end to end, and hands the
    /// payload bytes to `decode`. Any defect — absent file, bad header,
    /// version skew, length or checksum mismatch, a payload `decode`
    /// rejects — is counted and returned as a miss; this method never
    /// panics and never propagates I/O errors.
    pub fn get<T>(&self, key: &RunKey, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let entry = std::fs::read(self.entry_path(key)).ok();
        let value = entry
            .as_deref()
            .and_then(|bytes| validated_payload(bytes, key))
            .and_then(decode);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Stores `payload` under `key` via an atomic rename. Best-effort:
    /// an I/O failure (read-only filesystem, disk full) leaves the
    /// cache cold but the campaign unharmed, so errors are swallowed
    /// after counting nothing.
    pub fn put(&self, key: &RunKey, payload: &str) {
        if self.write_entry(key, payload).is_ok() {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn write_entry(&self, key: &RunKey, payload: &str) -> std::io::Result<()> {
        let mut entry = String::with_capacity(payload.len() + 128);
        entry.push_str(&format!(
            "cedar-run-cache format={FORMAT_VERSION} model={MODEL_VERSION}\n"
        ));
        entry.push_str(&format!("key {}\n", key.hex()));
        entry.push_str(&format!("payload_bytes {}\n", payload.len()));
        entry.push_str(&format!(
            "payload_fnv1a {:016x}\n",
            fnv1a(payload.as_bytes())
        ));
        entry.push_str("---\n");
        entry.push_str(payload);

        let path = self.entry_path(key);
        let dir = path.parent().expect("entry path has a shard directory");
        std::fs::create_dir_all(dir)?;
        // Unique tmp name per process+thread so concurrent writers of
        // the same key never clobber each other's half-written file;
        // the final rename is atomic within the directory.
        let tmp = dir.join(format!(
            ".{}.{}.{:?}.tmp",
            key.hex(),
            std::process::id(),
            std::thread::current().id(),
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(entry.as_bytes())?;
            f.sync_all()?;
        }
        let renamed = std::fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    /// Counts one experiment that skipped cache policy entirely.
    pub fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the session counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mode: self.mode,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }
}

/// The payload of `entry` when its header names the current format and
/// model versions and `key`, and the payload has the declared length
/// and FNV-1a checksum; `None` on any mismatch. One pass over the
/// header compares bytes and integers as it goes: it builds no text,
/// and accepts only the exact header [`RunCache::put`] writes.
fn validated_payload<'a>(entry: &'a [u8], key: &RunKey) -> Option<&'a [u8]> {
    let rest = entry.strip_prefix(b"cedar-run-cache format=")?;
    let (format, rest) = canonical_u64(rest)?;
    let rest = rest.strip_prefix(b" model=")?;
    let (model, rest) = canonical_u64(rest)?;
    let rest = rest.strip_prefix(b"\nkey ")?;
    let (hi, rest) = hex_u64(rest)?;
    let (lo, rest) = hex_u64(rest)?;
    let rest = rest.strip_prefix(b"\npayload_bytes ")?;
    let (len, rest) = canonical_u64(rest)?;
    let rest = rest.strip_prefix(b"\npayload_fnv1a ")?;
    let (sum, rest) = hex_u64(rest)?;
    let payload = rest.strip_prefix(b"\n---\n")?;
    let valid = format == u64::from(FORMAT_VERSION)
        && model == u64::from(MODEL_VERSION)
        && (hi, lo) == (key.hi, key.lo)
        && len == payload.len() as u64
        && sum == fnv1a(payload);
    valid.then_some(payload)
}

/// Reads the 16 lowercase hex digits `{:016x}` writes at the start of
/// `bytes`, returning the value and the bytes after them.
fn hex_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (digits, rest) = bytes.split_first_chunk::<16>()?;
    let mut value = 0;
    for &b in digits {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        value = value << 4 | u64::from(nibble);
    }
    Some((value, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cedar-cache-store-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The store never parses a payload, so any text will do.
    const PAYLOAD: &str = "app T\nbodies 1\n";

    fn text(payload: &[u8]) -> Option<String> {
        String::from_utf8(payload.to_vec()).ok()
    }

    #[test]
    fn put_then_get_round_trips() {
        let cache = RunCache::open(tmp_root("rt"), CacheMode::ReadWrite).unwrap();
        let key = RunKey::new("case=1");
        assert!(cache.get(&key, text).is_none(), "cold cache misses");
        cache.put(&key, PAYLOAD);
        let back = cache.get(&key, text).expect("hit after put");
        assert_eq!(back, PAYLOAD);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn missing_directory_is_a_silent_miss() {
        let cache = RunCache::open(tmp_root("missing"), CacheMode::ReadOnly).unwrap();
        assert!(cache.get(&RunKey::new("anything"), text).is_none());
        assert!(!cache.root().exists(), "read must not create the store");
    }

    #[test]
    fn header_validation_rejects_tampering() {
        let cache = RunCache::open(tmp_root("tamper"), CacheMode::ReadWrite).unwrap();
        let key = RunKey::new("case=2");
        cache.put(&key, PAYLOAD);
        let path = cache.entry_path(&key);
        let pristine = std::fs::read_to_string(&path).unwrap();

        // Truncation: checksum/length catch it.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(cache.get(&key, text).is_none());

        // Bit flip in the payload: checksum catches it.
        let mut flipped = pristine.clone().into_bytes();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(cache.get(&key, text).is_none());

        // Wrong format version.
        std::fs::write(
            &path,
            pristine.replacen(&format!("format={FORMAT_VERSION}"), "format=999", 1),
        )
        .unwrap();
        assert!(cache.get(&key, text).is_none());

        // Wrong model version.
        std::fs::write(
            &path,
            pristine.replacen(&format!("model={MODEL_VERSION}"), "model=999", 1),
        )
        .unwrap();
        assert!(cache.get(&key, text).is_none());

        // Wrong key echo (an entry renamed to another address).
        std::fs::write(
            &path,
            pristine.replacen(&key.hex(), &RunKey::new("other").hex(), 1),
        )
        .unwrap();
        assert!(cache.get(&key, text).is_none());

        // Restored pristine bytes hit again.
        std::fs::write(&path, &pristine).unwrap();
        assert!(cache.get(&key, text).is_some());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    /// Validation compares bytes and integers, so a header that says the
    /// same thing in other text (a sign, a leading zero, upper-case hex,
    /// a CRLF, an extra line) is a miss too.
    #[test]
    fn header_must_be_the_exact_text_put_writes() {
        let cache = RunCache::open(tmp_root("exact"), CacheMode::ReadWrite).unwrap();
        let key = RunKey::new("case=6");
        cache.put(&key, PAYLOAD);
        let path = cache.entry_path(&key);
        let pristine = std::fs::read_to_string(&path).unwrap();
        let bytes = format!("payload_bytes {}", PAYLOAD.len());
        let sum = format!("{:016x}", fnv1a(PAYLOAD.as_bytes()));
        for (from, to) in [
            (key.hex(), key.hex().to_uppercase()),
            (bytes.clone(), format!("payload_bytes 0{}", PAYLOAD.len())),
            (bytes.clone(), format!("payload_bytes +{}", PAYLOAD.len())),
            (bytes.clone(), format!("payload_bytes  {}", PAYLOAD.len())),
            (sum.clone(), sum.to_uppercase()),
            (format!("{sum}\n"), format!("{sum}\nextra line\n")),
            (
                format!("model={MODEL_VERSION}\n"),
                format!("model={MODEL_VERSION}\r\n"),
            ),
            (
                format!("model={MODEL_VERSION}"),
                format!("model=0{MODEL_VERSION}"),
            ),
        ] {
            assert_ne!(from, to);
            std::fs::write(&path, pristine.replacen(&from, &to, 1)).unwrap();
            assert!(cache.get(&key, text).is_none(), "{to:?} must miss");
        }
        std::fs::write(&path, &pristine).unwrap();
        assert!(cache.get(&key, text).is_some());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn rejected_payload_is_a_miss() {
        let cache = RunCache::open(tmp_root("reject"), CacheMode::ReadWrite).unwrap();
        let key = RunKey::new("case=5");
        cache.put(&key, PAYLOAD);
        assert!(cache.get(&key, |_| None::<()>).is_none());
        assert!(cache.get(&key, text).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn entries_shard_by_key_prefix() {
        let cache = RunCache::open(tmp_root("shard"), CacheMode::ReadWrite).unwrap();
        let key = RunKey::new("case=3");
        let path = cache.entry_path(&key);
        assert!(path.starts_with(cache.root().join(key.shard())));
        assert!(path
            .to_string_lossy()
            .ends_with(&format!("{}.run", key.hex())));
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let cache = RunCache::open(tmp_root("tmp"), CacheMode::ReadWrite).unwrap();
        let key = RunKey::new("case=4");
        cache.put(&key, PAYLOAD);
        let shard = cache.root().join(key.shard());
        let leftovers: Vec<_> = std::fs::read_dir(&shard)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must be renamed away");
        let _ = std::fs::remove_dir_all(cache.root());
    }
}
