//! The run cache's contract, end to end:
//!
//! 1. *Robustness*: truncated, bit-flipped, version-skewed or outright
//!    garbage entries are silently recomputed (and re-written), never a
//!    panic and never a wrong result.
//! 2. *Fidelity*: a seeded sweep of `config_fuzz`-style cases
//!    round-trips through encode → decode with every
//!    report-layer-visible measurement intact.
//! 3. *Campaign semantics*: a warm identical suite is 100% hits with
//!    byte-identical measurements; `ReadOnly` never writes;
//!    trace-keeping runs bypass the cache.
//!
//! Each test uses its own temp cache root, so the suite is safe under
//! the parallel test runner and touches nothing in `results/`.

use std::path::{Path, PathBuf};

use cedar::apps::{AccessPattern, AppBuilder, AppSpec, BodySpec};
use cedar::cache::RunCache;
use cedar::check::same_campaign;
use cedar::core::cache::run_key;
use cedar::core::suite::SuiteResult;
use cedar::core::{CacheMode, CacheSession, RunOptions, RunResult, SimConfig};
use cedar::hw::Configuration;
use cedar::sim::SplitMix64;

/// A fresh cache root under the system temp dir; removed by `Root`'s
/// drop so failures don't accumulate garbage.
struct Root(PathBuf);

impl Root {
    fn new(tag: &str) -> Root {
        let dir =
            std::env::temp_dir().join(format!("cedar-run-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Root(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Options running a cached campaign against this root. The cache
    /// lands in `<root>/cache`, the manifests in `<root>`.
    fn opts(&self, mode: CacheMode) -> RunOptions {
        RunOptions::default()
            .with_workers(2)
            .with_cache(mode)
            .with_output_dir(self.path())
    }
}

impl Drop for Root {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small deterministic workload, varied by `salt`.
fn app(salt: u64) -> AppSpec {
    AppBuilder::new("CACHED")
        .array("data", 64 * 1024)
        .serial(300 + salt)
        .xdoall(
            16,
            BodySpec::compute(150 + salt).with_access(AccessPattern::sweep(0, 4)),
        )
        .build()
}

/// An on-disk entry with the wall-clock-only lines (`stats.*_ns`, and
/// the header checksum/length they perturb) masked out. Everything else
/// in an entry is deterministic.
fn masked_entry(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .map(|l| {
            if l.starts_with("stats.")
                || l.starts_with("payload_bytes ")
                || l.starts_with("payload_fnv1a ")
            {
                let field = l.split(' ').next().unwrap_or(l);
                format!("{field} <masked>")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The decoder the campaign hands the store for an entry keyed with
/// application `app`.
fn decode(app: &'static str) -> impl FnOnce(&[u8]) -> Option<RunResult> {
    move |payload| RunResult::decode(payload, app).ok()
}

#[test]
fn warm_suite_is_all_hits_and_byte_identical() {
    type Runner = fn(&[AppSpec], &[SimConfig], &RunOptions) -> SuiteResult;
    let runners: [(&str, Runner); 2] = [
        ("run_parallel", SuiteResult::measure),
        ("run_sequential", |apps, configs, opts| {
            SuiteResult::run_sequential(apps, configs, opts).expect("campaign failed")
        }),
    ];
    let apps = [app(1), app(2)];
    let configs = [Configuration::P1, Configuration::P8].map(SimConfig::cedar);
    for (runner, run) in runners {
        let root = Root::new(&format!("warm-{runner}"));
        let opts = root.opts(CacheMode::ReadWrite);

        let cold = run(&apps, &configs, &opts);
        let c = cold.telemetry.cache.expect("cache stats present");
        assert_eq!(
            (c.hits, c.misses, c.writes),
            (0, 4, 4),
            "{runner}: a cold cache cannot hit"
        );

        let warm = run(&apps, &configs, &opts);
        let w = warm.telemetry.cache.expect("cache stats present");
        assert_eq!(
            (w.hits, w.misses, w.writes),
            (4, 0, 0),
            "{runner}: a warm identical campaign is all hits"
        );
        assert!((w.hit_rate() - 1.0).abs() < 1e-12);

        let broken = same_campaign(&cold, &warm);
        assert!(
            broken.is_empty(),
            "{runner}: replayed measurements must be identical: {broken:#?}"
        );
    }
}

#[test]
fn corrupt_entries_recompute_and_rewrite() {
    let root = Root::new("corrupt");
    let opts = root.opts(CacheMode::ReadWrite);
    let apps = [app(3)];
    let cfg = SimConfig::cedar(Configuration::P4);
    let configs = [cfg.clone()];

    let cold = SuiteResult::measure(&apps, &configs, &opts);
    let entry = root
        .path()
        .join("cache")
        .join(run_key(&apps[0], &cfg).shard())
        .join(format!("{}.run", run_key(&apps[0], &cfg).hex()));
    assert!(entry.is_file(), "cold run must have written {entry:?}");
    let pristine = std::fs::read(&entry).unwrap();

    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", pristine[..pristine.len() / 2].to_vec()),
        ("bit-flipped", {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x20;
            b
        }),
        ("wrong format version", {
            String::from_utf8(pristine.clone())
                .unwrap()
                .replacen("format=", "format=9", 1)
                .into_bytes()
        }),
        ("wrong model version", {
            String::from_utf8(pristine.clone())
                .unwrap()
                .replacen("model=", "model=9", 1)
                .into_bytes()
        }),
        ("garbage", b"not a cache entry at all\n".to_vec()),
        ("empty", Vec::new()),
    ];
    for (what, bytes) in corruptions {
        std::fs::write(&entry, &bytes).unwrap();
        let again = SuiteResult::measure(&apps, &configs, &opts);
        let c = again.telemetry.cache.expect("cache stats");
        assert_eq!(c.hits, 0, "{what}: a corrupt entry must not hit");
        assert_eq!(c.misses, 1, "{what}: must recompute");
        assert_eq!(c.writes, 1, "{what}: must rewrite the entry");
        let broken = same_campaign(&cold, &again);
        assert!(
            broken.is_empty(),
            "{what}: recomputed measurements must match: {broken:#?}"
        );
        assert_eq!(
            masked_entry(&std::fs::read(&entry).unwrap()),
            masked_entry(&pristine),
            "{what}: the rewritten entry must match the original \
             (modulo wall-clock telemetry)"
        );
    }
}

#[test]
fn read_only_serves_hits_but_never_writes() {
    let root = Root::new("ro");
    let apps = [app(4)];
    let configs = [Configuration::P1, Configuration::P4].map(SimConfig::cedar);

    // Read-only over an empty store: all misses, nothing written.
    let ro_cold = SuiteResult::measure(&apps, &configs, &root.opts(CacheMode::ReadOnly));
    let c = ro_cold.telemetry.cache.expect("cache stats");
    assert_eq!((c.hits, c.misses, c.writes), (0, 2, 0));
    assert!(
        !root.path().join("cache").exists(),
        "read-only must not create the store"
    );

    // Populate, then read-only again: all hits, still no writes.
    SuiteResult::measure(&apps, &configs, &root.opts(CacheMode::ReadWrite));
    let ro_warm = SuiteResult::measure(&apps, &configs, &root.opts(CacheMode::ReadOnly));
    let c = ro_warm.telemetry.cache.expect("cache stats");
    assert_eq!((c.hits, c.misses, c.writes), (2, 0, 0));
}

#[test]
fn trace_keeping_runs_bypass_the_cache() {
    let root = Root::new("bypass");
    let opts = root.opts(CacheMode::ReadWrite);
    let session = CacheSession::new(&opts).expect("cache session");
    let a = app(6);
    let traced = SimConfig::cedar(Configuration::P1).with_trace();

    let r1 = session.execute(&a, traced.clone());
    let r2 = session.execute(&a, traced);
    assert!(r1.trace.is_some(), "traced run keeps its trace");
    assert!(r2.trace.is_some(), "second traced run keeps its trace too");
    let stats = session.stats().expect("cache stats");
    assert_eq!(stats.bypasses, 2, "both traced runs bypass");
    assert_eq!(stats.hits + stats.misses + stats.writes, 0);
    assert!(
        !root.path().join("cache").exists(),
        "bypassed runs must not touch the store"
    );
}

#[test]
fn off_mode_never_touches_disk() {
    let root = Root::new("off");
    let apps = [app(7)];
    let p1 = [SimConfig::cedar(Configuration::P1)];
    let suite = SuiteResult::measure(&apps, &p1, &root.opts(CacheMode::Off));
    assert!(suite.telemetry.cache.is_none(), "off mode reports no stats");
    assert!(!root.path().join("cache").exists());
}

/// The property sweep: seeded fuzz cases (the `config_fuzz` generator
/// family: varying shape, configuration, seed) round-trip through the
/// full disk path with every measurement preserved.
#[test]
fn seeded_round_trip_property() {
    let root = Root::new("prop");
    let cache = RunCache::open(root.path().join("cache"), CacheMode::ReadWrite).unwrap();
    let mut rng = SplitMix64::new(0x000C_AC4E_5EED);
    for i in 0..24 {
        let outer = 2 + rng.next_below(6) as u32;
        let inner = 1 + rng.next_below(6) as u32;
        let compute = 40 + rng.next_below(260);
        let words = rng.next_below(8) as u32;
        let flat = rng.next_below(2) == 0;
        let mut b = AppBuilder::new("PROP")
            .array("data", 64 * 1024)
            .serial(200 + rng.next_below(800));
        let mut body = BodySpec::compute(compute);
        if words > 0 {
            body = body.with_access(AccessPattern::sweep(0, words));
        }
        b = if flat {
            b.xdoall(outer * inner, body)
        } else {
            b.sdoall(outer, inner, body)
        };
        let a = b.build();
        let configs = [
            Configuration::P1,
            Configuration::P4,
            Configuration::P8,
            Configuration::P16,
            Configuration::P32,
        ];
        let cfg = SimConfig::cedar(configs[rng.next_below(5) as usize]).with_seed(rng.next_u64());

        let direct = cedar::core::Experiment::new(a.clone(), cfg.clone()).run();
        let key = run_key(&a, &cfg);
        cache.put(&key, &direct.encode());
        let replayed = cache
            .get(&key, decode(a.name))
            .unwrap_or_else(|| panic!("case {i}: entry vanished for key {key}"));
        assert_eq!(
            direct.encode(),
            replayed.encode(),
            "case {i}: disk round trip altered a measurement"
        );
    }
    let s = cache.stats();
    assert_eq!(s.hits, 24);
    assert_eq!(s.writes, 24);
}

/// Key discrimination over the same fuzz family: distinct experiments
/// must never share a content address.
#[test]
fn keys_never_collide_across_the_sweep() {
    let mut keys = std::collections::HashSet::new();
    let mut rng = SplitMix64::new(0x7E57_5EED);
    let mut total = 0;
    for _ in 0..16 {
        let a = app(rng.next_below(1_000));
        for c in [Configuration::P1, Configuration::P8, Configuration::P32] {
            let cfg = SimConfig::cedar(c).with_seed(rng.next_u64());
            assert!(
                keys.insert(run_key(&a, &cfg).hex()),
                "key collision for {a:?} at {c:?}"
            );
            total += 1;
        }
    }
    assert_eq!(keys.len(), total);
}

/// Seeded partial-write corruption property: a power failure or torn
/// write can leave an entry damaged at *any* byte, so this sweep
/// truncates and bit-flips at seeded offsets — biased into the two
/// structurally delicate regions, the entry's header block (magic, key
/// echo, length, checksum) and the payload's counter-name strings,
/// which the decoder resolves against the names the machine emits — and
/// requires every single corruption to read as a silent miss (no panic,
/// no wrong result) healed by one clean rewrite.
#[test]
fn seeded_partial_write_corruption_is_a_silent_miss_then_heals() {
    let root = Root::new("partial");
    let cache = RunCache::open(root.path().join("cache"), CacheMode::ReadWrite).unwrap();
    let a = app(9);
    let cfg = SimConfig::cedar(Configuration::P4);
    let direct = cedar::core::Experiment::new(a.clone(), cfg.clone()).run();
    let key = run_key(&a, &cfg);
    cache.put(&key, &direct.encode());
    let path = cache.entry_path(&key);
    let pristine = std::fs::read(&path).unwrap();
    let text = String::from_utf8(pristine.clone()).unwrap();

    // Byte ranges of the two targeted regions: the whole header block,
    // and every `counter <name>` text inside the payload.
    let header_end = text.find("---\n").expect("entry has a header") + 4;
    let mut counter_name_bytes = Vec::new();
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if let Some(rest) = line.strip_prefix("counter ") {
            let name_len = rest.split(' ').next().unwrap_or("").len();
            counter_name_bytes.extend(offset + 8..offset + 8 + name_len);
        }
        offset += line.len();
    }
    assert!(
        !counter_name_bytes.is_empty(),
        "entry should carry counter names"
    );

    let mut rng = SplitMix64::new(0xBAD_0FF5E7);
    let mut hits_expected = 0;
    for case in 0..48 {
        // Pick a target byte: header region, counter-name region, or
        // anywhere, each a third of the cases.
        let target = match case % 3 {
            0 => rng.next_below(header_end as u64) as usize,
            1 => counter_name_bytes[rng.next_below(counter_name_bytes.len() as u64) as usize],
            _ => rng.next_below(pristine.len() as u64) as usize,
        };
        let corrupted = if rng.next_below(2) == 0 {
            // Truncate at the target: a torn write that stopped early.
            pristine[..target].to_vec()
        } else {
            // Flip a nonzero mask of the target byte.
            let mut b = pristine.clone();
            b[target] ^= 1 + rng.next_below(255) as u8;
            b
        };
        if corrupted == pristine {
            continue; // truncation at len 0 target can no-op; skip
        }
        std::fs::write(&path, &corrupted).unwrap();

        assert!(
            cache.get(&key, decode(a.name)).is_none(),
            "case {case}: corruption at byte {target} must be a miss, not served"
        );
        // Recovery: one rewrite restores a byte-equivalent entry
        // (modulo wall-clock telemetry) that hits again.
        cache.put(&key, &direct.encode());
        let healed = cache.get(&key, decode(a.name)).unwrap_or_else(|| {
            panic!("case {case}: rewritten entry must hit");
        });
        hits_expected += 1;
        assert_eq!(
            healed.encode(),
            direct.encode(),
            "case {case}: healed entry altered a measurement"
        );
        assert_eq!(
            masked_entry(&std::fs::read(&path).unwrap()),
            masked_entry(&pristine),
            "case {case}: healed entry does not match the original"
        );
    }
    assert!(hits_expected >= 40, "sweep degenerated: {hits_expected}");

    // The recovery path must not leak tmp files into the shard.
    let shard = path.parent().unwrap().to_path_buf();
    let leftovers: Vec<_> = std::fs::read_dir(&shard)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "tmp leftovers: {leftovers:?}");

    let s = cache.stats();
    assert_eq!(s.hits, hits_expected, "every healed entry served once");
}

/// A stale-by-construction entry (valid checksum, older format header)
/// written through the public API then doctored must read as a miss —
/// the exact upgrade path after a MODEL_VERSION bump.
#[test]
fn version_skew_is_stale_not_fatal() {
    let root = Root::new("skew");
    let cache = RunCache::open(root.path().join("cache"), CacheMode::ReadWrite).unwrap();
    let a = app(8);
    let cfg = SimConfig::cedar(Configuration::P1);
    let direct = cedar::core::Experiment::new(a.clone(), cfg.clone()).run();
    let key = run_key(&a, &cfg);
    cache.put(&key, &direct.encode());

    let path = cache.entry_path(&key);
    let doctored = std::fs::read_to_string(&path).unwrap().replacen(
        "cedar-run-cache format=",
        "cedar-run-cache format=0",
        1,
    );
    std::fs::write(&path, doctored).unwrap();
    assert!(
        cache.get(&key, decode(a.name)).is_none(),
        "an old-format entry is stale, not served"
    );
    // Rewriting through put() makes it live again.
    cache.put(&key, &direct.encode());
    let revived = cache
        .get(&key, decode(a.name))
        .expect("rewritten entry hits");
    assert_eq!(
        revived.encode(),
        direct.encode(),
        "revived entry carries the original measurements"
    );
}
