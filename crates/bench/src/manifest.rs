//! The run manifest: the campaign's self-measurement, applied to the
//! simulator the way the paper applied cedarhpm to Cedar.
//!
//! After a campaign, [`write()`] drops `RUN_manifest.json` next to the
//! tables' CSVs: the typed [`RunOptions`] the run was configured with,
//! a stable fingerprint of what it simulated (a campaign's
//! [`RunOptions::fingerprint_seed`], the `check` binary's cases),
//! best-effort git provenance, event totals, the merged counter rollup
//! (per-class event counts, queue statistics, hold-latency histogram),
//! per-phase wall-clock, and the worker pool's busy/idle accounting.
//!
//! Every field except the `*_ns` wall-clock timings, `utilization`, the
//! `git` line, and the `cache` traffic object is deterministic for a
//! fixed configuration, so two manifests from identical runs diff clean
//! once timings are masked. (The `cache` object varies by design: a cold
//! campaign reports misses where a warm one reports hits, even though
//! the measurements themselves are byte-identical.)

use std::io;
use std::path::{Path, PathBuf};

use cedar_core::suite::SuiteResult;
use cedar_obs::json::{self, Obj};
use cedar_obs::{Counters, RunOptions};

/// Where campaign artifacts land when `opts.output_dir` is unset: the
/// workspace-root `results/`, regardless of the binary's cwd.
fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn counters_obj(counters: &Counters) -> String {
    let mut o = Obj::new();
    for (name, value) in counters.iter() {
        o.u64(name, value);
    }
    o.finish()
}

fn options_obj(opts: &RunOptions) -> String {
    let mut o = Obj::new();
    o.opt_u64("workers", opts.workers.map(|w| w as u64));
    o.u64("shrink", opts.shrink as u64);
    o.bool("smoke", opts.smoke);
    o.str("cache", opts.cache.as_str());
    o.finish()
}

/// Where artifacts for `opts` land: its `output_dir` override, else the
/// workspace-root `results/`. Shared by the manifest writer and the
/// campaign binaries so every campaign file ends up in one place.
pub fn artifact_dir(opts: &RunOptions) -> PathBuf {
    opts.output_dir.clone().unwrap_or_else(default_dir)
}

/// Renders `RUN_manifest.json` for a finished campaign whose
/// `fingerprint` hashes `fingerprint_seed`, the text naming what it
/// simulated.
pub fn manifest_json(suite: &SuiteResult, opts: &RunOptions, fingerprint_seed: &str) -> String {
    let t = &suite.telemetry;
    let runs: usize = suite.apps.iter().map(|a| a.runs.len()).sum();
    let mut o = Obj::new();
    o.str("schema", "cedar-obs/1");
    o.str(
        "fingerprint",
        &format!("{:016x}", json::fnv1a(fingerprint_seed.as_bytes())),
    );
    o.raw("options", options_obj(opts));
    o.u64(
        "seed",
        cedar_core::SimConfig::cedar(cedar_hw::Configuration::P1).seed,
    );
    match json::git_describe() {
        Some(d) => o.str("git", &d),
        None => o.raw("git", "null"),
    };
    o.raw("apps", json::str_array(suite.apps.iter().map(|a| a.app)));
    o.u64("runs", runs as u64);
    o.u64("events_total", t.events_total());
    o.u64("wall_ns", t.wall_ns);
    o.u64("setup_ns", t.setup_ns);
    o.u64("run_ns", t.run_ns);
    o.u64("breakdown_ns", t.breakdown_ns);
    match &t.pool {
        Some(p) => {
            let mut po = Obj::new();
            po.u64("workers", p.workers as u64);
            po.u64("jobs", p.jobs as u64);
            po.u64("busy_ns", p.busy_ns);
            po.u64("wall_ns", p.wall_ns);
            po.u64("idle_ns", p.idle_ns());
            po.f64("utilization", p.utilization());
            o.raw("pool", po.finish())
        }
        None => o.raw("pool", "null"),
    };
    match &t.cache {
        Some(c) => {
            let mut co = Obj::new();
            co.str("mode", c.mode.as_str());
            co.u64("hits", c.hits);
            co.u64("misses", c.misses);
            co.u64("writes", c.writes);
            co.u64("bypasses", c.bypasses);
            co.f64("hit_rate", c.hit_rate());
            o.raw("cache", co.finish())
        }
        None => o.raw("cache", "null"),
    };
    o.raw("counters", counters_obj(&t.counters));
    let mut out = o.finish();
    out.push('\n');
    out
}

/// Writes `RUN_manifest.json`, fingerprinting `fingerprint_seed`, under
/// `opts.output_dir` or the workspace `results/` and returns its path.
pub fn write(
    suite: &SuiteResult,
    opts: &RunOptions,
    fingerprint_seed: &str,
) -> io::Result<PathBuf> {
    let dir = artifact_dir(opts);
    std::fs::create_dir_all(&dir)?;
    let manifest = dir.join("RUN_manifest.json");
    std::fs::write(&manifest, manifest_json(suite, opts, fingerprint_seed))?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_hw::Configuration;

    fn tiny_suite(opts: &RunOptions) -> SuiteResult {
        let apps = vec![cedar_apps::synthetic::uniform_xdoall(1, 2, 8, 120, 4)];
        let configs = [Configuration::P1, Configuration::P4].map(cedar_core::SimConfig::cedar);
        SuiteResult::run_sequential(&apps, &configs, opts).expect("tiny campaign")
    }

    #[test]
    fn manifest_carries_options_and_counters() {
        let opts = RunOptions::default().with_shrink(4);
        let suite = tiny_suite(&opts);
        let m = manifest_json(&suite, &opts, &opts.fingerprint_seed());
        assert!(m.starts_with("{\"schema\":\"cedar-obs/1\""));
        assert!(m.contains("\"shrink\":4"));
        assert!(m.contains("\"events.total\":"));
        assert!(m.contains("\"queue.scheduled\":"));
        assert!(m.contains("\"pool\":null"));
        assert!(m.contains("\"cache\":null"));
        assert!(m.contains("\"cache\":\"off\""));
        assert!(m.ends_with("}\n"));
    }

    #[test]
    fn manifest_reports_cache_traffic_when_enabled() {
        let dir = std::env::temp_dir().join(format!("cedar-manifest-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions::default()
            .with_cache(cedar_obs::CacheMode::ReadWrite)
            .with_output_dir(&dir);
        let suite = tiny_suite(&opts);
        let m = manifest_json(&suite, &opts, &opts.fingerprint_seed());
        assert!(m.contains("\"cache\":\"rw\""));
        assert!(m.contains("\"cache\":{\"mode\":\"rw\",\"hits\":0,\"misses\":2,\"writes\":2"));
        let warm = tiny_suite(&opts);
        let m2 = manifest_json(&warm, &opts, &opts.fingerprint_seed());
        assert!(
            m2.contains("\"hits\":2,\"misses\":0,\"writes\":0"),
            "second identical campaign is all hits: {m2}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
