//! Env-path vs typed-path equivalence: configuring a campaign through
//! the `CEDAR_*` environment (parsed once by `RunOptions::from_env`)
//! must be indistinguishable from building the same `RunOptions` in
//! code — the same options value, byte-identical rendered tables, and a
//! byte-identical run manifest once the wall-clock-only fields are
//! masked.
//!
//! All environment manipulation lives in one `#[test]`: test threads
//! share the process environment, so a single test owning the variables
//! for its whole run avoids any cross-test race (the other test here is
//! pure).

use cedar::apps::{perfect_suite, AppSpec};
use cedar::core::suite::SuiteResult;
use cedar::core::SimConfig;
use cedar::hw::Configuration;
use cedar::obs::RunOptions;
use cedar::report::tables;
use cedar_bench::manifest;

/// Reduced scale, matching the golden campaign's fixed factor.
const SHRINK: u32 = 16;

fn grid_apps() -> Vec<AppSpec> {
    perfect_suite()
        .into_iter()
        .map(|a| a.shrunk(SHRINK))
        .take(2)
        .collect()
}

/// Masks the manifest fields that legitimately vary run to run — the
/// `*_ns` wall-clock timings, the derived pool utilization, and the git
/// provenance line — leaving every deterministic byte in place.
fn mask_volatile(manifest: &str) -> String {
    let mut out = manifest.to_string();
    for key in [
        "wall_ns",
        "setup_ns",
        "run_ns",
        "breakdown_ns",
        "busy_ns",
        "idle_ns",
        "utilization",
        "git",
    ] {
        out = mask_key(&out, key);
    }
    out
}

/// Replaces every scalar value of `"key":` with `0`.
fn mask_key(s: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find(&pat) {
        let vstart = i + pat.len();
        out.push_str(&rest[..vstart]);
        let tail = &rest[vstart..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        out.push('0');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn env_path_and_typed_path_are_equivalent() {
    let apps = grid_apps();
    let configs = [Configuration::P1, Configuration::P8].map(SimConfig::cedar);

    // Env path: the variables a user would export, parsed once.
    std::env::set_var("CEDAR_SHRINK", SHRINK.to_string());
    std::env::set_var("CEDAR_WORKERS", "2");
    let from_env = RunOptions::from_env();
    for var in ["CEDAR_SHRINK", "CEDAR_WORKERS"] {
        std::env::remove_var(var);
    }

    // Typed path: the same configuration, spelled in code.
    let typed = RunOptions::default().with_shrink(SHRINK).with_workers(2);
    assert_eq!(from_env, typed, "options parse");

    let suite_env =
        SuiteResult::run_parallel(&apps, &configs, &from_env).expect("env-path campaign panicked");
    let suite_typed =
        SuiteResult::run_parallel(&apps, &configs, &typed).expect("typed-path campaign panicked");

    // Rendered artifacts: byte-identical.
    assert_eq!(tables::table1(&suite_env), tables::table1(&suite_typed));
    assert_eq!(tables::table4(&suite_env), tables::table4(&suite_typed));

    // Run manifests: byte-identical modulo wall-clock and provenance.
    assert_eq!(
        mask_volatile(&manifest::manifest_json(&suite_env, &from_env)),
        mask_volatile(&manifest::manifest_json(&suite_typed, &typed)),
        "manifest bytes"
    );
}

#[test]
fn volatile_mask_only_touches_wall_clock_fields() {
    let s = r#"{"a":1,"run_ns":123,"x":{"busy_ns":9,"git":"v1-dirty"},"events_total":7}"#;
    assert_eq!(
        mask_volatile(s),
        r#"{"a":1,"run_ns":0,"x":{"busy_ns":0,"git":0},"events_total":7}"#
    );
}
