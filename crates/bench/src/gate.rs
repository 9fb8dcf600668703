//! Benchmark-regression gate: compares a fresh `BENCH_*.json` against
//! the committed baseline and fails on runtime regressions.
//!
//! Both files are in the harness's JSON shape (see
//! [`harness::Harness::to_json`](crate::harness)), read back with
//! [`cedar_obs::json::parse`].
//!
//! The report opens with the worker-pool width each file was measured
//! with: `suite/mini_campaign` spreads over the pool, so its baseline
//! only transfers to a host running the same width.
//!
//! The checks, driven by `scripts/bench_check.sh` in CI:
//!
//! 1. **Suite regression** — the fresh `suite/mini_campaign` median must
//!    not exceed the baseline median by more than the tolerance
//!    (default 15%). Catches simulator-wide slowdowns.
//! 2. **Fault-path regression** — the same for
//!    `faults/flo52_p8/calendar`, against its own 15% tolerance.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cedar_obs::json::{self, JsonValue};

/// Allowed suite-runtime growth over the baseline: +15%.
pub(crate) const SUITE_TOLERANCE: f64 = 0.15;

/// Allowed fault-path runtime growth over the baseline: +15%. Keeps
/// the injection machinery (driver draws, extra fault events, scaled
/// lock acquires) honest the same way the suite check keeps the clean
/// simulator honest.
pub(crate) const FAULTS_TOLERANCE: f64 = 0.15;

/// Extracts `benchmark name -> median_ns` from harness-format JSON by
/// walking its `benchmarks` array. Returns an error if the text does
/// not parse, holds no benchmarks, or has a benchmark without a name or
/// `median_ns`, so a truncated or hand-mangled file fails loudly
/// instead of passing an empty gate.
pub(crate) fn medians(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(text).map_err(|e| format!("unparseable JSON: {e}"))?;
    let benchmarks = match doc.get("benchmarks") {
        Some(JsonValue::Arr(items)) if !items.is_empty() => items,
        _ => return Err("no benchmarks found in JSON".to_string()),
    };
    benchmarks
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("benchmark without a name")?;
            let median = b
                .get("median_ns")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("benchmark `{name}` has no median_ns"))?;
            Ok((name.to_string(), median))
        })
        .collect()
}

/// The worker-pool width recorded in harness-format JSON, or `None` for
/// files written before the harness recorded it.
fn workers(text: &str) -> Option<u64> {
    json::parse(text).ok()?.get("workers")?.as_u64()
}

fn get(map: &BTreeMap<String, f64>, key: &str, which: &str) -> Result<f64, String> {
    map.get(key)
        .copied()
        .ok_or_else(|| format!("{which} JSON is missing `{key}`"))
}

/// Runs the gate checks. Returns a human-readable report on success and
/// the list of violations on failure.
pub fn check(fresh: &str, baseline: &str) -> Result<String, String> {
    let width = |text| workers(text).map_or("unrecorded".to_string(), |w| format!("{w} workers"));
    let mut report = format!(
        "pool width: fresh {}, baseline {}\n",
        width(fresh),
        width(baseline)
    );
    let fresh = medians(fresh).map_err(|e| format!("fresh results: {e}"))?;
    let baseline = medians(baseline).map_err(|e| format!("baseline: {e}"))?;

    let mut failures = String::new();

    let suite_now = get(&fresh, "suite/mini_campaign", "fresh")?;
    let suite_base = get(&baseline, "suite/mini_campaign", "baseline")?;
    let growth = suite_now / suite_base - 1.0;
    writeln!(
        report,
        "suite/mini_campaign: {:.1} ms vs baseline {:.1} ms ({:+.1}%, budget {:+.0}%)",
        suite_now / 1e6,
        suite_base / 1e6,
        growth * 100.0,
        SUITE_TOLERANCE * 100.0
    )
    .unwrap();
    if growth > SUITE_TOLERANCE {
        writeln!(
            failures,
            "suite runtime regressed {:.1}% (budget {:.0}%); if the slowdown is \
             intentional, refresh results/bench_baseline.json (see scripts/bench_check.sh)",
            growth * 100.0,
            SUITE_TOLERANCE * 100.0
        )
        .unwrap();
    }

    let faults_now = get(&fresh, "faults/flo52_p8/calendar", "fresh")?;
    let faults_base = get(&baseline, "faults/flo52_p8/calendar", "baseline")?;
    let faults_growth = faults_now / faults_base - 1.0;
    writeln!(
        report,
        "faults/flo52_p8: {:.1} ms vs baseline {:.1} ms ({:+.1}%, budget {:+.0}%)",
        faults_now / 1e6,
        faults_base / 1e6,
        faults_growth * 100.0,
        FAULTS_TOLERANCE * 100.0
    )
    .unwrap();
    if faults_growth > FAULTS_TOLERANCE {
        writeln!(
            failures,
            "fault-path runtime regressed {:.1}% (budget {:.0}%); if the slowdown is \
             intentional, refresh results/bench_baseline.json (see scripts/bench_check.sh)",
            faults_growth * 100.0,
            FAULTS_TOLERANCE * 100.0
        )
        .unwrap();
    }

    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nFAIL:\n{failures}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(entries: &[(&str, f64)]) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|(n, m)| format!("{{\"name\":\"{n}\",\"iters\":3,\"median_ns\":{m:.1}}}"))
            .collect();
        format!(
            "{{\"suite\":\"scheduler\",\"benchmarks\":[{}]}}",
            body.join(",")
        )
    }

    #[test]
    fn medians_roundtrip_harness_shape() {
        let m = medians(&json(&[("a/b", 12.5), ("c", 7.0)])).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["a/b"], 12.5);
        assert_eq!(m["c"], 7.0);
    }

    #[test]
    fn medians_reject_empty_and_truncated() {
        assert!(medians("{}").is_err());
        assert!(medians("{\"benchmarks\":[{\"name\":\"x\",\"iters\":3}]}").is_err());
    }

    /// Baseline with both gated medians at 100 ms.
    fn base_json() -> String {
        json(&[
            ("suite/mini_campaign", 100.0e6),
            ("faults/flo52_p8/calendar", 100.0e6),
        ])
    }

    #[test]
    fn gate_passes_within_budget() {
        let fresh = json(&[
            ("suite/mini_campaign", 110.0e6),
            ("faults/flo52_p8/calendar", 110.0e6),
        ])
        .replacen("{", "{\"workers\":2,", 1);
        let report = check(&fresh, &base_json()).unwrap();
        assert!(report.contains("suite/mini_campaign"));
        assert!(report.contains("faults/flo52_p8"));
        assert!(
            report.starts_with("pool width: fresh 2 workers, baseline unrecorded\n"),
            "{report}"
        );
    }

    #[test]
    fn gate_fails_on_suite_regression() {
        let fresh = json(&[
            ("suite/mini_campaign", 120.0e6),
            ("faults/flo52_p8/calendar", 100.0e6),
        ]);
        let err = check(&fresh, &base_json()).unwrap_err();
        assert!(err.contains("suite runtime regressed"), "{err}");
    }

    #[test]
    fn gate_fails_on_fault_path_regression() {
        let fresh = json(&[
            ("suite/mini_campaign", 100.0e6),
            ("faults/flo52_p8/calendar", 130.0e6),
        ]);
        let err = check(&fresh, &base_json()).unwrap_err();
        assert!(err.contains("fault-path runtime regressed"), "{err}");
    }

    #[test]
    fn gate_reports_missing_benchmarks() {
        let base = json(&[("other", 1.0)]);
        let fresh = json(&[("suite/mini_campaign", 1.0)]);
        let err = check(&fresh, &base).unwrap_err();
        assert!(err.contains("missing `suite/mini_campaign`"), "{err}");
    }
}
