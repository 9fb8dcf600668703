//! Runs the invariant-oracle checker over the seeded corpus (or a
//! single replayed case) and writes `results/CHECK_violations.json`
//! plus a run manifest recording what was checked.
//!
//! Knobs, all through the typed options surface:
//!
//! * `BENCH_SMOKE=1` — the four-case smoke corpus at 1/64 scale (the
//!   `scripts/ci.sh` leg) instead of the full 30-case corpus at 1/16.
//! * `CEDAR_SHRINK=<n>` — override the corpus workload scale.
//! * `CEDAR_CHECK_REPLAY='app=…;procs=…;faults=…;shrink=…;seed=…'` —
//!   re-check exactly one case from a violation report's replay token.
//!
//! Exit status: 0 when every oracle holds, 1 on any violation (after
//! shrinking each to a minimal reproducer), 2 on a malformed replay
//! token.

use std::process::ExitCode;

use cedar_check::{shrink, CheckConfig, CheckOptions, CheckReport, Harness};
use cedar_core::suite::{SuiteResult, SuiteTelemetry};

fn main() -> ExitCode {
    let opts = cedar_bench::run_options();
    let check_opts = match CheckOptions::from_env() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(case) = check_opts.replay {
        eprintln!("replaying one case: {}", case.label());
    }
    let cases = check_opts.cases(opts);

    let mut harness = Harness::new(CheckConfig::default());
    let mut violations = Vec::new();
    let t0 = std::time::Instant::now();
    eprintln!(
        "checking {} case(s) under {} oracles...",
        cases.len(),
        cedar_check::OracleKind::ALL.len()
    );
    for case in &cases {
        let found = harness.check_case(case);
        if found.is_empty() {
            continue;
        }
        eprintln!("VIOLATION at {}: shrinking...", case.label());
        // One shrink session per violated oracle: each minimal
        // reproducer is specific to the law it breaks.
        let mut oracles: Vec<_> = found.iter().map(|v| v.oracle).collect();
        oracles.dedup();
        for oracle in oracles {
            let outcome = shrink(case, oracle, &mut harness);
            let minimal = harness
                .check_case(&outcome.minimal)
                .into_iter()
                .filter(|v| v.oracle == oracle);
            for v in minimal {
                eprintln!(
                    "  {}: {} (replay: {})",
                    v.oracle,
                    v.detail,
                    v.case.replay_token()
                );
                violations.push(v);
            }
        }
    }
    eprintln!(
        "checked {} case(s) in {:.1}s: {} simulation(s), {} violation(s)",
        harness.counters.get("check.cases"),
        t0.elapsed().as_secs_f64(),
        harness.counters.get("check.runs"),
        violations.len()
    );

    let clean = violations.is_empty();
    let report = CheckReport::new(violations, harness.counters.clone());
    let dir = cedar_bench::manifest::artifact_dir(opts);
    let path = dir.join("CHECK_violations.json");
    match report.write(&path) {
        Ok(()) => eprintln!("violation report written to {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }

    // The manifest records the checker's whole rollup — simulator
    // counters from every re-execution plus the check.* oracle
    // pass/violation counters — in the standard RUN_manifest.json
    // shape.
    let suite = SuiteResult {
        apps: Vec::new(),
        telemetry: SuiteTelemetry {
            counters: harness.counters.clone(),
            wall_ns: t0.elapsed().as_nanos() as u64,
            ..SuiteTelemetry::default()
        },
    };
    let seed = cedar_check::cases_fingerprint_seed(&cases);
    match cedar_bench::manifest::write(&suite, opts, &seed) {
        Ok(path) => eprintln!("run manifest written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write run manifest: {e}"),
    }

    if clean {
        println!(
            "check: PASS — {} oracle evaluations, 0 violations",
            report.counters.get("check.oracles.pass")
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "check: FAIL — {} violation(s); reproducers in {}",
            report.violations.len(),
            path.display()
        );
        ExitCode::from(1)
    }
}
