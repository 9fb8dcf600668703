//! Self-validation of the `cedar-check` harness: a checker is only
//! trustworthy if it demonstrably catches bugs, so this suite plants
//! one — [`Sabotage::InflateAttribution`] models a fault-accounting
//! recorder that undercounts delivered cycles by a large factor on
//! machines of at least `min_procs` processors — and asserts the whole
//! pipeline reacts correctly end to end:
//!
//! 1. the oracle registry flags the planted bug and *only* that bug,
//! 2. the delta-debugging shrinker converges, within its evaluation
//!    budget, to a minimal reproducer sitting exactly on the bug's
//!    machine-size boundary,
//! 3. the reproducer's replay token round-trips through the
//!    `CEDAR_CHECK_REPLAY` parser and re-checking the parsed case in a
//!    fresh harness reproduces the identical violation, and
//! 4. a clean harness finds nothing wrong with the same case.

use cedar::check::{shrink, CheckCase, CheckConfig, CheckOptions, Harness, OracleKind, Sabotage};
use cedar::hw::Configuration;

/// The planted defect only "affects" machines with ≥ 8 processors, so
/// the shrinker must stop at P8 — P4 runs are clean and cannot be part
/// of a reproducer.
const SABOTAGE: Sabotage = Sabotage::InflateAttribution {
    factor: 1_000,
    min_procs: 8,
};

fn sabotaged() -> Harness {
    Harness::new(CheckConfig {
        sabotage: Some(SABOTAGE),
        max_shrink_evals: 32,
    })
}

#[test]
fn planted_bug_is_caught_shrunk_and_replayed() {
    let start = CheckCase {
        app: "MDG",
        configuration: Configuration::P16,
        fault_level: 2,
        shrink: 64,
        shuffle_seed: 0x5EED_CAFE,
    };

    // 1. The checker catches the planted bug, and blames only the
    // attribution oracle — the sabotage must not bleed into the five
    // laws it does not break.
    let mut harness = sabotaged();
    let found = harness.check_case(&start);
    assert!(
        !found.is_empty(),
        "sabotaged harness failed to flag the planted accounting bug"
    );
    assert!(
        found
            .iter()
            .all(|v| v.oracle == OracleKind::FaultAttribution),
        "sabotage leaked into other oracles: {found:?}"
    );

    // 2. The shrinker reproduces the violation and converges within
    // its evaluation budget to a case on the bug's exact boundary.
    let outcome = shrink(&start, OracleKind::FaultAttribution, &mut harness);
    assert!(outcome.reproduced, "original case failed to re-violate");
    assert!(
        outcome.evals <= harness.config.max_shrink_evals,
        "shrinker overran its budget: {} > {}",
        outcome.evals,
        harness.config.max_shrink_evals
    );
    assert_eq!(
        harness.counters.get("check.shrink.evals"),
        outcome.evals as u64,
        "shrink evaluation counter out of sync with the outcome"
    );
    let minimal = outcome.minimal;
    assert_eq!(
        minimal.configuration,
        Configuration::P8,
        "minimal reproducer should sit on the sabotage's min_procs boundary"
    );
    assert_eq!(minimal.shuffle_seed, 0, "seed should shrink to zero");
    assert!(
        minimal.fault_level >= 1 && minimal.fault_level <= start.fault_level,
        "an unfaulted case cannot violate attribution: {minimal:?}"
    );

    // The minimal case still violates, and one step smaller does not —
    // the shrinker stopped at a true local minimum, not on its budget.
    assert!(
        !harness
            .check_oracle(&minimal, OracleKind::FaultAttribution)
            .is_empty(),
        "minimal reproducer does not reproduce"
    );
    let below_boundary = CheckCase {
        configuration: Configuration::P4,
        ..minimal
    };
    assert!(
        harness
            .check_oracle(&below_boundary, OracleKind::FaultAttribution)
            .is_empty(),
        "the planted bug does not affect machines below min_procs"
    );

    // 3. The replay token round-trips through the CEDAR_CHECK_REPLAY
    // parser, and two fresh harnesses given the parsed case report the
    // byte-identical violation — the reproducer is deterministic.
    let token = minimal.replay_token();
    let parsed = CheckOptions::parse(Some(&token))
        .unwrap_or_else(|e| panic!("replay token `{token}` failed to parse: {e}"))
        .replay
        .expect("token parses to a case");
    assert_eq!(parsed, minimal, "replay token round-trip changed the case");
    let details = |h: &mut Harness| -> Vec<String> {
        h.check_oracle(&parsed, OracleKind::FaultAttribution)
            .into_iter()
            .map(|v| v.detail)
            .collect()
    };
    let first = details(&mut sabotaged());
    let second = details(&mut sabotaged());
    assert!(!first.is_empty(), "replayed case does not violate");
    assert_eq!(first, second, "replayed violation is not deterministic");

    // 4. A clean harness holds the same case to the real oracle — the
    // planted defect, not the product, was the only thing wrong.
    let mut clean = Harness::new(CheckConfig::default());
    assert!(
        clean
            .check_oracle(&minimal, OracleKind::FaultAttribution)
            .is_empty(),
        "minimal reproducer violates even without sabotage"
    );
}
