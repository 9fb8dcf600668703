//! The typed invariant-oracle registry and the violation record.
//!
//! Each [`OracleKind`] names one law of the reproduction. The harness
//! evaluates every applicable oracle against every case; a failed
//! assertion becomes a [`Violation`] carrying the oracle, the case's
//! replay token, and a human-readable detail — serialized as ordered
//! JSON into `CHECK_violations.json`.

use cedar_obs::json::Obj;

use crate::case::CheckCase;

/// One checked law of the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Completion-time conservation ([`conservation`](crate::conservation)):
    /// every iteration executes exactly once, task breakdowns never
    /// exceed the wall clock, on every unsaturated cluster the Figure-3
    /// categories (user + OS) partition completion time exactly, and
    /// total concurrency lies in `(0, total CEs]`.
    Conservation,
    /// Re-running the identical case reproduces the run
    /// ([`same_run`](crate::same_run)).
    Determinism,
    /// Tie-break stability: under LIFO and seeded-shuffle event
    /// orders, the stable core (coverage, identity, conservation)
    /// holds exactly, completion time stays inside a bounded band, and
    /// single-cluster runs are byte-identical (simultaneous events on
    /// one cluster have no physically meaningful order).
    TieStability,
    /// The sequential runner, a one-worker pool and the direct library
    /// path measure the same run ([`same_campaign`](crate::same_campaign),
    /// [`same_run`](crate::same_run)). The case is a one-cell grid, and
    /// the pool never starts more workers than it has jobs, so several
    /// workers are checked elsewhere: `tests/parallel_suite.rs` (the
    /// 25-cell grid on the default pool, 4 cells under 64 requested
    /// workers), `tests/fault_determinism.rs` (4 cells on 3 workers) and
    /// CI's `CEDAR_WORKERS=8` leg.
    WorkerParity,
    /// A warm (cache-hit) run replays the cold run that populated the
    /// cache, and both equal the direct run
    /// ([`same_run`](crate::same_run)).
    CacheParity,
    /// Fault attribution: each injected fault class moves its targeted
    /// Table-2 bucket by at least the injected cost, less a
    /// displacement allowance, and untargeted buckets move only with
    /// organic growth ([`growth_budget`](crate::growth_budget), plus a
    /// quantization allowance).
    FaultAttribution,
}

impl OracleKind {
    /// Every oracle, in evaluation order.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::Conservation,
        OracleKind::Determinism,
        OracleKind::TieStability,
        OracleKind::WorkerParity,
        OracleKind::CacheParity,
        OracleKind::FaultAttribution,
    ];

    /// Stable registry name (used in reports and counters).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Conservation => "conservation",
            OracleKind::Determinism => "determinism",
            OracleKind::TieStability => "tie_stability",
            OracleKind::WorkerParity => "worker_parity",
            OracleKind::CacheParity => "cache_parity",
            OracleKind::FaultAttribution => "fault_attribution",
        }
    }

    /// The pass counter this oracle bumps in the harness rollup.
    pub(crate) fn pass_counter(self) -> &'static str {
        match self {
            OracleKind::Conservation => "check.oracle.conservation.pass",
            OracleKind::Determinism => "check.oracle.determinism.pass",
            OracleKind::TieStability => "check.oracle.tie_stability.pass",
            OracleKind::WorkerParity => "check.oracle.worker_parity.pass",
            OracleKind::CacheParity => "check.oracle.cache_parity.pass",
            OracleKind::FaultAttribution => "check.oracle.fault_attribution.pass",
        }
    }

    /// The violation counter this oracle bumps in the harness rollup.
    pub(crate) fn violation_counter(self) -> &'static str {
        match self {
            OracleKind::Conservation => "check.oracle.conservation.violation",
            OracleKind::Determinism => "check.oracle.determinism.violation",
            OracleKind::TieStability => "check.oracle.tie_stability.violation",
            OracleKind::WorkerParity => "check.oracle.worker_parity.violation",
            OracleKind::CacheParity => "check.oracle.cache_parity.violation",
            OracleKind::FaultAttribution => "check.oracle.fault_attribution.violation",
        }
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One oracle violation, bound to the case that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which law broke.
    pub oracle: OracleKind,
    /// The violating case.
    pub case: CheckCase,
    /// What the oracle saw (expected vs actual, in prose).
    pub detail: String,
}

impl Violation {
    /// The violation as an ordered-JSON object — one element of the
    /// `violations` array in `CHECK_violations.json`.
    pub fn to_json(&self) -> String {
        let mut case = Obj::new();
        case.str("app", self.case.app)
            .u64("processors", u64::from(self.case.configuration.total_ces()))
            .u64("fault_level", u64::from(self.case.fault_level))
            .u64("shrink", u64::from(self.case.shrink))
            .str("shuffle_seed", &format!("{:#x}", self.case.shuffle_seed));
        let mut o = Obj::new();
        o.str("oracle", self.oracle.name())
            .str("detail", &self.detail)
            .str("replay", &self.case.replay_token())
            .raw("case", case.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_hw::Configuration;
    use cedar_obs::json;

    fn violation() -> Violation {
        Violation {
            oracle: OracleKind::FaultAttribution,
            case: CheckCase {
                app: "MDG",
                configuration: Configuration::P32,
                fault_level: 2,
                shrink: 16,
                shuffle_seed: 0x5EED,
            },
            detail: "Cpi delta 10 < injected 20".to_string(),
        }
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<_> = OracleKind::ALL.iter().map(|o| o.name()).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), OracleKind::ALL.len());
        for o in OracleKind::ALL {
            assert!(o.pass_counter().ends_with(".pass"));
            assert!(o.violation_counter().ends_with(".violation"));
            assert!(o.pass_counter().contains(o.name()));
        }
    }

    #[test]
    fn violation_serializes_with_replay_token() {
        let v = violation();
        let parsed = json::parse(&v.to_json()).unwrap();
        assert_eq!(
            parsed.get("oracle").and_then(|x| x.as_str()),
            Some("fault_attribution")
        );
        assert_eq!(
            parsed.get("replay").and_then(|x| x.as_str()),
            Some("app=MDG;procs=32;faults=2;shrink=16;seed=0x5eed")
        );
        assert_eq!(
            parsed
                .get("case")
                .and_then(|c| c.get("processors"))
                .and_then(|x| x.as_u64()),
            Some(32)
        );
        // The replay token round-trips back to the violating case.
        let replay = parsed.get("replay").unwrap().as_str().unwrap();
        assert_eq!(CheckCase::parse(replay).unwrap(), v.case);
    }
}
