//! One checkable campaign case, the seeded corpus, and the replay
//! token format.
//!
//! A [`CheckCase`] is the tuple the shrinker minimizes: application,
//! machine configuration, fault-plan intensity, workload scale, and
//! the perturbation seed driving the shuffle tie-break. The whole
//! tuple round-trips through a one-line `key=value;…` token so a
//! violation report can say exactly how to re-run itself
//! (`CEDAR_CHECK_REPLAY='app=FLO52;procs=32;faults=2;shrink=16;seed=0x5eed'`).

use cedar_apps::AppSpec;
use cedar_core::SimConfig;
use cedar_faults::FaultPlan;
use cedar_hw::Configuration;
use cedar_sim::{SplitMix64, TieBreak};

/// One `(application, configuration, fault level, scale, seed)` case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckCase {
    /// Application name, resolved via [`cedar_apps::app_by_name`].
    pub app: &'static str,
    /// Machine size.
    pub configuration: Configuration,
    /// Fault-plan intensity ([`FaultPlan::canonical_at`]; 0 = none).
    pub fault_level: u32,
    /// Workload shrink divisor ([`AppSpec::shrunk`]; larger = smaller).
    pub shrink: u32,
    /// Seed of the [`TieBreak::Shuffle`] perturbation this case
    /// explores alongside FIFO and LIFO.
    pub shuffle_seed: u64,
}

impl CheckCase {
    /// The case's workload at its scale. Panics on an unknown
    /// application name — corpus and token parsing only produce known
    /// names.
    pub fn workload(&self) -> AppSpec {
        cedar_apps::app_by_name(self.app)
            .unwrap_or_else(|| panic!("unknown application `{}`", self.app))
            .shrunk(self.shrink)
    }

    /// The case's fault plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::canonical_at(self.fault_level)
    }

    /// The machine this case runs on, under a given tie-break policy —
    /// the event-order axis the harness permutes.
    pub fn config(&self, tiebreak: TieBreak) -> SimConfig {
        SimConfig::cedar(self.configuration)
            .with_tiebreak(tiebreak)
            .with_faults(self.plan())
    }

    /// Short human-readable identity for logs and assertion messages.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/f{}/s{}/seed{:#x}",
            self.app,
            self.configuration.label(),
            self.fault_level,
            self.shrink,
            self.shuffle_seed
        )
    }

    /// The replay token: the whole tuple as `key=value;…`, parseable
    /// by [`CheckCase::parse`] and accepted by `CEDAR_CHECK_REPLAY`.
    pub fn replay_token(&self) -> String {
        format!(
            "app={};procs={};faults={};shrink={};seed={:#x}",
            self.app,
            self.configuration.total_ces(),
            self.fault_level,
            self.shrink,
            self.shuffle_seed
        )
    }

    /// Parses a replay token back into a case. Strict: unknown keys,
    /// unknown applications, non-Cedar processor counts, and malformed
    /// numbers are all errors, so a mistyped replay never silently
    /// checks the wrong experiment.
    pub fn parse(token: &str) -> Result<CheckCase, String> {
        let mut app = None;
        let mut configuration = None;
        let mut fault_level = 0u32;
        let mut shrink = 1u32;
        let mut shuffle_seed = 0u64;
        for part in token.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("replay token part `{part}` is not key=value"))?;
            match key {
                "app" => {
                    let spec = cedar_apps::app_by_name(value)
                        .ok_or_else(|| format!("unknown application `{value}`"))?;
                    app = Some(spec.name);
                }
                "procs" => {
                    let n: u64 = value
                        .parse()
                        .map_err(|_| format!("bad processor count `{value}`"))?;
                    configuration = Some(
                        Configuration::ALL
                            .into_iter()
                            .find(|c| u64::from(c.total_ces()) == n)
                            .ok_or_else(|| format!("`procs` must name a Cedar size, got {n}"))?,
                    );
                }
                "faults" => {
                    fault_level = value
                        .parse()
                        .map_err(|_| format!("bad fault level `{value}`"))?;
                }
                "shrink" => {
                    shrink = value.parse().map_err(|_| format!("bad shrink `{value}`"))?;
                    if shrink == 0 {
                        return Err("shrink must be ≥ 1".to_string());
                    }
                }
                "seed" => {
                    shuffle_seed = match value.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => value.parse(),
                    }
                    .map_err(|_| format!("bad seed `{value}`"))?;
                }
                other => return Err(format!("unknown replay key `{other}`")),
            }
        }
        Ok(CheckCase {
            app: app.ok_or("replay token needs app=…")?,
            configuration: configuration.ok_or("replay token needs procs=…")?,
            fault_level,
            shrink,
            shuffle_seed,
        })
    }
}

/// The configurations the corpus sweeps: the paper's single-cluster
/// baseline, one mid-size parallel machine, and the full machine.
pub(crate) const CORPUS_CONFIGS: [Configuration; 3] =
    [Configuration::P1, Configuration::P8, Configuration::P32];

/// The fault intensities the corpus sweeps: unperturbed and the
/// mid-ladder canonical mix.
pub(crate) const CORPUS_FAULT_LEVELS: [u32; 2] = [0, 2];

/// The seeded corpus: all five Perfect applications ×
/// {1, 8, 32} processors × fault levels {0, 2}, each with its own
/// shuffle seed drawn from a fixed `SplitMix64` stream (so the
/// explored permutations differ per case but are identical across
/// invocations).
pub fn corpus(shrink: u32) -> Vec<CheckCase> {
    let mut seeds = SplitMix64::new(CORPUS_SEED_SALT);
    let mut cases = Vec::new();
    for app in cedar_apps::perfect_suite() {
        for configuration in CORPUS_CONFIGS {
            for fault_level in CORPUS_FAULT_LEVELS {
                cases.push(CheckCase {
                    app: app.name,
                    configuration,
                    fault_level,
                    shrink,
                    shuffle_seed: seeds.next_u64(),
                });
            }
        }
    }
    cases
}

/// Salt for the corpus seed stream (spelled out so the corpus is
/// reproducible from the source alone).
const CORPUS_SEED_SALT: u64 = 0xC0ED_CAEC_5A17;

/// The CI smoke corpus: a four-case diagonal through the full grid —
/// each application family, machine size, and fault level appears at
/// least once — small enough for every CI run.
pub fn smoke_corpus(shrink: u32) -> Vec<CheckCase> {
    let full = corpus(shrink);
    let pick = |app: &str, c: Configuration, f: u32| {
        full.iter()
            .copied()
            .find(|k| k.app == app && k.configuration == c && k.fault_level == f)
            .expect("smoke case exists in the full corpus")
    };
    vec![
        pick("FLO52", Configuration::P1, 0),
        pick("MDG", Configuration::P8, 2),
        pick("OCEAN", Configuration::P32, 0),
        pick("ADM", Configuration::P8, 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_the_grid() {
        let c = corpus(16);
        assert_eq!(c.len(), 5 * 3 * 2);
        assert!(c.iter().all(|k| k.shrink == 16));
        // Seeds are per-case and reproducible.
        let again = corpus(16);
        assert_eq!(c, again);
        let seeds: std::collections::HashSet<u64> = c.iter().map(|k| k.shuffle_seed).collect();
        assert_eq!(seeds.len(), c.len(), "every case gets its own seed");
    }

    #[test]
    fn smoke_is_a_small_subset() {
        let smoke = smoke_corpus(64);
        assert_eq!(smoke.len(), 4);
        let full = corpus(64);
        assert!(smoke.iter().all(|k| full.contains(k)));
    }

    #[test]
    fn replay_token_round_trips() {
        for case in corpus(16) {
            let token = case.replay_token();
            assert_eq!(CheckCase::parse(&token).unwrap(), case, "{token}");
        }
        // Decimal seeds, missing optional keys, case-insensitive apps.
        let c = CheckCase::parse("app=flo52;procs=8;seed=42").unwrap();
        assert_eq!(c.app, "FLO52");
        assert_eq!(c.configuration, Configuration::P8);
        assert_eq!((c.fault_level, c.shrink, c.shuffle_seed), (0, 1, 42));
    }

    #[test]
    fn bad_tokens_are_rejected() {
        for (token, needle) in [
            ("procs=8", "needs app"),
            ("app=FLO52", "needs procs"),
            ("app=NOPE;procs=8", "unknown application"),
            ("app=FLO52;procs=7", "Cedar size"),
            ("app=FLO52;procs=8;shrink=0", "≥ 1"),
            ("app=FLO52;procs=8;turbo=1", "unknown replay key"),
            ("app=FLO52;procs=8;seed=zz", "bad seed"),
            ("garbage", "not key=value"),
        ] {
            let err = CheckCase::parse(token).unwrap_err();
            assert!(err.contains(needle), "{token}: {err}");
        }
    }

    #[test]
    fn case_lowers_to_the_typed_surface() {
        let case = CheckCase {
            app: "FLO52",
            configuration: Configuration::P8,
            fault_level: 2,
            shrink: 64,
            shuffle_seed: 7,
        };
        assert_eq!(case.workload().name, "FLO52");
        assert!(!case.plan().is_empty());
        let cfg = case.config(TieBreak::Lifo);
        assert_eq!(cfg.configuration(), Configuration::P8);
        assert_eq!(cfg.tiebreak, TieBreak::Lifo);
        assert!(case.label().contains("FLO52"));
    }
}
