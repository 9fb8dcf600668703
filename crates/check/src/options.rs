//! The checker's environment surface.
//!
//! Exactly one knob, read in exactly one place (the same discipline as
//! [`cedar_obs::RunOptions`]): `CEDAR_CHECK_REPLAY` holds a replay
//! token from a violation report (`app=…;procs=…;faults=…;shrink=…;
//! seed=…`), and when set, the `check` binary runs that single case
//! through the full typed path instead of the corpus. Everything else
//! (shrink, smoke) rides on `RunOptions::from_env`.

use crate::case::{corpus, smoke_corpus, CheckCase};
use cedar_obs::RunOptions;

/// Parsed checker options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckOptions {
    /// A single case to replay instead of the corpus, from
    /// `CEDAR_CHECK_REPLAY`.
    pub replay: Option<CheckCase>,
}

impl CheckOptions {
    /// Parses an explicit replay-token value (the testable core of
    /// [`CheckOptions::from_env`]). Empty and unset mean "no replay".
    pub fn parse(replay: Option<&str>) -> Result<CheckOptions, String> {
        match replay {
            None | Some("") => Ok(CheckOptions { replay: None }),
            Some(token) => Ok(CheckOptions {
                replay: Some(
                    CheckCase::parse(token)
                        .map_err(|e| format!("CEDAR_CHECK_REPLAY `{token}`: {e}"))?,
                ),
            }),
        }
    }

    /// Reads `CEDAR_CHECK_REPLAY` from the process environment. The
    /// only `std::env` read in the crate.
    pub fn from_env() -> Result<CheckOptions, String> {
        CheckOptions::parse(std::env::var("CEDAR_CHECK_REPLAY").ok().as_deref())
    }

    /// The cases a `check` run covers: the replayed case alone, else the
    /// smoke corpus when `run.smoke` is set and the full corpus when it
    /// is not, at `run.shrink` when that is above 1 and otherwise at
    /// 1/64 (smoke) or 1/16 (full).
    pub fn cases(&self, run: &RunOptions) -> Vec<CheckCase> {
        if let Some(case) = self.replay {
            return vec![case];
        }
        let scale = match (run.shrink, run.smoke) {
            (shrink, _) if shrink > 1 => shrink,
            (_, true) => 64,
            (_, false) => 16,
        };
        if run.smoke {
            smoke_corpus(scale)
        } else {
            corpus(scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::cases_fingerprint_seed;
    use cedar_hw::Configuration;

    #[test]
    fn unset_and_empty_mean_no_replay() {
        assert_eq!(CheckOptions::parse(None).unwrap().replay, None);
        assert_eq!(CheckOptions::parse(Some("")).unwrap().replay, None);
    }

    #[test]
    fn replay_token_parses_to_a_case() {
        let o =
            CheckOptions::parse(Some("app=MDG;procs=32;faults=2;shrink=16;seed=0x5eed")).unwrap();
        let case = o.replay.expect("replay case");
        assert_eq!(case.app, "MDG");
        assert_eq!(case.configuration, Configuration::P32);
        assert_eq!(case.fault_level, 2);
        assert_eq!(case.shuffle_seed, 0x5EED);
    }

    /// A smoke check and a full one run different cases, so their
    /// manifests get different fingerprints, at the default scale and
    /// at a set one; the scale a run falls back to fingerprints like the
    /// same scale set explicitly, and a replay fingerprints its one case.
    #[test]
    fn smoke_and_full_check_runs_fingerprint_differently() {
        let corpus_seed =
            |run: &RunOptions| cases_fingerprint_seed(&CheckOptions::default().cases(run));
        let smoke = |run: RunOptions| RunOptions { smoke: true, ..run };
        for shrink in [1, 16, 64] {
            let full = RunOptions::default().with_shrink(shrink);
            assert_ne!(
                corpus_seed(&full),
                corpus_seed(&smoke(full.clone())),
                "shrink {shrink}"
            );
        }
        let default = RunOptions::default();
        assert_eq!(
            corpus_seed(&default),
            corpus_seed(&default.clone().with_shrink(16))
        );
        assert_eq!(
            corpus_seed(&smoke(default.clone())),
            corpus_seed(&smoke(default.clone().with_shrink(64)).with_workers(3))
        );
        let token = "app=MDG;procs=32;faults=2;shrink=16;seed=0x5eed";
        let replay = CheckOptions::parse(Some(token)).unwrap();
        for run in [default.clone(), smoke(default)] {
            assert_eq!(cases_fingerprint_seed(&replay.cases(&run)), token);
        }
    }

    #[test]
    fn bad_tokens_fail_with_the_knob_name() {
        let err = CheckOptions::parse(Some("app=NOPE;procs=8")).unwrap_err();
        assert!(err.contains("CEDAR_CHECK_REPLAY"), "{err}");
        assert!(err.contains("unknown application"), "{err}");
    }
}
