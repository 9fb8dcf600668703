//! The checker's environment surface.
//!
//! Exactly one knob, read in exactly one place (the same discipline as
//! [`cedar_obs::RunOptions`]): `CEDAR_CHECK_REPLAY` holds a replay
//! token from a violation report (`app=…;procs=…;faults=…;shrink=…;
//! seed=…`), and when set, the `check` binary runs that single case
//! through the full typed path instead of the corpus. Everything else
//! (shrink, smoke) rides on `RunOptions::from_env`.

use crate::case::CheckCase;

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
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn bad_tokens_fail_with_the_knob_name() {
        let err = CheckOptions::parse(Some("app=NOPE;procs=8")).unwrap_err();
        assert!(err.contains("CEDAR_CHECK_REPLAY"), "{err}");
        assert!(err.contains("unknown application"), "{err}");
    }
}
