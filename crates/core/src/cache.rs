//! The campaign-side face of the run cache: keying and the
//! per-campaign [`CacheSession`], which stores [`RunResult::encode`]
//! payloads and decodes hits with [`RunResult::decode`].
//!
//! Correctness rests on the workspace's determinism theorem — an
//! identical `(application, SimConfig)` pair produces a byte-identical
//! [`RunResult`] (`tests/config_fuzz.rs` proves this continuously) — so
//! replaying a stored result is indistinguishable from re-simulating,
//! measurement for measurement. The key is the canonical `Debug` text of
//! both values: every value a run varies (processor configuration, seed,
//! tie-break, background load, fault plan, and the full workload spec
//! down to each phase) appears in that text, so any change re-keys the
//! experiment. Behavior changes that do *not* alter the text — among
//! them any change to the hardware, OS or runtime-library cost
//! constants — must bump `cedar_cache::MODEL_VERSION` instead.

use std::path::PathBuf;

use cedar_apps::AppSpec;
use cedar_cache::{CacheStats, RunCache, RunKey};
use cedar_obs::{CacheMode, CedarError, RunOptions};

use crate::config::SimConfig;
use crate::result::RunResult;
use crate::run::execute;

/// The content address of one `(application, configuration)` experiment:
/// the key of the text `app={app:?};cfg={cfg:?}`, hashed as it is
/// formatted rather than built first.
pub fn run_key(app: &AppSpec, cfg: &SimConfig) -> RunKey {
    RunKey::from_args(format_args!("app={app:?};cfg={cfg:?}"))
}

/// Where the cache lives when the caller did not redirect output:
/// `results/cache/` at the workspace root, next to the manifests.
fn default_cache_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/cache")
}

/// How one experiment moved through cache policy — the per-call
/// counterpart of the session-cumulative [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// No cache configured: plain execution.
    Off,
    /// Trace-keeping run: cache policy skipped.
    Bypass,
    /// Never constructed (the store has one tier); kept because the
    /// benchmark matches on it.
    HotHit,
    /// Served from the disk store.
    DiskHit,
    /// Simulated; `wrote` says whether the result was stored.
    Simulated { wrote: bool },
}

/// One campaign's cache handle: policy (from
/// [`RunOptions::cache`]) plus the open store. Shareable by reference
/// across the worker pool — all methods take `&self` and the store's
/// counters are atomic.
#[derive(Debug)]
pub struct CacheSession {
    cache: Option<RunCache>,
}

impl CacheSession {
    /// Builds the session for `opts`. `CacheMode::Off` opens nothing
    /// and makes [`execute`](Self::execute) a plain passthrough; other
    /// modes open the store under `opts.output_dir`'s `cache/`
    /// subdirectory (or the workspace `results/cache/`), surfacing an
    /// unusable cache root as [`CedarError::CacheIo`].
    pub fn new(opts: &RunOptions) -> Result<CacheSession, CedarError> {
        let cache = match opts.cache {
            CacheMode::Off => None,
            mode => {
                let root = opts
                    .output_dir
                    .as_ref()
                    .map(|d| d.join("cache"))
                    .unwrap_or_else(default_cache_root);
                Some(RunCache::open(root, mode)?)
            }
        };
        Ok(CacheSession { cache })
    }

    /// Runs one experiment through cache policy: serve a valid stored
    /// entry, otherwise simulate and (in writing modes) store the
    /// result. Trace-keeping runs bypass the cache entirely — the trace
    /// is a debugging artifact that is never serialized, and silently
    /// returning a traceless hit would break the caller.
    pub fn execute(&self, app: &AppSpec, cfg: SimConfig) -> RunResult {
        self.execute_traced(app, cfg).0
    }

    /// [`execute`](Self::execute), also reporting how the experiment
    /// moved through cache policy.
    pub fn execute_traced(&self, app: &AppSpec, cfg: SimConfig) -> (RunResult, ExecOutcome) {
        let Some(cache) = &self.cache else {
            return (execute(app, cfg), ExecOutcome::Off);
        };
        if cfg.keep_trace {
            cache.note_bypass();
            return (execute(app, cfg), ExecOutcome::Bypass);
        }
        let key = run_key(app, &cfg);
        if let Some(hit) = cache.get(&key, |payload| RunResult::decode(payload).ok()) {
            return (hit, ExecOutcome::DiskHit);
        }
        let result = execute(app, cfg);
        let wrote = cache.mode().writes();
        if wrote {
            cache.put(&key, &result.encode());
        }
        (result, ExecOutcome::Simulated { wrote })
    }

    /// The session's cumulative traffic counters, `None` when the
    /// cache is off.
    pub fn stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;
    use cedar_hw::Configuration;

    #[test]
    fn keys_cover_app_and_config() {
        let app = synthetic::uniform_xdoall(1, 2, 4, 100, 8);
        let cfg = SimConfig::cedar(Configuration::P4);
        let k = run_key(&app, &cfg);
        assert_eq!(k, run_key(&app, &cfg), "keying is stable");
        assert_ne!(
            k,
            run_key(&app, &SimConfig::cedar(Configuration::P8)),
            "configuration changes the key"
        );
        assert_ne!(
            k,
            run_key(&app, &cfg.clone().with_seed(99)),
            "seed changes the key"
        );
        let other = synthetic::uniform_xdoall(1, 2, 4, 101, 8);
        assert_ne!(k, run_key(&other, &cfg), "workload changes the key");
    }

    /// The streamed key equals the key of the built text, the two-step
    /// construction it replaced, on every cell of the paper grid.
    #[test]
    fn run_key_matches_the_key_of_the_built_text_on_the_grid() {
        for app in cedar_apps::perfect_suite() {
            for configuration in Configuration::ALL {
                let cfg = SimConfig::cedar(configuration);
                assert_eq!(
                    run_key(&app, &cfg),
                    RunKey::new(&format!("app={app:?};cfg={cfg:?}")),
                    "{} {configuration:?}",
                    app.name
                );
            }
        }
    }

    #[test]
    fn cached_round_trip_preserves_the_result() {
        let app = synthetic::uniform_xdoall(1, 2, 8, 150, 8);
        let cfg = SimConfig::cedar(Configuration::P4);
        let direct = execute(&app, cfg.clone());
        let replayed = RunResult::decode(&direct.encode()).expect("decode");
        assert_eq!(direct.app, replayed.app);
        assert_eq!(direct.completion_time, replayed.completion_time);
        assert_eq!(direct.events, replayed.events);
        assert_eq!(
            direct.encode(),
            replayed.encode(),
            "full measurement payload survives"
        );
    }

    #[test]
    fn unusable_cache_root_is_a_typed_error() {
        let file = std::env::temp_dir().join(format!("cedar-cache-root-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = RunCache::open(&file, CacheMode::ReadWrite).unwrap_err();
        assert!(matches!(err, CedarError::CacheIo(_)), "{err:?}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn off_session_is_a_passthrough() {
        let session = CacheSession::new(&RunOptions::default()).unwrap();
        assert!(session.stats().is_none());
        let app = synthetic::uniform_xdoall(1, 1, 4, 100, 8);
        let r = session.execute(&app, SimConfig::cedar(Configuration::P1));
        assert!(r.completion_time.0 > 0);
    }

    #[test]
    fn execute_traced_reports_the_path_each_run_took() {
        let dir = std::env::temp_dir().join(format!("cedar-exec-outcome-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = |mode| {
            let opts = RunOptions::default()
                .with_output_dir(dir.clone())
                .with_cache(mode);
            CacheSession::new(&opts).unwrap()
        };
        let app = synthetic::uniform_xdoall(1, 1, 4, 100, 8);
        let cfg = SimConfig::cedar(Configuration::P1);
        let outcome = |s: &CacheSession, cfg: &SimConfig| s.execute_traced(&app, cfg.clone()).1;

        assert_eq!(outcome(&session(CacheMode::Off), &cfg), ExecOutcome::Off);
        assert_eq!(
            outcome(&session(CacheMode::ReadOnly), &cfg),
            ExecOutcome::Simulated { wrote: false },
            "a read-only miss simulates without storing"
        );
        let rw = session(CacheMode::ReadWrite);
        assert_eq!(outcome(&rw, &cfg), ExecOutcome::Simulated { wrote: true });
        assert_eq!(outcome(&rw, &cfg), ExecOutcome::DiskHit);
        assert_eq!(
            outcome(&rw, &cfg.clone().with_trace()),
            ExecOutcome::Bypass,
            "trace-keeping runs skip the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
