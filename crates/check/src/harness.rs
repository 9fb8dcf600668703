//! The check harness: runs one case across every execution path the
//! workspace offers and evaluates the oracle registry.
//!
//! Per case the harness executes the experiment under three tie-break
//! policies (FIFO, LIFO, the case's seeded shuffle), once more under
//! FIFO as the determinism rerun, once through each campaign runner
//! (sequential and pooled), twice through a throwaway run cache (cold
//! then warm), and — for faulted cases — once unperturbed as the
//! attribution reference and once per armed fault class. Seven
//! simulations per clean case; every one is deterministic, so a
//! violation found here reproduces from the case's replay token alone.

use std::sync::atomic::{AtomicU64, Ordering};

use cedar_core::suite::SuiteResult;
use cedar_core::{CacheSession, Experiment, RunResult};
use cedar_faults::FaultPlan;
use cedar_obs::{Counters, RunOptions};
use cedar_sim::TieBreak;
use cedar_xylem::OsActivity;

use crate::case::CheckCase;
use crate::fingerprint::{fingerprint, fingerprint_text, stable_core};
use crate::oracle::{OracleKind, Violation};

/// OS-time buckets as the attribution oracle's untargeted checks see
/// them. The sequential/concurrent page-fault split and the
/// cluster/global critical-section split are timing-dependent
/// classifications: injected load legitimately shifts organic
/// occurrences across each split while preserving the pair's sum, so
/// untargeted budgets are asserted on group totals.
const BUCKET_GROUPS: [&[OsActivity]; 8] = [
    &[OsActivity::Cpi],
    &[OsActivity::Ctx],
    &[OsActivity::PgFltConcurrent, OsActivity::PgFltSequential],
    &[OsActivity::CrSectCluster, OsActivity::CrSectGlobal],
    &[OsActivity::SyscallCluster],
    &[OsActivity::SyscallGlobal],
    &[OsActivity::Ast],
    &[OsActivity::KernelSpin],
];

/// How far an *untargeted* bucket group may grow under injection:
/// organic content scaled by twice the completion-time stretch (taken
/// absolute — probes can shorten a run by re-phasing its critical
/// sections, which re-times organic occurrences just as much as a
/// lengthening does) plus 5%, a tenth of the injected cycles, and a
/// 200-cycle floor. Matches the contract in `tests/invariants.rs`.
///
/// On top of that, every group gets a *quantization* allowance of half
/// its organic content: OS occurrences come in whole service events
/// whose count is timing-coupled — a racing CE faults or finds the
/// page already mapped depending on whether it lands inside the page's
/// in-flight window, a stretched run crosses one more periodic-daemon
/// boundary (one more whole Ctx/CPI charge). Measured jitter across
/// the corpus stays within ±2 quanta, always under half the organic
/// content, while real attribution leaks (the planted sabotage is a
/// 1000× factor) land orders of magnitude past this budget.
fn untargeted_budget(organic: u64, stretch: f64, injected: u64) -> u64 {
    (organic as f64 * (stretch.abs() * 2.0 + 0.05)) as u64 + organic / 2 + injected / 10 + 200
}

/// A deliberately planted oracle-breaking defect, for validating that
/// the checker actually catches bugs (`tests/check_selftest.rs`). The
/// sabotage lives in the harness configuration — never in product code
/// — and models its bug by perturbing the oracle's expectation, which
/// is observationally identical to the corresponding instrumentation
/// bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Models a fault-injection accounting bug in which the recorder
    /// undercounts delivered cycles by `factor` on machines with at
    /// least `min_procs` processors: the attribution oracle then
    /// expects `factor ×` the injected cost to reach the target
    /// bucket, which real runs cannot satisfy.
    InflateAttribution {
        /// Expectation multiplier (≥ 2 breaks every faulted case).
        factor: u64,
        /// Only machines at least this large are "affected".
        min_procs: u32,
    },
}

/// Harness knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckConfig {
    /// Tie-stability completion-time band, as a fraction of the FIFO
    /// completion time. Simultaneous-event order is physically
    /// meaningful on parallel machines (port FCFS arbitration, lock
    /// grant order); measured drift across policies is within ±5% at
    /// 32 processors, so the default band is double that.
    pub ct_tolerance: f64,
    /// Evaluation budget for the delta-debugging shrinker.
    pub max_shrink_evals: u32,
    /// Planted defect for checker self-validation.
    pub sabotage: Option<Sabotage>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            ct_tolerance: 0.10,
            max_shrink_evals: 64,
            sabotage: None,
        }
    }
}

/// The oracle-evaluating harness. Counters accumulate across cases and
/// surface in `CHECK_violations.json` and the run manifest.
pub struct Harness {
    /// Knobs (tolerance band, shrinker budget, planted sabotage).
    pub config: CheckConfig,
    /// `check.*` rollup: cases, simulations, per-oracle pass/violation.
    pub counters: Counters,
}

/// Cache directories the process's harnesses have made. One count for
/// the whole process, so harnesses on parallel test threads never
/// share, and delete, each other's directory.
static CACHE_DIRS: AtomicU64 = AtomicU64::new(0);

impl Harness {
    /// A harness with the given knobs.
    pub fn new(config: CheckConfig) -> Harness {
        Harness {
            config,
            counters: Counters::default(),
        }
    }

    /// One simulation of `case` under a tie-break policy and fault plan.
    fn run(&mut self, case: &CheckCase, tiebreak: TieBreak, plan: FaultPlan) -> RunResult {
        self.counters.add("check.runs", 1);
        let cfg = case.config(tiebreak).with_faults(plan);
        let result = Experiment::new(case.workload(), cfg).run();
        // Fold the run's own telemetry into the rollup so the check
        // manifest records what was simulated alongside what was
        // checked.
        self.counters.merge(&result.stats.counters);
        result
    }

    /// Evaluates every applicable oracle against `case`, returning all
    /// violations (empty = the case upholds every law).
    pub fn check_case(&mut self, case: &CheckCase) -> Vec<Violation> {
        self.counters.add("check.cases", 1);
        let plan = case.plan();
        let shuffle = TieBreak::Shuffle(case.shuffle_seed);

        let base = self.run(case, TieBreak::Fifo, plan);
        let dup = self.run(case, TieBreak::Fifo, plan);
        let lifo = self.run(case, TieBreak::Lifo, plan);
        let shuf = self.run(case, shuffle, plan);

        let mut all = Vec::new();
        for oracle in OracleKind::ALL {
            let found = match oracle {
                OracleKind::Conservation => self.conservation(case, &base, oracle),
                OracleKind::Determinism => self.determinism(case, &base, &dup),
                OracleKind::TieStability => self.tie_stability(case, &base, &lifo, &shuf),
                OracleKind::WorkerParity => self.worker_parity(case, &base),
                OracleKind::CacheParity => self.cache_parity(case, &base),
                OracleKind::FaultAttribution => self.fault_attribution(case, &base),
            };
            if found.is_empty() {
                self.counters.add(oracle.pass_counter(), 1);
                self.counters.add("check.oracles.pass", 1);
            } else {
                self.counters
                    .add(oracle.violation_counter(), found.len() as u64);
                self.counters
                    .add("check.oracles.violation", found.len() as u64);
            }
            all.extend(found);
        }
        all
    }

    /// Evaluates exactly one oracle against `case`, executing only the
    /// simulations that oracle needs — the shrinker's predicate (a
    /// delta-debugging candidate only ever re-tests the law it broke).
    /// Does not bump the per-oracle pass/violation counters; those
    /// count corpus verdicts, not shrink probes.
    pub fn check_oracle(&mut self, case: &CheckCase, oracle: OracleKind) -> Vec<Violation> {
        let plan = case.plan();
        let shuffle = TieBreak::Shuffle(case.shuffle_seed);
        let base = self.run(case, TieBreak::Fifo, plan);
        match oracle {
            OracleKind::Conservation => self.conservation(case, &base, oracle),
            OracleKind::Determinism => {
                let dup = self.run(case, TieBreak::Fifo, plan);
                self.determinism(case, &base, &dup)
            }
            OracleKind::TieStability => {
                let lifo = self.run(case, TieBreak::Lifo, plan);
                let shuf = self.run(case, shuffle, plan);
                self.tie_stability(case, &base, &lifo, &shuf)
            }
            OracleKind::WorkerParity => self.worker_parity(case, &base),
            OracleKind::CacheParity => self.cache_parity(case, &base),
            OracleKind::FaultAttribution => self.fault_attribution(case, &base),
        }
    }

    /// [`conservation`](crate::conservation) on one run, each broken
    /// clause reported under `kind` (the same law backs both the
    /// base-run oracle and the perturbed-run legs of tie stability).
    fn conservation(&self, case: &CheckCase, run: &RunResult, kind: OracleKind) -> Vec<Violation> {
        crate::law::conservation(run, case.workload().total_bodies())
            .into_iter()
            .map(|detail| Violation {
                oracle: kind,
                case: *case,
                detail,
            })
            .collect()
    }

    fn determinism(&self, case: &CheckCase, base: &RunResult, dup: &RunResult) -> Vec<Violation> {
        if fingerprint_text(base) == fingerprint_text(dup) {
            return Vec::new();
        }
        vec![Violation {
            oracle: OracleKind::Determinism,
            case: *case,
            detail: format!(
                "identical reruns fingerprint {:016x} vs {:016x}",
                fingerprint(base),
                fingerprint(dup)
            ),
        }]
    }

    fn tie_stability(
        &self,
        case: &CheckCase,
        base: &RunResult,
        lifo: &RunResult,
        shuf: &RunResult,
    ) -> Vec<Violation> {
        let mut v = Vec::new();
        let shuffle_label = format!("shuffle:{:#x}", case.shuffle_seed);
        for (policy, run) in [("lifo", lifo), (shuffle_label.as_str(), shuf)] {
            if stable_core(run) != stable_core(base) {
                v.push(Violation {
                    oracle: OracleKind::TieStability,
                    case: *case,
                    detail: format!(
                        "{policy}: stable core changed: `{}` vs `{}`",
                        stable_core(run),
                        stable_core(base)
                    ),
                });
            }
            v.extend(
                self.conservation(case, run, OracleKind::TieStability)
                    .into_iter()
                    .map(|mut c| {
                        c.detail = format!("{policy}: {}", c.detail);
                        c
                    }),
            );
            // Fault occurrence times couple to event pop order, so an
            // armed plan roughly doubles how far reordering can move
            // the completion time (measured: +11.2% at 32p/level 2
            // against a clean-run worst case near 5%).
            let tolerance = if case.fault_level > 0 {
                self.config.ct_tolerance * 2.0
            } else {
                self.config.ct_tolerance
            };
            let (ct, base_ct) = (run.completion_time.0 as f64, base.completion_time.0 as f64);
            if (ct - base_ct).abs() > tolerance * base_ct {
                v.push(Violation {
                    oracle: OracleKind::TieStability,
                    case: *case,
                    detail: format!(
                        "{policy}: completion time {ct} outside ±{:.0}% of FIFO {base_ct}",
                        tolerance * 100.0
                    ),
                });
            }
            // One cluster: simultaneous events have no physically
            // meaningful order, so any reordering is byte-invisible —
            // unless faults are armed, in which case the reordered pop
            // sequence changes which events the plan's occurrences
            // perturb even on a single cluster.
            if case.fault_level == 0
                && case.configuration.total_ces() == 1
                && fingerprint_text(run) != fingerprint_text(base)
            {
                v.push(Violation {
                    oracle: OracleKind::TieStability,
                    case: *case,
                    detail: format!("{policy}: single-cluster run not byte-identical to FIFO"),
                });
            }
        }
        v
    }

    fn worker_parity(&mut self, case: &CheckCase, base: &RunResult) -> Vec<Violation> {
        let opts = RunOptions::default().with_workers(2);
        let apps = [case.workload()];
        let configs = [case.config(TieBreak::Fifo)];
        self.counters.add("check.runs", 2);
        let seq = match SuiteResult::run_sequential(&apps, &configs, &opts) {
            Ok(s) => s,
            Err(e) => {
                return vec![Violation {
                    oracle: OracleKind::WorkerParity,
                    case: *case,
                    detail: format!("sequential runner failed: {e}"),
                }]
            }
        };
        let par = match SuiteResult::run_parallel(&apps, &configs, &opts) {
            Ok(s) => s,
            Err(e) => {
                return vec![Violation {
                    oracle: OracleKind::WorkerParity,
                    case: *case,
                    detail: format!("parallel runner failed: {e}"),
                }]
            }
        };
        let (s, p) = (&seq.apps[0].runs[0], &par.apps[0].runs[0]);
        let mut v = Vec::new();
        if fingerprint_text(s) != fingerprint_text(p) {
            v.push(Violation {
                oracle: OracleKind::WorkerParity,
                case: *case,
                detail: format!(
                    "sequential {:016x} vs pooled {:016x}",
                    fingerprint(s),
                    fingerprint(p)
                ),
            });
        }
        // Both runners must also agree with the direct library path.
        if fingerprint_text(s) != fingerprint_text(base) {
            v.push(Violation {
                oracle: OracleKind::WorkerParity,
                case: *case,
                detail: format!(
                    "suite runner {:016x} vs direct experiment {:016x}",
                    fingerprint(s),
                    fingerprint(base)
                ),
            });
        }
        v
    }

    fn cache_parity(&mut self, case: &CheckCase, base: &RunResult) -> Vec<Violation> {
        let dir = std::env::temp_dir().join(format!(
            "cedar-check-{}-{}",
            std::process::id(),
            CACHE_DIRS.fetch_add(1, Ordering::Relaxed) + 1
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions::default()
            .with_cache(cedar_obs::CacheMode::ReadWrite)
            .with_output_dir(&dir);
        let verdict = (|| {
            let session = CacheSession::new(&opts)
                .map_err(|e| format!("cache session failed to open: {e}"))?;
            let cfg = case.config(TieBreak::Fifo);
            self.counters.add("check.runs", 1);
            let cold = session.execute(&case.workload(), cfg.clone());
            let warm = session.execute(&case.workload(), cfg);
            let stats = session.stats().ok_or("cache session reports no stats")?;
            if stats.hits != 1 || stats.misses != 1 {
                return Err(format!(
                    "expected 1 miss + 1 hit, saw {} misses / {} hits",
                    stats.misses, stats.hits
                ));
            }
            if fingerprint_text(&cold) != fingerprint_text(&warm) {
                return Err(format!(
                    "warm replay {:016x} differs from cold run {:016x}",
                    fingerprint(&warm),
                    fingerprint(&cold)
                ));
            }
            if fingerprint_text(&cold) != fingerprint_text(base) {
                return Err(format!(
                    "cached path {:016x} differs from direct path {:016x}",
                    fingerprint(&cold),
                    fingerprint(base)
                ));
            }
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&dir);
        match verdict {
            Ok(()) => Vec::new(),
            Err(detail) => vec![Violation {
                oracle: OracleKind::CacheParity,
                case: *case,
                detail,
            }],
        }
    }

    /// The expectation multiplier sabotage applies to this case.
    fn attribution_factor(&self, case: &CheckCase) -> u64 {
        match self.config.sabotage {
            Some(Sabotage::InflateAttribution { factor, min_procs })
                if u32::from(case.configuration.total_ces()) >= min_procs =>
            {
                factor
            }
            _ => 1,
        }
    }

    fn fault_attribution(&mut self, case: &CheckCase, faulted: &RunResult) -> Vec<Violation> {
        if case.fault_level == 0 {
            return Vec::new(); // nothing injected, nothing to attribute
        }
        let reference = self.run(case, TieBreak::Fifo, FaultPlan::default());
        let plan = case.plan();
        let factor = self.attribution_factor(case);

        // Each bucket-targeting class: its name, a single-class plan
        // derived from the case's plan (same seed, one class armed),
        // and the class's (injected-cycles counter, bucket) pairs. A
        // wave's seq/conc split is timing-dependent — injected faults
        // shift which side organic occurrences land on — so
        // monotonicity is asserted on the class's bucket *group*.
        type ClassTargets = (&'static str, FaultPlan, Vec<(&'static str, OsActivity)>);
        let mut classes: Vec<ClassTargets> = Vec::new();
        if plan.interrupt_storm.is_some() {
            classes.push((
                "storm",
                FaultPlan {
                    seed: plan.seed,
                    interrupt_storm: plan.interrupt_storm,
                    ..FaultPlan::default()
                },
                vec![("faults.injected.cpi", OsActivity::Cpi)],
            ));
        }
        if plan.ast_burst.is_some() {
            classes.push((
                "ast",
                FaultPlan {
                    seed: plan.seed,
                    ast_burst: plan.ast_burst,
                    ..FaultPlan::default()
                },
                vec![("faults.injected.ast", OsActivity::Ast)],
            ));
        }
        if plan.page_fault_wave.is_some() {
            classes.push((
                "wave",
                FaultPlan {
                    seed: plan.seed,
                    page_fault_wave: plan.page_fault_wave,
                    ..FaultPlan::default()
                },
                vec![
                    ("faults.injected.pgflt_seq", OsActivity::PgFltSequential),
                    ("faults.injected.pgflt_conc", OsActivity::PgFltConcurrent),
                ],
            ));
        }
        if plan.lock_inflation.is_some() {
            classes.push((
                "lock",
                FaultPlan {
                    seed: plan.seed,
                    lock_inflation: plan.lock_inflation,
                    ..FaultPlan::default()
                },
                vec![
                    ("faults.injected.lock_cluster", OsActivity::CrSectCluster),
                    ("faults.injected.lock_global", OsActivity::CrSectGlobal),
                ],
            ));
        }
        let targeted: Vec<OsActivity> = classes
            .iter()
            .flat_map(|(_, _, buckets)| buckets.iter().map(|&(_, a)| a))
            .collect();

        let mut v = Vec::new();
        let mut injected_total_mixed = 0u64;

        // Monotonicity, per class, on a single-class probe run — the
        // contract `tests/invariants.rs` validates. The injected cost
        // must reach the class's own buckets, up to a displacement
        // allowance: injected occurrences perturb timing enough to
        // suppress a small share of *organic* occurrences in the same
        // buckets (measured ≤ 2% of injected across the corpus, always
        // within a quarter of the reference's organic content).
        for (class, probe_plan, buckets) in &classes {
            let probe = self.run(case, TieBreak::Fifo, *probe_plan);
            let injected: u64 = buckets
                .iter()
                .map(|(counter, _)| probe.stats.counters.get(counter))
                .sum();
            injected_total_mixed += buckets
                .iter()
                .map(|(counter, _)| faulted.stats.counters.get(counter))
                .sum::<u64>();
            if injected == 0 {
                continue; // class armed but never fired at this scale
            }
            let organic: u64 = buckets.iter().map(|&(_, a)| reference.os.total(a).0).sum();
            let moved: u64 = buckets
                .iter()
                .map(|&(_, a)| probe.os.total(a).0.saturating_sub(reference.os.total(a).0))
                .sum();
            let allowance = organic / 4 + 200;
            let required = injected.saturating_mul(factor).saturating_sub(allowance);
            if moved < required {
                v.push(Violation {
                    oracle: OracleKind::FaultAttribution,
                    case: *case,
                    detail: format!(
                        "class `{class}` buckets moved {moved} < required {required} \
                         (injected {injected} × factor {factor}, allowance {allowance})"
                    ),
                });
            }

            // And only its buckets: on the single-class probe, every
            // other bucket group stays within the organic-growth budget
            // established by `tests/invariants.rs`.
            let stretch = probe.completion_time.0 as f64 / reference.completion_time.0 as f64 - 1.0;
            for group in BUCKET_GROUPS {
                if group.iter().any(|a| buckets.iter().any(|&(_, b)| b == *a))
                    || group.contains(&OsActivity::KernelSpin)
                {
                    continue; // spin legitimately emerges from hotter locks
                }
                let organic: u64 = group.iter().map(|&a| reference.os.total(a).0).sum();
                let budget = untargeted_budget(organic, stretch, injected);
                let probed: u64 = group.iter().map(|&a| probe.os.total(a).0).sum();
                let moved = probed.saturating_sub(organic);
                if moved > budget {
                    v.push(Violation {
                        oracle: OracleKind::FaultAttribution,
                        case: *case,
                        detail: format!(
                            "probe `{class}`: untargeted {group:?} moved {moved} > \
                             budget {budget} (organic {organic}, stretch {stretch:.4})"
                        ),
                    });
                }
            }
        }

        // On the mixed plan, classes interfere (injected load displaces
        // organic occurrences across buckets), so only two checks stay
        // sound: the faulted run's targeted buckets must still *hold*
        // each class's injected cycles, and untargeted buckets must
        // stay within the organic-growth budget.
        for (class, _, buckets) in &classes {
            let injected: u64 = buckets
                .iter()
                .map(|(counter, _)| faulted.stats.counters.get(counter))
                .sum();
            if injected == 0 {
                continue;
            }
            let organic: u64 = buckets.iter().map(|&(_, a)| reference.os.total(a).0).sum();
            let held: u64 = buckets.iter().map(|&(_, a)| faulted.os.total(a).0).sum();
            let required = injected
                .saturating_mul(factor)
                .saturating_sub(organic / 4 + 200);
            if held < required {
                v.push(Violation {
                    oracle: OracleKind::FaultAttribution,
                    case: *case,
                    detail: format!(
                        "mixed plan: class `{class}` buckets hold {held} < required {required} \
                         (injected {injected} × factor {factor})"
                    ),
                });
            }
        }
        let stretch = faulted.completion_time.0 as f64 / reference.completion_time.0 as f64 - 1.0;
        for group in BUCKET_GROUPS {
            if group.iter().any(|a| targeted.contains(a)) || group.contains(&OsActivity::KernelSpin)
            {
                continue;
            }
            let organic: u64 = group.iter().map(|&a| reference.os.total(a).0).sum();
            let budget = untargeted_budget(organic, stretch, injected_total_mixed);
            let held: u64 = group.iter().map(|&a| faulted.os.total(a).0).sum();
            let moved = held.saturating_sub(organic);
            if moved > budget {
                v.push(Violation {
                    oracle: OracleKind::FaultAttribution,
                    case: *case,
                    detail: format!(
                        "mixed plan: untargeted {group:?} moved {moved} > budget {budget} \
                         (organic {organic}, stretch {stretch:.4})"
                    ),
                });
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_hw::Configuration;

    fn tiny_case() -> CheckCase {
        CheckCase {
            app: "FLO52",
            configuration: Configuration::P1,
            fault_level: 0,
            shrink: 64,
            shuffle_seed: 0x5EED,
        }
    }

    #[test]
    fn clean_case_passes_every_oracle() {
        let mut h = Harness::new(CheckConfig::default());
        let violations = h.check_case(&tiny_case());
        assert!(violations.is_empty(), "{violations:#?}");
        assert_eq!(h.counters.get("check.cases"), 1);
        assert_eq!(h.counters.get("check.oracles.violation"), 0);
        // 4 direct runs + 2 suite runs + 1 cold cache run; faultless
        // cases skip the attribution reference.
        assert_eq!(h.counters.get("check.runs"), 7);
        // All oracles but fault attribution checked something real;
        // attribution counts as a (vacuous) pass.
        assert_eq!(h.counters.get("check.oracles.pass"), 6);
    }

    #[test]
    fn faulted_parallel_case_passes_with_attribution() {
        let mut h = Harness::new(CheckConfig::default());
        let case = CheckCase {
            app: "FLO52",
            configuration: Configuration::P8,
            fault_level: 2,
            shrink: 64,
            shuffle_seed: 0xFEED_FACE,
        };
        let violations = h.check_case(&case);
        assert!(violations.is_empty(), "{violations:#?}");
        // 7 path runs + 1 unfaulted reference + 4 single-class probes.
        assert_eq!(h.counters.get("check.runs"), 12, "attribution probes ran");
        assert_eq!(h.counters.get("check.oracle.fault_attribution.pass"), 1);
    }

    #[test]
    fn sabotage_breaks_only_the_attribution_oracle() {
        let mut h = Harness::new(CheckConfig {
            sabotage: Some(Sabotage::InflateAttribution {
                factor: 1_000,
                min_procs: 8,
            }),
            ..CheckConfig::default()
        });
        let case = CheckCase {
            app: "FLO52",
            configuration: Configuration::P8,
            fault_level: 2,
            shrink: 64,
            shuffle_seed: 1,
        };
        let violations = h.check_case(&case);
        assert!(!violations.is_empty(), "sabotage must be caught");
        assert!(
            violations
                .iter()
                .all(|v| v.oracle == OracleKind::FaultAttribution),
            "{violations:#?}"
        );
        // The same sabotage spares machines below its min_procs.
        let mut small = Harness::new(h.config);
        let p1 = CheckCase {
            configuration: Configuration::P1,
            ..case
        };
        assert!(small.check_case(&p1).is_empty());
    }
}
