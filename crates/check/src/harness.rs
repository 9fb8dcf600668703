//! The check harness: runs one case across every execution path the
//! workspace offers and evaluates the oracle registry.
//!
//! Per case the harness executes the experiment under three tie-break
//! policies (FIFO, LIFO, the case's seeded shuffle), once more under
//! FIFO as the determinism rerun, once through each campaign runner
//! (sequential and a one-worker pool), twice through a throwaway run
//! cache (cold then warm), and — for faulted cases — once unperturbed
//! as the attribution reference and once per armed fault class. Seven
//! simulations per clean case; every one is deterministic, so a
//! violation found here reproduces from the case's replay token alone.
//!
//! Each oracle returns the lines its laws ([`crate::law`]) find broken,
//! and one mapper binds them to the oracle and the case as
//! [`Violation`]s. The corpus pass and the shrinker's one-oracle probe
//! share that dispatch, which runs only the simulations the oracle
//! needs beyond the case's FIFO run.

use std::sync::atomic::{AtomicU64, Ordering};

use cedar_core::suite::SuiteResult;
use cedar_core::{CacheSession, Experiment, RunResult};
use cedar_faults::{FaultKind, FaultPlan};
use cedar_obs::{Counters, RunOptions};
use cedar_sim::TieBreak;
use cedar_xylem::OsActivity;

use crate::case::CheckCase;
use crate::fingerprint::{fingerprint_text, stable_core};
use crate::law;
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

/// A fault class's targets: (injected-cycles counter, bucket) pairs.
type Targets = &'static [(&'static str, OsActivity)];

/// How far an *untargeted* bucket group may grow under injection: the
/// organic-growth budget ([`growth_budget`](crate::growth_budget)) of
/// its organic content, with the completion-time stretch taken absolute
/// (probes can shorten a run by re-phasing its critical sections, which
/// re-times organic occurrences just as much as a lengthening does),
/// plus a *quantization* allowance of half its organic content.
///
/// `tests/invariants.rs` holds one synthetic workload to the bare
/// budget, per activity. The corpus runs the Perfect codes, whose OS
/// occurrences come in whole service events with timing-coupled counts:
/// a racing CE faults or finds the page already mapped depending on
/// whether it lands inside the page's in-flight window, and a stretched
/// run crosses one more periodic-daemon boundary (one more whole
/// Ctx/CPI charge). Held to the bare budget per activity, one of the
/// deep corpus's 120 single-class probes (`CEDAR_SHRINK=16` and `8`)
/// breaks it: ADM at 32p moves Ctx by 770 cycles against a 579-cycle
/// budget under the AST probe. Measured jitter stays within ±2 quanta,
/// under half the organic content, while real attribution leaks (the
/// planted sabotage is a 1000× factor) land orders of magnitude past
/// this budget.
fn untargeted_budget(organic: u64, stretch: f64, injected: u64) -> u64 {
    law::growth_budget(organic, stretch.abs(), injected) + organic / 2
}

/// The displacement allowance on a class's own buckets: injected
/// occurrences perturb timing enough to suppress a small share of
/// *organic* occurrences in the same buckets, so the targeted buckets
/// must move by the injected cycles less a quarter of their organic
/// content and 200 cycles. The tests' bare `delta ≥ injected` fails
/// 7 of the deep corpus's 120 single-class probes, each 0.46–2.27%
/// short of the injected cycles: six page-fault waves' concurrent
/// buckets and one interrupt storm's Cpi.
fn displacement_allowance(organic: u64) -> u64 {
    organic / 4 + 200
}

/// Tie-stability completion-time band, as a fraction of the FIFO
/// completion time. Simultaneous-event order is physically meaningful
/// on parallel machines (port FCFS arbitration, lock grant order);
/// measured drift across policies is within ±5% at 32 processors, so
/// the band is double that. An armed fault plan doubles it again.
const CT_TOLERANCE: f64 = 0.10;

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
    /// Evaluation budget for the delta-debugging shrinker.
    pub max_shrink_evals: u32,
    /// Planted defect for checker self-validation.
    pub sabotage: Option<Sabotage>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_shrink_evals: 64,
            sabotage: None,
        }
    }
}

/// The oracle-evaluating harness. Counters accumulate across cases and
/// surface in `CHECK_violations.json` and the run manifest.
pub struct Harness {
    /// Knobs (shrinker budget, planted sabotage).
    pub config: CheckConfig,
    /// `check.*` rollup: cases, simulations, per-oracle pass/violation.
    pub counters: Counters,
}

/// Cache directories the process's harnesses have made. One count for
/// the whole process, so harnesses on parallel test threads never
/// share, and delete, each other's directory.
static CACHE_DIRS: AtomicU64 = AtomicU64::new(0);

/// `lines`, each prefixed with `context: `.
fn within(context: impl std::fmt::Display, lines: Vec<String>) -> impl Iterator<Item = String> {
    lines.into_iter().map(move |l| format!("{context}: {l}"))
}

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
        let base = self.run(case, TieBreak::Fifo, case.plan());
        let mut all = Vec::new();
        for oracle in OracleKind::ALL {
            let found = self.evaluate(case, oracle, &base);
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
        let base = self.run(case, TieBreak::Fifo, case.plan());
        self.evaluate(case, oracle, &base)
    }

    /// One oracle on `case`, given the case's FIFO run: runs whatever
    /// further simulations the oracle needs and wraps each law line it
    /// returns in a [`Violation`].
    fn evaluate(
        &mut self,
        case: &CheckCase,
        oracle: OracleKind,
        base: &RunResult,
    ) -> Vec<Violation> {
        let broken = match oracle {
            OracleKind::Conservation => law::conservation(base, case.workload().total_bodies()),
            OracleKind::Determinism => {
                let dup = self.run(case, TieBreak::Fifo, case.plan());
                within("identical reruns", law::same_run(base, &dup)).collect()
            }
            OracleKind::TieStability => self.tie_stability(case, base),
            OracleKind::WorkerParity => self.worker_parity(case, base),
            OracleKind::CacheParity => self.cache_parity(case, base),
            OracleKind::FaultAttribution => self.fault_attribution(case, base),
        };
        broken
            .into_iter()
            .map(|detail| Violation {
                oracle,
                case: *case,
                detail,
            })
            .collect()
    }

    fn tie_stability(&mut self, case: &CheckCase, base: &RunResult) -> Vec<String> {
        let bodies = case.workload().total_bodies();
        let mut broken = Vec::new();
        for policy in [TieBreak::Lifo, TieBreak::Shuffle(case.shuffle_seed)] {
            let run = self.run(case, policy, case.plan());
            if stable_core(&run) != stable_core(base) {
                broken.push(format!(
                    "{policy}: stable core changed: `{}` vs `{}`",
                    stable_core(&run),
                    stable_core(base)
                ));
            }
            broken.extend(within(policy, law::conservation(&run, bodies)));
            // Fault occurrence times couple to event pop order, so an
            // armed plan roughly doubles how far reordering can move
            // the completion time (measured: +11.2% at 32p/level 2
            // against a clean-run worst case near 5%).
            let tolerance = if case.fault_level > 0 {
                CT_TOLERANCE * 2.0
            } else {
                CT_TOLERANCE
            };
            let (ct, base_ct) = (run.completion_time.0 as f64, base.completion_time.0 as f64);
            if (ct - base_ct).abs() > tolerance * base_ct {
                broken.push(format!(
                    "{policy}: completion time {ct} outside ±{:.0}% of FIFO {base_ct}",
                    tolerance * 100.0
                ));
            }
            // One cluster: simultaneous events have no physically
            // meaningful order, so any reordering is invisible in the
            // measurements — unless faults are armed, in which case the
            // reordered pop sequence changes which events the plan's
            // occurrences perturb even on a single cluster.
            if case.fault_level == 0
                && case.configuration.total_ces() == 1
                && fingerprint_text(&run) != fingerprint_text(base)
            {
                broken.push(format!(
                    "{policy}: single-cluster run not byte-identical to FIFO"
                ));
            }
        }
        broken
    }

    /// The sequential runner and the pool agree with each other and
    /// with the direct library path. A one-cell grid runs on a
    /// one-worker pool: the pool never starts more workers than jobs.
    fn worker_parity(&mut self, case: &CheckCase, base: &RunResult) -> Vec<String> {
        let opts = RunOptions::default();
        let apps = [case.workload()];
        let configs = [case.config(TieBreak::Fifo)];
        self.counters.add("check.runs", 2);
        let seq = match SuiteResult::run_sequential(&apps, &configs, &opts) {
            Ok(s) => s,
            Err(e) => return vec![format!("sequential runner failed: {e}")],
        };
        let par = match SuiteResult::run_parallel(&apps, &configs, &opts) {
            Ok(s) => s,
            Err(e) => return vec![format!("parallel runner failed: {e}")],
        };
        self.counters.merge(&seq.telemetry.counters);
        self.counters.merge(&par.telemetry.counters);
        let mut broken: Vec<String> =
            within("sequential vs pooled", law::same_campaign(&seq, &par)).collect();
        let suite_run = &seq.apps[0].runs[0];
        broken.extend(within(
            "suite runner vs direct experiment",
            law::same_run(suite_run, base),
        ));
        broken
    }

    fn cache_parity(&mut self, case: &CheckCase, base: &RunResult) -> Vec<String> {
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
            self.counters.merge(&cold.stats.counters);
            let warm = session.execute(&case.workload(), cfg);
            let stats = session.stats().ok_or("cache session reports no stats")?;
            if stats.hits != 1 || stats.misses != 1 {
                return Err(format!(
                    "expected 1 miss + 1 hit, saw {} misses / {} hits",
                    stats.misses, stats.hits
                ));
            }
            let mut broken: Vec<String> =
                within("warm replay vs cold run", law::same_run(&warm, &cold)).collect();
            broken.extend(within(
                "cached path vs direct path",
                law::same_run(&cold, base),
            ));
            Ok(broken)
        })();
        let _ = std::fs::remove_dir_all(&dir);
        verdict.unwrap_or_else(|detail| vec![detail])
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

    fn fault_attribution(&mut self, case: &CheckCase, faulted: &RunResult) -> Vec<String> {
        if case.fault_level == 0 {
            return Vec::new(); // nothing injected, nothing to attribute
        }
        let reference = self.run(case, TieBreak::Fifo, FaultPlan::default());
        let plan = case.plan();
        let factor = self.attribution_factor(case);

        // Each bucket-targeting class: its name, the case's plan with
        // only that class armed, and the class's (injected-cycles
        // counter, bucket) pairs. A wave's seq/conc split is
        // timing-dependent — injected faults shift which side organic
        // occurrences land on — so monotonicity is asserted on the
        // class's bucket *group*.
        let classes: [(&str, FaultPlan, Targets); 4] = [
            (
                "storm",
                plan.only(FaultKind::InterruptStorm),
                &[("faults.injected.cpi", OsActivity::Cpi)],
            ),
            (
                "ast",
                plan.only(FaultKind::AstBurst),
                &[("faults.injected.ast", OsActivity::Ast)],
            ),
            (
                "wave",
                plan.only(FaultKind::PageFaultWave),
                &[
                    ("faults.injected.pgflt_seq", OsActivity::PgFltSequential),
                    ("faults.injected.pgflt_conc", OsActivity::PgFltConcurrent),
                ],
            ),
            (
                "lock",
                plan.only(FaultKind::LockInflation),
                &[
                    ("faults.injected.lock_cluster", OsActivity::CrSectCluster),
                    ("faults.injected.lock_global", OsActivity::CrSectGlobal),
                ],
            ),
        ];
        let targeted: Vec<OsActivity> = classes
            .iter()
            .flat_map(|(_, _, buckets)| buckets.iter().map(|&(_, a)| a))
            .collect();

        let mut broken = Vec::new();
        let mut injected_total_mixed = 0u64;

        // Monotonicity, per class, on a single-class probe run: the
        // injected cost must reach the class's own buckets, up to the
        // displacement allowance.
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
            let allowance = displacement_allowance(organic);
            let required = injected.saturating_mul(factor).saturating_sub(allowance);
            if moved < required {
                broken.push(format!(
                    "class `{class}` buckets moved {moved} < required {required} \
                     (injected {injected} × factor {factor}, allowance {allowance})"
                ));
            }

            // And only its buckets: on the single-class probe, every
            // other bucket group stays within its untargeted budget.
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
                    broken.push(format!(
                        "probe `{class}`: untargeted {group:?} moved {moved} > \
                         budget {budget} (organic {organic}, stretch {stretch:.4})"
                    ));
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
                .saturating_sub(displacement_allowance(organic));
            if held < required {
                broken.push(format!(
                    "mixed plan: class `{class}` buckets hold {held} < required {required} \
                     (injected {injected} × factor {factor})"
                ));
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
                broken.push(format!(
                    "mixed plan: untargeted {group:?} moved {moved} > budget {budget} \
                     (organic {organic}, stretch {stretch:.4})"
                ));
            }
        }
        broken
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
        // The simulator counters roll up all seven runs: five under
        // FIFO (the case's run, its determinism rerun, both suite runs
        // and the cold cache run), one under LIFO and one under shuffle.
        let case = tiny_case();
        let events = |tiebreak| {
            Experiment::new(case.workload(), case.config(tiebreak))
                .run()
                .stats
                .counters
                .get("events.total")
        };
        let fifo = events(TieBreak::Fifo);
        let lifo = events(TieBreak::Lifo);
        let shuffle = events(TieBreak::Shuffle(case.shuffle_seed));
        assert_eq!(h.counters.get("events.total"), 5 * fifo + lifo + shuffle);
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
