//! Configuration fuzzing: ~200 seeded `SimConfig`/`FaultPlan` combos
//! through short runs, checking the simulator's conservation laws on
//! every one.
//!
//! Each case derives its workload, machine configuration, run options
//! and (half the time) a fault mix from one `SplitMix64` stream, runs
//! the experiment, and asserts *conservation* (`cedar_check::conservation`):
//! every iteration executes exactly once, user breakdowns never exceed
//! the wall clock, Figure-3 categories partition completion time, and
//! concurrency stays within the machine's CE count. Replays and worker
//! counts are held to run equality (`cedar_check::same_run`).
//!
//! Every failure message carries the case seed. To replay one case:
//!
//! ```text
//! CEDAR_FUZZ_SEED=0xDEADBEEF cargo test --test config_fuzz
//! ```

use cedar::apps::{AccessPattern, AppBuilder, AppSpec, BodySpec};
use cedar::check::{conservation, same_campaign, same_run};
use cedar::core::{Experiment, SimConfig};
use cedar::faults::{
    AstBurst, DegradedNetwork, FaultPlan, HelperStall, InterruptStorm, LockInflation, PageFaultWave,
};
use cedar::hw::Configuration;
use cedar::obs::RunOptions;
use cedar::sim::{Cycles, SplitMix64};

/// Number of fuzz cases in the full sweep.
const CASES: u64 = 200;

/// Base seed of the sweep; each case's seed is one `SplitMix64` draw.
const BASE_SEED: u64 = 0xC0FF_EE00_5EED_0001;

/// The per-case seeds: the full deterministic sweep, or exactly the one
/// case named by `CEDAR_FUZZ_SEED` (decimal or `0x`-prefixed hex) when
/// replaying a reported failure.
fn case_seeds() -> Vec<u64> {
    match std::env::var("CEDAR_FUZZ_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            let seed = raw
                .strip_prefix("0x")
                .or_else(|| raw.strip_prefix("0X"))
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| raw.parse())
                .unwrap_or_else(|e| panic!("unparseable CEDAR_FUZZ_SEED {raw:?}: {e}"));
            vec![seed]
        }
        Err(_) => {
            let mut rng = SplitMix64::new(BASE_SEED);
            (0..CASES).map(|_| rng.next_u64()).collect()
        }
    }
}

/// A short random loop-parallel program. Deliberately smaller than the
/// `tests/invariants.rs` generator: the sweep runs 200 simulations, so
/// each must finish in milliseconds.
fn arb_app(rng: &mut SplitMix64) -> AppSpec {
    let loops = rng.next_range(1, 3);
    let flat = rng.next_u64().is_multiple_of(2);
    let outer = rng.next_range(2, 8) as u32;
    let inner = rng.next_range(1, 8) as u32;
    let compute = rng.next_range(30, 300);
    let words = rng.next_range(0, 10) as u32;
    let jitter = rng.next_range(0, 16) as u8;

    let mut b = AppBuilder::new("FUZZ").array("data", 64 * 1024);
    b = b.repeat(1, |mut rb| {
        rb = rb.serial(rng.next_range(200, 2_000));
        for _ in 0..loops {
            let mut body = BodySpec::compute(compute).with_jitter(jitter);
            if words > 0 {
                body = body.with_access(AccessPattern::sweep(0, words));
            }
            rb = if flat {
                rb.xdoall(outer * inner, body)
            } else {
                rb.sdoall(outer, inner, body)
            };
        }
        rb
    });
    b.build()
}

fn arb_config(rng: &mut SplitMix64) -> Configuration {
    let choices = [
        Configuration::P1,
        Configuration::P4,
        Configuration::P8,
        Configuration::P16,
        Configuration::P32,
    ];
    choices[rng.next_below(choices.len() as u64) as usize]
}

/// A random fault mix, each class armed with probability ~1/3 so most
/// plans stay small and runs stay short.
fn arb_plan(rng: &mut SplitMix64) -> FaultPlan {
    let mut p = FaultPlan::default().with_seed(rng.next_u64());
    if rng.next_below(3) == 0 {
        p = p.with_interrupt_storm(InterruptStorm {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            burst: rng.next_range(1, 4) as u32,
        });
    }
    if rng.next_below(3) == 0 {
        p = p.with_ast_burst(AstBurst {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            burst: rng.next_range(1, 5) as u32,
            cost: Cycles(rng.next_range(50, 300)),
        });
    }
    if rng.next_below(3) == 0 {
        p = p.with_page_fault_wave(PageFaultWave {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            faults_per_wave: rng.next_range(1, 6) as u32,
            concurrent_pct: rng.next_below(101) as u8,
            seq_cost: Cycles(rng.next_range(300, 900)),
            conc_cost: Cycles(rng.next_range(500, 1_500)),
        });
    }
    if rng.next_below(3) == 0 {
        p = p.with_lock_inflation(LockInflation {
            hold_pct: rng.next_range(10, 250) as u32,
        });
    }
    if rng.next_below(3) == 0 {
        p = p.with_degraded_network(DegradedNetwork {
            switch_pct: rng.next_range(0, 120) as u32,
            module_pct: rng.next_range(0, 120) as u32,
        });
    }
    if rng.next_below(3) == 0 {
        p = p.with_helper_stall(HelperStall {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            stall: Cycles(rng.next_range(200, 1_000)),
        });
    }
    p
}

/// One fuzz case, fully derived from its seed.
struct Case {
    seed: u64,
    app: AppSpec,
    config: Configuration,
    sim_seed: u64,
    trace: bool,
    plan: Option<FaultPlan>,
}

impl Case {
    fn derive(seed: u64) -> Case {
        let mut rng = SplitMix64::new(seed);
        let app = arb_app(&mut rng);
        let config = arb_config(&mut rng);
        let sim_seed = rng.next_u64();
        let trace = rng.next_below(4) == 0;
        let plan = (rng.next_below(2) == 0).then(|| arb_plan(&mut rng));
        Case {
            seed,
            app,
            config,
            sim_seed,
            trace,
            plan,
        }
    }

    fn sim_config(&self) -> SimConfig {
        let mut c = SimConfig::cedar(self.config).with_seed(self.sim_seed);
        if self.trace {
            c = c.with_trace();
        }
        if let Some(plan) = self.plan {
            c = c.with_faults(plan);
        }
        c
    }

    /// The replay incantation, embedded in every assertion message.
    fn replay(&self) -> String {
        format!(
            "replay: CEDAR_FUZZ_SEED={:#x} cargo test --test config_fuzz",
            self.seed
        )
    }
}

#[test]
fn seeded_config_sweep_conserves() {
    let seeds = case_seeds();
    let replaying = seeds.len() == 1 && std::env::var("CEDAR_FUZZ_SEED").is_ok();
    for &seed in &seeds {
        let case = Case::derive(seed);
        if replaying {
            eprintln!(
                "replaying case seed {seed:#x}: {:?} trace={} faults={}",
                case.config,
                case.trace,
                case.plan.is_some()
            );
        }
        let run = Experiment::new(case.app.clone(), case.sim_config()).run();
        let broken = conservation(&run, case.app.total_bodies());
        assert!(broken.is_empty(), "{broken:#?} ({})", case.replay());
    }
}

/// The sweep itself must be deterministic: deriving a case twice from
/// the same seed gives byte-identical results (otherwise the replay
/// knob could not reproduce failures).
#[test]
fn replay_of_a_case_seed_is_exact() {
    let seed = SplitMix64::new(BASE_SEED).next_u64();
    let a = Case::derive(seed);
    let b = Case::derive(seed);
    let run_a = Experiment::new(a.app.clone(), a.sim_config()).run();
    let run_b = Experiment::new(b.app.clone(), b.sim_config()).run();
    let broken = same_run(&run_a, &run_b);
    assert!(broken.is_empty(), "{broken:#?} ({})", a.replay());
}

/// Fuzzing of the suite driver: the worker fan-out must not leak into
/// results for any fuzzed configuration and fault plan.
#[test]
fn fuzzed_run_options_are_worker_count_independent() {
    let mut rng = SplitMix64::new(BASE_SEED ^ 0x5157);
    for i in 0..6 {
        let seed = rng.next_u64();
        let case = Case::derive(seed);
        let apps = [case.app.clone()];
        let mut cfg = SimConfig::cedar(case.config);
        if let Some(plan) = case.plan {
            cfg = cfg.with_faults(plan);
        }
        let configs = [cfg];
        let opts = RunOptions::default();
        let one = cedar::core::suite::SuiteResult::run_parallel(
            &apps,
            &configs,
            &opts.clone().with_workers(1),
        )
        .expect("1-worker run");
        let four =
            cedar::core::suite::SuiteResult::run_parallel(&apps, &configs, &opts.with_workers(4))
                .expect("4-worker run");
        let broken = same_campaign(&one, &four);
        assert!(
            broken.is_empty(),
            "case {i}: worker count leaked into results: {broken:#?} ({})",
            case.replay()
        );
    }
}
