//! Property-based invariants over randomly generated workloads.
//!
//! Every generated loop-parallel program, on every configuration, must
//! respect the conservation laws of the simulator
//! (`cedar_check::conservation`: each iteration executes exactly once,
//! accounting never exceeds the wall clock, the Figure-3 categories
//! partition it, concurrency stays within the machine) and give the
//! same run on identical inputs (`cedar_check::same_run`).
//!
//! Randomness comes from the in-repo `SplitMix64` generator with fixed
//! seeds — no external crates, and the same seed always produces the
//! same program, so every failure is reproducible from the seed printed
//! in the assertion message.

use cedar::apps::{AccessPattern, AppBuilder, AppSpec, BodySpec};
use cedar::check::{conservation, growth_budget, same_run};
use cedar::core::{Experiment, SimConfig};
use cedar::hw::route;
use cedar::hw::Configuration;
use cedar::sim::SplitMix64;

/// A small random loop-parallel program, drawn from `rng`.
fn arb_app(rng: &mut SplitMix64) -> AppSpec {
    let serial_k = rng.next_range(1, 2);
    let loops = rng.next_range(1, 3);
    let flat = rng.next_u64().is_multiple_of(2); // xdoall vs sdoall
    let outer = rng.next_range(2, 12) as u32;
    let inner = rng.next_range(1, 12) as u32;
    let compute = rng.next_range(50, 600);
    let words = rng.next_range(0, 12) as u32;
    let jitter = rng.next_range(0, 20) as u8;

    let mut b = AppBuilder::new("PROP").array("data", 256 * 1024);
    b = b.repeat(1, |mut rb| {
        rb = rb.serial(serial_k * 1000);
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

/// A random multiprocessor configuration, drawn from `rng`.
fn arb_config(rng: &mut SplitMix64) -> Configuration {
    let choices = [
        Configuration::P1,
        Configuration::P4,
        Configuration::P8,
        Configuration::P16,
    ];
    choices[rng.next_below(choices.len() as u64) as usize]
}

/// Runs `check` on `cases` seed-derived (app, configuration) pairs.
fn for_random_workloads(salt: u64, cases: u64, mut check: impl FnMut(u64, AppSpec, Configuration)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(salt.wrapping_mul(0x9E37_79B9).wrapping_add(case));
        let app = arb_app(&mut rng);
        let c = arb_config(&mut rng);
        check(case, app, c);
    }
}

/// Asserts [`conservation`] on 12 clean random workloads drawn with
/// `salt`.
fn assert_conserves(salt: u64) {
    for_random_workloads(salt, 12, |case, app, c| {
        let expected = app.total_bodies();
        let run = Experiment::new(app, SimConfig::cedar(c)).run();
        let broken = conservation(&run, expected);
        assert!(
            broken.is_empty(),
            "case {case} on {}: {broken:#?}",
            c.label()
        );
    });
}

#[test]
fn every_iteration_executes_exactly_once() {
    assert_conserves(1);
}

#[test]
fn identical_runs_are_bit_identical() {
    for_random_workloads(2, 12, |case, app, c| {
        let a = Experiment::new(app.clone(), SimConfig::cedar(c)).run();
        let b = Experiment::new(app, SimConfig::cedar(c)).run();
        let broken = same_run(&a, &b);
        assert!(broken.is_empty(), "case {case}: {broken:#?}");
    });
}

#[test]
fn breakdown_never_exceeds_completion_time() {
    assert_conserves(3);
}

#[test]
fn more_processors_never_lose_badly() {
    // Parallel runs may not beat 1p on degenerate programs, but they
    // must never be dramatically slower (protocol costs are bounded).
    for_random_workloads(4, 12, |case, app, _| {
        let base = Experiment::new(app.clone(), SimConfig::cedar(Configuration::P1)).run();
        let p8 = Experiment::new(app, SimConfig::cedar(Configuration::P8)).run();
        assert!(
            p8.completion_time.0 <= base.completion_time.0 * 2,
            "case {case}: 8p run more than 2x slower than 1p"
        );
    });
}

#[test]
fn concurrency_bounded_by_active_processors() {
    assert_conserves(5);
}

#[test]
fn delta_routing_is_well_formed() {
    // 32 endpoints, 8x8 switches, 4 switches per stage.
    for src in 0u16..32 {
        for dst in 0u16..32 {
            // Stage-1 port leads to the stage-2 switch serving dst.
            assert_eq!(route::stage1_port(dst) % 4, route::stage2_switch(dst));
            // Output port identifies the destination within its switch.
            assert_eq!(route::stage2_switch(dst) * 8 + route::stage2_port(dst), dst);
            // Sources attach to exactly one stage-1 switch.
            assert!(route::stage1_switch(src) < 4);
        }
    }
}

#[test]
fn interleaving_covers_all_modules_uniformly() {
    use cedar::hw::GlobalAddr;
    // Any 32 consecutive double words hit all 32 modules exactly once.
    let mut rng = SplitMix64::new(6);
    for _ in 0..64 {
        let start = rng.next_below(4096);
        let mut seen = [false; 32];
        for k in 0..32u64 {
            let m = GlobalAddr((start + k) * 8).module().0 as usize;
            assert!(!seen[m], "module {m} hit twice from start {start}");
            seen[m] = true;
        }
    }
}

// ---- fault-injection attribution invariants -------------------------
//
// The fault subsystem's contract: an injected disturbance lands in the
// Table-2 bucket its class targets, other buckets move only with the
// organic growth that a longer run implies, and no conservation law of
// the simulator bends under any fault mix.

use cedar::core::RunResult;
use cedar::faults::{
    AstBurst, DegradedNetwork, FaultPlan, HelperStall, InterruptStorm, LockInflation, PageFaultWave,
};
use cedar::hw::NetConfig;
use cedar::sim::Cycles;
use cedar::xylem::OsActivity;

/// A random fault mix, each class armed with probability ~1/2.
fn arb_plan(rng: &mut SplitMix64) -> FaultPlan {
    let mut p = FaultPlan::default().with_seed(rng.next_u64());
    if rng.next_below(2) == 0 {
        p = p.with_interrupt_storm(InterruptStorm {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            burst: rng.next_range(1, 4) as u32,
        });
    }
    if rng.next_below(2) == 0 {
        p = p.with_ast_burst(AstBurst {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            burst: rng.next_range(1, 5) as u32,
            cost: Cycles(rng.next_range(50, 300)),
        });
    }
    if rng.next_below(2) == 0 {
        p = p.with_page_fault_wave(PageFaultWave {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            faults_per_wave: rng.next_range(1, 8) as u32,
            concurrent_pct: rng.next_below(101) as u8,
            seq_cost: Cycles(rng.next_range(300, 900)),
            conc_cost: Cycles(rng.next_range(500, 1_500)),
        });
    }
    if rng.next_below(2) == 0 {
        p = p.with_lock_inflation(LockInflation {
            hold_pct: rng.next_range(10, 300) as u32,
        });
    }
    if rng.next_below(2) == 0 {
        p = p.with_degraded_network(DegradedNetwork {
            switch_pct: rng.next_range(0, 150) as u32,
            module_pct: rng.next_range(0, 150) as u32,
        });
    }
    if rng.next_below(2) == 0 {
        p = p.with_helper_stall(HelperStall {
            mean_interval: Cycles(rng.next_range(10_000, 60_000)),
            stall: Cycles(rng.next_range(200, 1_200)),
        });
    }
    p
}

#[test]
fn fault_mixes_preserve_conservation_laws() {
    for_random_workloads(7, 12, |case, app, c| {
        let mut rng = SplitMix64::new(0xFA_u64.wrapping_mul(case + 1));
        let plan = arb_plan(&mut rng);
        let expected = app.total_bodies();
        let run = Experiment::new(app, SimConfig::cedar(c).with_faults(plan)).run();
        let broken = conservation(&run, expected);
        assert!(
            broken.is_empty(),
            "case {case} on {}: {broken:#?}",
            c.label()
        );
    });
}

#[test]
fn fault_runs_are_deterministic_per_plan() {
    for_random_workloads(8, 6, |case, app, c| {
        let mut rng = SplitMix64::new(0xDE_u64.wrapping_mul(case + 1));
        let plan = arb_plan(&mut rng);
        let a = Experiment::new(app.clone(), SimConfig::cedar(c).with_faults(plan)).run();
        let b = Experiment::new(app, SimConfig::cedar(c).with_faults(plan)).run();
        let broken = same_run(&a, &b);
        assert!(broken.is_empty(), "case {case}: {broken:#?}");
    });
}

/// The deterministic workload the single-class attribution probes run:
/// FLO52-like, on the full 4-cluster machine so helper clusters exist
/// (helper stalls and global system calls need them) and every bucket
/// has organic content.
fn attribution_pair(plan: FaultPlan) -> (RunResult, RunResult) {
    let app = || cedar::apps::synthetic::uniform_sdoall(2, 4, 8, 16, 300, 8);
    let c = Configuration::P32;
    let base = Experiment::new(app(), SimConfig::cedar(c)).run();
    let faulted = Experiment::new(app(), SimConfig::cedar(c).with_faults(plan)).run();
    (base, faulted)
}

/// Machine-wide bucket delta (faulted − base), saturating at zero.
fn delta(base: &RunResult, faulted: &RunResult, a: OsActivity) -> u64 {
    faulted.os.total(a).0.saturating_sub(base.os.total(a).0)
}

/// Asserts the injected cycles land in `target` buckets and every other
/// bucket moves by at most its organic-growth budget
/// ([`growth_budget`]: bounded by the relative CT stretch, plus a small
/// absolute allowance for discrete occurrence counts). With no targets,
/// every bucket stays within that budget.
fn assert_attribution(
    base: &RunResult,
    faulted: &RunResult,
    targets: &[(OsActivity, u64)],
    label: &str,
) {
    let stretch = faulted.completion_time.0 as f64 / base.completion_time.0 as f64 - 1.0;
    for &(activity, injected) in targets {
        assert!(injected > 0, "{label}: nothing was injected");
        let d = delta(base, faulted, activity);
        assert!(
            d >= injected,
            "{label}: {activity:?} delta {d} < injected {injected} \
             (injected cost must reach its own bucket)"
        );
    }
    let targeted: Vec<OsActivity> = targets.iter().map(|&(a, _)| a).collect();
    let injected_total: u64 = targets.iter().map(|&(_, i)| i).sum();
    for activity in OsActivity::ALL {
        if targeted.contains(&activity) || activity == OsActivity::KernelSpin {
            continue; // spin legitimately emerges from hotter locks
        }
        let organic = base.os.total(activity).0;
        let budget = growth_budget(organic, stretch, injected_total);
        let d = delta(base, faulted, activity);
        assert!(
            d <= budget,
            "{label}: untargeted {activity:?} moved by {d} \
             (budget {budget}, organic {organic}, stretch {stretch:.4})"
        );
    }
}

#[test]
fn interrupt_storms_raise_only_the_cpi_bucket() {
    let plan = FaultPlan::default().with_interrupt_storm(InterruptStorm {
        mean_interval: Cycles(20_000),
        burst: 3,
    });
    let (base, faulted) = attribution_pair(plan);
    let injected = faulted.stats.counters.get("faults.injected.cpi");
    assert_attribution(&base, &faulted, &[(OsActivity::Cpi, injected)], "storm");
}

#[test]
fn ast_bursts_raise_only_the_ast_bucket() {
    let plan = FaultPlan::default().with_ast_burst(AstBurst {
        mean_interval: Cycles(20_000),
        burst: 4,
        cost: Cycles(150),
    });
    let (base, faulted) = attribution_pair(plan);
    let injected = faulted.stats.counters.get("faults.injected.ast");
    assert_attribution(&base, &faulted, &[(OsActivity::Ast, injected)], "ast");
}

#[test]
fn page_fault_waves_raise_only_the_pgflt_buckets() {
    let plan = FaultPlan::default().with_page_fault_wave(PageFaultWave {
        mean_interval: Cycles(20_000),
        faults_per_wave: 5,
        concurrent_pct: 50,
        seq_cost: Cycles(700),
        conc_cost: Cycles(1_100),
    });
    let (base, faulted) = attribution_pair(plan);
    let seq = faulted.stats.counters.get("faults.injected.pgflt_seq");
    let conc = faulted.stats.counters.get("faults.injected.pgflt_conc");
    assert_attribution(
        &base,
        &faulted,
        &[
            (OsActivity::PgFltSequential, seq),
            (OsActivity::PgFltConcurrent, conc),
        ],
        "wave",
    );
}

#[test]
fn lock_inflation_raises_only_the_critical_section_buckets() {
    let plan = FaultPlan::default().with_lock_inflation(LockInflation { hold_pct: 200 });
    let (base, faulted) = attribution_pair(plan);
    let cluster = faulted.stats.counters.get("faults.injected.lock_cluster");
    let global = faulted.stats.counters.get("faults.injected.lock_global");
    assert_attribution(
        &base,
        &faulted,
        &[
            (OsActivity::CrSectCluster, cluster),
            (OsActivity::CrSectGlobal, global),
        ],
        "lock",
    );
}

#[test]
fn helper_stalls_charge_no_os_bucket() {
    let plan = FaultPlan::default().with_helper_stall(HelperStall {
        mean_interval: Cycles(15_000),
        stall: Cycles(800),
    });
    let (base, faulted) = attribution_pair(plan);
    assert!(
        faulted.stats.counters.get("faults.injected.stall") > 0,
        "stalls must fire"
    );
    assert!(
        faulted.completion_time >= base.completion_time,
        "stalled helpers cannot speed the run up"
    );
    assert_attribution(&base, &faulted, &[], "stall");
}

#[test]
fn degraded_network_moves_contention_not_os_buckets() {
    let plan = FaultPlan::default().with_degraded_network(DegradedNetwork {
        switch_pct: 100,
        module_pct: 100,
    });
    let (base, faulted) = attribution_pair(plan);
    // The machine builds Cedar's one network, slowed only by the plan.
    assert_eq!(
        base.gmem.min_round_trip,
        NetConfig::cedar().min_round_trip()
    );
    assert_eq!(
        faulted.gmem.min_round_trip,
        NetConfig::cedar().slowed(100, 100).min_round_trip(),
        "degraded hardware must lengthen the no-contention round trip"
    );
    assert!(
        faulted.completion_time > base.completion_time,
        "slower memory must stretch CT"
    );
    assert_attribution(&base, &faulted, &[], "net");
}
