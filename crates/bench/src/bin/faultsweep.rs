//! Fault-sensitivity sweep: how each injected disturbance moves the
//! paper's overhead buckets as the campaign intensity grows.
//!
//! Runs FLO52 at 8 and 32 processors under `FaultPlan::canonical_at`
//! levels 0..=4 (0 = unperturbed, 1 = the canonical campaign, higher
//! levels fire every timed class proportionally more often and stretch
//! the static multipliers), writes one CSV row per (configuration,
//! level) to `results/FAULTS_sensitivity.csv`, and prints the
//! fault-attribution report for the canonical level — each injected
//! overhead next to the Table-2 bucket it landed in.
//!
//! Honors the usual typed knobs: `CEDAR_SHRINK` scales the workload,
//! `CEDAR_WORKERS` bounds the sweep pool, `BENCH_JSON_DIR` redirects the
//! CSV.

use std::fmt::Write as _;

use cedar_core::prelude::FaultPlan;
use cedar_core::{RunResult, SimConfig, SuiteResult};
use cedar_hw::Configuration;
use cedar_xylem::OsActivity;

const LEVELS: [u32; 5] = [0, 1, 2, 3, 4];
const CONFIGS: [Configuration; 2] = [Configuration::P8, Configuration::P32];

fn flo52(shrink: u32) -> cedar_apps::AppSpec {
    cedar_apps::perfect_suite()
        .into_iter()
        .find(|a| a.name == "FLO52")
        .expect("FLO52 in the perfect suite")
        .shrunk(shrink)
}

fn csv(results: &[(Configuration, u32, &RunResult)]) -> String {
    let mut s = String::from(
        "config,level,fingerprint,ct_cycles,os_fraction,\
         cpi,ctx,pgflt_conc,pgflt_seq,crsect_cluster,crsect_global,\
         syscall_cluster,syscall_global,ast,kernel_spin,\
         injected_cpi,injected_ast,injected_pgflt,injected_lock,injected_stall,\
         gmem_queued_per_packet\n",
    );
    for (c, level, r) in results {
        let os = |a: OsActivity| r.os.total(a).0;
        let inj = |name: &str| r.stats.counters.get(name);
        let _ = writeln!(
            s,
            "{},{},\"{}\",{},{:.4},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.2}",
            c.label(),
            level,
            FaultPlan::canonical_at(*level).fingerprint(),
            r.completion_time.0,
            r.os_overhead_fraction(),
            os(OsActivity::Cpi),
            os(OsActivity::Ctx),
            os(OsActivity::PgFltConcurrent),
            os(OsActivity::PgFltSequential),
            os(OsActivity::CrSectCluster),
            os(OsActivity::CrSectGlobal),
            os(OsActivity::SyscallCluster),
            os(OsActivity::SyscallGlobal),
            os(OsActivity::Ast),
            os(OsActivity::KernelSpin),
            inj("faults.injected.cpi"),
            inj("faults.injected.ast"),
            inj("faults.injected.pgflt_seq") + inj("faults.injected.pgflt_conc"),
            inj("faults.injected.lock_cluster") + inj("faults.injected.lock_global"),
            inj("faults.injected.stall"),
            r.gmem.mean_queued_per_packet(),
        );
    }
    s
}

fn main() {
    let opts = cedar_bench::run_options();
    let shrink = opts.shrink.max(1);
    println!("Fault sensitivity sweep: FLO52/{shrink}, levels {LEVELS:?} of the canonical plan");

    let cells: Vec<(Configuration, u32)> = CONFIGS
        .iter()
        .flat_map(|&c| LEVELS.iter().map(move |&l| (c, l)))
        .collect();
    let configs: Vec<SimConfig> = cells
        .iter()
        .map(|&(c, level)| SimConfig::cedar(c).with_faults(FaultPlan::canonical_at(level)))
        .collect();
    let suite = SuiteResult::measure(&[flo52(shrink)], &configs, opts);
    let results: Vec<(Configuration, u32, &RunResult)> = cells
        .iter()
        .zip(&suite.apps[0].runs)
        .map(|(&(c, l), r)| (c, l, r))
        .collect();

    println!(
        "\n{:>8} | {:>5} | {:>12} | {:>8} | {:>12}",
        "config", "level", "CT (cyc)", "OS %", "CT stretch"
    );
    println!("{}", "-".repeat(58));
    for &c in &CONFIGS {
        let base_ct = results
            .iter()
            .find(|(rc, l, _)| *rc == c && *l == 0)
            .map(|(_, _, r)| r.completion_time.0)
            .expect("level 0 present");
        for (rc, level, r) in &results {
            if rc != &c {
                continue;
            }
            println!(
                "{:>8} | {:>5} | {:>12} | {:>7.1}% | {:>11.3}x",
                c.label(),
                level,
                r.completion_time.0,
                r.os_overhead_fraction() * 100.0,
                r.completion_time.0 as f64 / base_ct as f64,
            );
        }
    }

    // The attribution report at the canonical level, 8 processors — the
    // same pairing the golden snapshot pins.
    let pick = |level: u32| {
        results
            .iter()
            .find(|(c, l, _)| *c == Configuration::P8 && *l == level)
            .map(|&(_, _, r)| r)
            .expect("P8 level present")
    };
    println!();
    println!("{}", cedar_report::tables::fault_report(pick(0), pick(1)));

    let dir = cedar_bench::manifest::artifact_dir(opts);
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("FAULTS_sensitivity.csv");
        std::fs::write(&path, csv(&results)).expect("write sensitivity CSV");
        println!("CSV written to {}", path.display());
    }
    if let Some(c) = &suite.telemetry.cache {
        println!("{}", cedar_report::tables::cache_line(c));
    }
}
