//! The three workloads: their inputs, their set-up, and one measured pass.
//!
//! Every workload is a closed batch: a pass starts when the previous one
//! has finished. The benchmark drives the program only through its
//! public functions — `cedar_core::pool`, `Machine::new`/`Machine::run`,
//! `CacheSession`, the methodology functions and the report renderers —
//! and times each call from here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use cedar_apps::AppSpec;
use cedar_core::cache::ExecOutcome;
use cedar_core::machine::Machine;
use cedar_core::methodology::{contention_overhead, parallel_loop_concurrency};
use cedar_core::pool;
use cedar_core::{
    AppResults, CacheMode, CacheSession, RunOptions, RunResult, SimConfig, SuiteResult,
    SuiteTelemetry,
};
use cedar_hw::Configuration;
use cedar_report::paper::{TABLE1, TABLE4_OV};
use cedar_report::{figures, paper, tables};
use cedar_sim::{SplitMix64, TieBreak};

use crate::counts::WorkCounts;
use crate::trace::Scope;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 25-run Perfect grid at full scale, rendered into every table
    /// and figure.
    PaperCampaign,
    /// ADM, MDG and OCEAN at 16 and 32 processors under seeded shuffled
    /// event tie-breaks.
    ReplicateSync,
    /// The 25-run grid replayed from a warm on-disk run cache.
    WarmReplay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCampaign,
        Workload::ReplicateSync,
        Workload::WarmReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "paper_campaign",
            Workload::ReplicateSync => "replicate_sync",
            Workload::WarmReplay => "warm_replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One experiment: an application on a configured machine.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload model.
    pub app: AppSpec,
    /// The machine it runs on.
    pub cfg: SimConfig,
}

/// The seed every paper-grid input derives from: the simulator's default
/// master seed offset by the workload seed, so `--seed 0` reproduces the
/// checked-in tables exactly.
pub fn master_seed(seed: u64) -> u64 {
    SimConfig::cedar(Configuration::P1).seed.wrapping_add(seed)
}

/// The 25-run Perfect grid (apps-major, `Configuration::ALL` order),
/// FIFO tie-break, master seed from `seed`.
pub fn paper_cells(seed: u64) -> Vec<Cell> {
    let master = master_seed(seed);
    cedar_apps::perfect_suite()
        .into_iter()
        .flat_map(|app| {
            Configuration::ALL.map(|c| Cell {
                app: app.clone(),
                cfg: SimConfig::cedar(c).with_seed(master),
            })
        })
        .collect()
}

/// The synchronization-heavy codes replicate_sync runs.
pub const SYNC_APPS: [&str; 3] = ["ADM", "MDG", "OCEAN"];
/// The multi-cluster configurations replicate_sync runs.
pub const SYNC_CONFIGS: [Configuration; 2] = [Configuration::P16, Configuration::P32];
/// Shuffled tie-break orders per replicate_sync pass (one campaign call
/// each).
pub const REPLICATES: usize = 10;

fn sync_app(name: &str) -> AppSpec {
    cedar_apps::app_by_name(name).expect("every SYNC_APPS name is a Perfect code")
}

/// The shuffle seeds of one replicate_sync pass, derived from `seed`.
pub fn shuffle_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..REPLICATES).map(|_| rng.next_u64()).collect()
}

/// One campaign call per shuffle seed: `SYNC_APPS` × `SYNC_CONFIGS`.
pub fn sync_calls(seed: u64) -> Vec<Vec<Cell>> {
    shuffle_seeds(seed)
        .into_iter()
        .map(|s| {
            SYNC_APPS
                .iter()
                .flat_map(|name| {
                    let app = sync_app(name);
                    SYNC_CONFIGS.map(|c| Cell {
                        app: app.clone(),
                        cfg: SimConfig::cedar(c).with_tiebreak(TieBreak::Shuffle(s)),
                    })
                })
                .collect()
        })
        .collect()
}

/// The 1-processor baselines the sync codes' speedups and contention
/// estimates are taken against. One cluster has no simultaneous events
/// whose order matters, so the FIFO run serves every shuffle seed.
pub fn sync_baselines() -> Vec<Cell> {
    SYNC_APPS
        .iter()
        .map(|name| Cell {
            app: sync_app(name),
            cfg: SimConfig::cedar(Configuration::P1),
        })
        .collect()
}

/// A simulated experiment with the host time of each call.
#[derive(Debug)]
pub struct Done {
    /// The program's result.
    pub result: RunResult,
    /// `Machine::new`, ns.
    pub new_ns: u64,
    /// `Machine::run`, ns.
    pub run_ns: u64,
    /// The whole pool job, ns.
    pub job_ns: u64,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Host time of one pool invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolTime {
    /// Summed job-body time, ns.
    pub busy_ns: u64,
    /// Worker threads × pool wall time, ns.
    pub thread_ns: u64,
    /// Worker threads used.
    pub workers: u64,
}

/// Runs `cells` on the worker pool, timing `Machine::new` and
/// `Machine::run` inside every job. A panicking experiment becomes an
/// `Err` for its cell only; the rest of the grid still runs.
pub fn simulate(
    cells: &[Cell],
    workers: usize,
    scope: Scope<'_>,
    parent: Option<u64>,
    first_op: u64,
) -> (Vec<Result<Done, String>>, PoolTime) {
    let call = scope.open();
    let jobs: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let op = first_op + i as u64;
            let job_parent = call.id();
            move || {
                let job = scope.open();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let t = scope.open();
                    let machine = Machine::new(&cell.app, cell.cfg.clone());
                    let new_ns = scope.close(t, "machine.new", op, job.id());
                    let t = scope.open();
                    let result = machine.run();
                    let run_ns = scope.close(t, "machine.run", op, job.id());
                    (result, new_ns, run_ns)
                }));
                let job_ns = scope.close(job, "pool.job", op, job_parent);
                out.map(|(result, new_ns, run_ns)| Done {
                    result,
                    new_ns,
                    run_ns,
                    job_ns,
                })
                .map_err(panic_message)
            }
        })
        .collect();
    let (outs, stats) =
        pool::run_jobs_timed(workers, jobs).expect("every job catches its own panic");
    scope.close(call, "pool.run", first_op, parent);
    let time = PoolTime {
        busy_ns: stats.busy_ns,
        thread_ns: stats.workers as u64 * stats.wall_ns,
        workers: stats.workers as u64,
    };
    (outs, time)
}

/// Groups grid-ordered runs (apps-major, five configurations each) into
/// the campaign result the renderers take.
pub fn suite_of(runs: Vec<RunResult>) -> SuiteResult {
    let per_app = Configuration::ALL.len();
    let mut apps: Vec<AppResults> = Vec::new();
    let mut it = runs.into_iter().peekable();
    while it.peek().is_some() {
        let runs: Vec<RunResult> = it.by_ref().take(per_app).collect();
        apps.push(AppResults {
            app: runs[0].app,
            runs,
        });
    }
    SuiteResult {
        apps,
        telemetry: SuiteTelemetry::default(),
    }
}

/// Every table and figure of the paper, plus the paper-vs-measured
/// comparisons, as one text.
pub fn render(suite: &SuiteResult) -> String {
    let renderers: [fn(&SuiteResult) -> String; 10] = [
        tables::table1,
        figures::figure3,
        tables::table2,
        figures::figures5to9,
        tables::table3,
        tables::table4,
        paper::speedup_comparison,
        paper::concurrency_comparison,
        paper::contention_comparison,
        paper::table3_comparison,
    ];
    renderers
        .iter()
        .map(|f| f(suite))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The simulator's error against the paper's published numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Mean absolute relative error of Table 1 speedups, %.
    pub speedup_err_pct: f64,
    /// Mean absolute error of Table 4 `Ov_cont` cells, percentage points.
    pub contention_err_pp: f64,
    /// Cells averaged over.
    pub cells: usize,
}

/// Table-column index of a multiprocessor configuration.
fn column(c: Configuration) -> Option<usize> {
    match c {
        Configuration::P1 => None,
        Configuration::P4 => Some(0),
        Configuration::P8 => Some(1),
        Configuration::P16 => Some(2),
        Configuration::P32 => Some(3),
    }
}

/// The methodology over `(baseline, run)` pairs: Table 3 concurrency of
/// every run, and the Table 1 speedup and Table 4 contention estimate of
/// every multiprocessor run, scored against the paper.
pub fn methodology<'a>(
    pairs: impl IntoIterator<Item = (&'a RunResult, &'a RunResult)>,
) -> Accuracy {
    let (mut speedup, mut contention, mut cells) = (0.0, 0.0, 0);
    for (base, run) in pairs {
        std::hint::black_box(parallel_loop_concurrency(run));
        let Some(i) = column(run.configuration) else {
            continue;
        };
        let t1 = TABLE1.iter().find(|p| p.app == run.app);
        let t4 = TABLE4_OV.iter().find(|(name, _)| *name == run.app);
        let (Some(t1), Some((_, ov))) = (t1, t4) else {
            continue;
        };
        let est = contention_overhead(base, run);
        speedup += (run.speedup_over(base) - t1.speedup[i]).abs() / t1.speedup[i] * 100.0;
        contention += (est.overhead_pct - ov[i]).abs();
        cells += 1;
    }
    let n = cells.max(1) as f64;
    Accuracy {
        speedup_err_pct: speedup / n,
        contention_err_pp: contention / n,
        cells,
    }
}

/// Each (1-processor baseline, run) pair of a paper-ordered grid.
fn grid_pairs(suite: &SuiteResult) -> impl Iterator<Item = (&RunResult, &RunResult)> {
    suite
        .apps
        .iter()
        .flat_map(|a| a.runs.iter().map(move |r| (a.baseline(), r)))
}

/// A scratch directory holding one warm run cache; deleted on drop.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    fn create(dir: PathBuf) -> std::io::Result<Store> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Store { dir })
    }

    fn options(&self, mode: CacheMode) -> RunOptions {
        RunOptions::default()
            .with_cache(mode)
            .with_output_dir(&self.dir)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A workload after set-up: everything a pass needs.
#[derive(Debug)]
pub enum Prepared {
    /// paper_campaign's grid.
    Paper {
        /// The 25 experiments.
        cells: Vec<Cell>,
    },
    /// replicate_sync's calls and their baselines.
    Sync {
        /// One cell list per shuffle seed.
        calls: Vec<Vec<Cell>>,
        /// The 1-processor baselines, in `SYNC_APPS` order.
        baselines: Vec<RunResult>,
    },
    /// warm_replay's grid and its filled store.
    Warm {
        /// The 25 experiments.
        cells: Vec<Cell>,
        /// The warm on-disk cache.
        store: Store,
        /// Fingerprints of the runs that filled it, in cell order.
        fill: Vec<u64>,
        /// What simulating those runs took.
        fill_rate: FillRate,
    },
}

/// The simulation warm_replay's set-up does: the cold fill of the grid.
/// It is the only simulation on that workload, so its `events_per_s`
/// and `ns_per_event` are taken from it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FillRate {
    /// Simulated events of the filled runs.
    pub events: u64,
    /// Host time of the fill on the pool, ns.
    pub wall_ns: u64,
    /// Summed event-loop and result-assembly host time the runs report
    /// (`RunStats::run_ns + breakdown_ns`, what `Machine::run` spans), ns.
    pub run_ns: u64,
}

/// Where the benchmark keeps what it writes: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Builds every machine once and drops it, so lazily built state is
/// paid for in set-up rather than in the first measured pass.
fn construct_all(cells: &[Cell]) {
    for cell in cells {
        drop(std::hint::black_box(Machine::new(
            &cell.app,
            cell.cfg.clone(),
        )));
    }
}

/// Sets a workload up once. `round` tells repeated set-ups apart.
pub fn prepare(
    workload: Workload,
    seed: u64,
    workers: usize,
    round: usize,
) -> Result<Prepared, String> {
    match workload {
        Workload::PaperCampaign => {
            let cells = paper_cells(seed);
            construct_all(&cells);
            Ok(Prepared::Paper { cells })
        }
        Workload::ReplicateSync => {
            let calls = sync_calls(seed);
            calls.iter().for_each(|c| construct_all(c));
            let (outs, _) = simulate(
                &sync_baselines(),
                workers,
                Scope::new(&Default::default(), 0, false),
                None,
                0,
            );
            let baselines = outs
                .into_iter()
                .map(|o| o.map(|d| d.result))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Prepared::Sync { calls, baselines })
        }
        Workload::WarmReplay => {
            let cells = paper_cells(seed);
            let dir = out_dir().join(format!("warm-{}-{round}", std::process::id()));
            let store = Store::create(dir).map_err(|e| format!("cache directory: {e}"))?;
            let session = CacheSession::new(&store.options(CacheMode::ReadWrite))
                .map_err(|e| e.to_string())?;
            let jobs: Vec<_> = cells
                .iter()
                .map(|cell| {
                    let session = &session;
                    move || session.execute(&cell.app, cell.cfg.clone())
                })
                .collect();
            let (runs, pool) = pool::run_jobs_timed(workers, jobs).map_err(|e| e.to_string())?;
            let fill = runs.iter().map(cedar_check::fingerprint).collect();
            let writes = session.stats().map_or(0, |s| s.writes);
            if writes != cells.len() as u64 {
                return Err(format!("cold fill wrote {writes} of {} runs", cells.len()));
            }
            let fill_rate = FillRate {
                events: runs.iter().map(|r| r.events).sum(),
                wall_ns: pool.wall_ns,
                run_ns: runs
                    .iter()
                    .map(|r| r.stats.run_ns + r.stats.breakdown_ns)
                    .sum(),
            };
            Ok(Prepared::Warm {
                cells,
                store,
                fill,
                fill_rate,
            })
        }
    }
}

/// What one pass measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time of the whole pass, ns.
    pub wall_ns: u64,
    /// Host time of each operation, ns.
    pub op_ns: Vec<u64>,
    /// Summed `Machine::new` time, ns.
    pub new_ns: u64,
    /// Summed `Machine::run` time (the event loop and result assembly), ns.
    pub run_ns: u64,
    /// Summed result-assembly time inside `Machine::run`, ns (as the
    /// program's own telemetry reports it).
    pub breakdown_ns: u64,
    /// Methodology calls, ns.
    pub methodology_ns: u64,
    /// Report rendering, ns.
    pub render_ns: u64,
    /// Each `CacheSession` call, ns.
    pub lookup_ns: Vec<u64>,
    /// Pool time, summed over the pass's pool invocations.
    pub pool: PoolTime,
    /// Simulated events the pass produced (none on a replay).
    pub events: u64,
    /// Cache hits and misses.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Bytes rendered and their hash.
    pub render_bytes: u64,
    /// FNV-1a of the rendered text.
    pub render_hash: u64,
    /// Accuracy against the paper, when every experiment completed.
    pub accuracy: Option<Accuracy>,
    /// Each experiment's result (or failure), in cell order.
    pub runs: Vec<Result<RunResult, String>>,
}

impl Pass {
    fn absorb(&mut self, outs: Vec<Result<Done, String>>, pool: PoolTime) {
        self.pool.busy_ns += pool.busy_ns;
        self.pool.thread_ns += pool.thread_ns;
        self.pool.workers = pool.workers;
        for out in outs {
            self.runs.push(out.map(|d| {
                self.op_ns.push(d.job_ns);
                self.new_ns += d.new_ns;
                self.run_ns += d.run_ns;
                self.breakdown_ns += d.result.stats.breakdown_ns;
                self.events += d.result.events;
                d.result
            }));
        }
    }

    fn render_suite(
        &mut self,
        suite: &SuiteResult,
        scope: Scope<'_>,
        op: u64,
        parent: Option<u64>,
    ) {
        let t = scope.open();
        self.accuracy = Some(methodology(grid_pairs(suite)));
        self.methodology_ns = scope.close(t, "methodology", op, parent);
        let t = scope.open();
        let text = render(suite);
        self.render_ns = scope.close(t, "report.render", op, parent);
        self.render_bytes = text.len() as u64;
        self.render_hash = cedar_obs::json::fnv1a(text.as_bytes());
    }
}

/// Runs one measured pass. `op` is the first free operation id; the pass
/// advances it past the ids it used.
pub fn run_pass(prep: &Prepared, workers: usize, scope: Scope<'_>, op: &mut u64) -> Pass {
    let mut pass = Pass::default();
    let root = scope.open();
    let pass_op = *op;
    match prep {
        Prepared::Paper { cells } => {
            let (outs, pool) = simulate(cells, workers, scope, root.id(), pass_op + 1);
            *op += 1 + cells.len() as u64;
            pass.absorb(outs, pool);
            if pass.runs.iter().all(|r| r.is_ok()) {
                let runs = pass.runs.drain(..).map(|r| r.expect("checked")).collect();
                let suite = suite_of(runs);
                pass.render_suite(&suite, scope, pass_op, root.id());
                pass.runs = suite
                    .apps
                    .into_iter()
                    .flat_map(|a| a.runs)
                    .map(Ok)
                    .collect();
            }
        }
        Prepared::Sync { calls, baselines } => {
            *op += 1;
            for cells in calls {
                let (outs, pool) = simulate(cells, workers, scope, root.id(), *op);
                *op += cells.len() as u64;
                pass.absorb(outs, pool);
            }
            let t = scope.open();
            let base = |r: &RunResult| {
                baselines
                    .iter()
                    .find(|b| b.app == r.app)
                    .expect("every sync code has a baseline")
            };
            let ok: Vec<&RunResult> = pass.runs.iter().filter_map(|r| r.as_ref().ok()).collect();
            if ok.len() == pass.runs.len() {
                pass.accuracy = Some(methodology(ok.iter().map(|&r| (base(r), r))));
            }
            pass.methodology_ns = scope.close(t, "methodology", pass_op, root.id());
        }
        Prepared::Warm { cells, store, .. } => {
            *op += 1;
            let t = scope.open();
            let session = CacheSession::new(&store.options(CacheMode::ReadOnly));
            pass.lookup_ns
                .push(scope.close(t, "cache.session", pass_op, root.id()));
            match session {
                Err(e) => pass.runs = cells.iter().map(|_| Err(e.to_string())).collect(),
                Ok(session) => {
                    let mut runs = Vec::with_capacity(cells.len());
                    for cell in cells {
                        let t = scope.open();
                        let (run, outcome) = session.execute_traced(&cell.app, cell.cfg.clone());
                        pass.lookup_ns
                            .push(scope.close(t, "cache.lookup", pass_op, root.id()));
                        if matches!(outcome, ExecOutcome::DiskHit | ExecOutcome::HotHit) {
                            pass.cache_hits += 1;
                        } else {
                            pass.cache_misses += 1;
                        }
                        runs.push(run);
                    }
                    let suite = suite_of(runs);
                    pass.render_suite(&suite, scope, pass_op, root.id());
                    pass.runs = suite
                        .apps
                        .into_iter()
                        .flat_map(|a| a.runs)
                        .map(Ok)
                        .collect();
                }
            }
        }
    }
    pass.wall_ns = scope.close(root, "pass", pass_op, None);
    if let Prepared::Warm { .. } = prep {
        pass.op_ns.push(pass.wall_ns);
    }
    pass
}

/// The deterministic work counts of a pass's completed experiments.
pub fn work_counts(pass: &Pass) -> WorkCounts {
    let mut c = WorkCounts::default();
    for r in pass.runs.iter().flatten() {
        c.add(r);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_shape_the_inputs_reproducibly() {
        assert_eq!(paper_cells(3).len(), 25);
        assert_eq!(
            paper_cells(0)[0].cfg.seed,
            SimConfig::cedar(Configuration::P1).seed
        );
        assert_eq!(paper_cells(5)[7].cfg.seed, paper_cells(5)[7].cfg.seed);
        assert_ne!(paper_cells(5)[0].cfg.seed, paper_cells(6)[0].cfg.seed);
        assert_eq!(shuffle_seeds(9), shuffle_seeds(9));
        assert_ne!(shuffle_seeds(9), shuffle_seeds(10));
        let calls = sync_calls(1);
        assert_eq!(calls.len(), REPLICATES);
        assert!(calls.iter().all(|c| c.len() == 6));
    }

    #[test]
    fn counts_and_fingerprints_repeat_across_passes_and_worker_counts() {
        let cells: Vec<Cell> = paper_cells(0)
            .into_iter()
            .map(|c| Cell {
                app: c.app.shrunk(64),
                cfg: c.cfg,
            })
            .collect();
        let prep = Prepared::Paper { cells };
        let tracer = crate::trace::Tracer::default();
        let mut op = 0;
        let mut seen = Vec::new();
        for (pass, workers) in [1, 2, 2].into_iter().enumerate() {
            let p = run_pass(
                &prep,
                workers,
                Scope::new(&tracer, pass as u32, pass == 0),
                &mut op,
            );
            let fps: Vec<u64> = p
                .runs
                .iter()
                .flatten()
                .map(cedar_check::fingerprint)
                .collect();
            assert_eq!(fps.len(), 25);
            seen.push((work_counts(&p), fps, p.render_hash));
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]));
        assert!(seen[0].0.get("events.total") > 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
