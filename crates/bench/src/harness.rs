//! A zero-dependency micro-benchmark harness.
//!
//! It runs the scheduler benchmark (`benches/scheduler.rs`), whose
//! entries `scripts/bench_check.sh` gates. Each benchmark runs 5 warmup
//! iterations followed by N timed iterations and reports
//! min/median/mean/stddev wall times. Results print as an aligned table
//! and are written as JSON to `results/BENCH_<suite>.json`. The JSON
//! also records the worker-pool width campaign benchmarks ran with
//! (`"workers"`), since a campaign's wall time scales with it.
//!
//! Iteration counts and the output directory come from a typed
//! [`RunOptions`] value (`Harness::with_options`); the plain
//! [`Harness::new`] uses the process-wide [`crate::run_options`], so the
//! environment knobs (`BENCH_SMOKE=1` — one timed iteration, no warmup;
//! `BENCH_ITERS=n` — timed iterations, default 30; `BENCH_JSON_DIR=dir`
//! — where the JSON lands) are parsed exactly once by
//! [`cedar_obs::RunOptions::from_env`].

use std::hint::black_box as hint_black_box;
use std::time::Instant;

use cedar_obs::json::{self, Obj};
use cedar_obs::RunOptions;

/// Untimed calls before a benchmark's timed iterations.
const WARMUP: u32 = 5;

/// An opaque value sink preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    hint_black_box(x)
}

/// Summary statistics of one benchmark, in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name.
    pub name: String,
    /// Timed iterations measured.
    pub iters: u32,
    /// Fastest iteration.
    pub(crate) min_ns: f64,
    /// Slowest iteration.
    pub(crate) max_ns: f64,
    /// Median iteration.
    pub(crate) median_ns: f64,
    /// Mean iteration.
    pub(crate) mean_ns: f64,
    /// Population standard deviation.
    pub(crate) stddev_ns: f64,
}

impl BenchStats {
    fn from_samples(name: &str, samples: &[f64]) -> BenchStats {
        assert!(!samples.is_empty(), "benchmark ran zero iterations");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        BenchStats {
            name: name.to_string(),
            iters: n as u32,
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
            median_ns: median,
            mean_ns: mean,
            stddev_ns: var.sqrt(),
        }
    }

    /// One JSON object, keys in stable order.
    fn to_json(&self) -> String {
        Obj::new()
            .str("name", &self.name)
            .u64("iters", self.iters as u64)
            .f64("min_ns", self.min_ns)
            .f64("max_ns", self.max_ns)
            .f64("median_ns", self.median_ns)
            .f64("mean_ns", self.mean_ns)
            .f64("stddev_ns", self.stddev_ns)
            .finish()
    }
}

/// A suite of benchmarks sharing warmup/iteration settings.
pub struct Harness {
    suite: String,
    warmup: u32,
    iters: u32,
    /// Pool width a campaign benchmark (`SuiteResult::measure`) runs with.
    workers: usize,
    out_dir: Option<std::path::PathBuf>,
    results: Vec<BenchStats>,
}

impl Harness {
    /// Creates a harness for `suite` under the process-wide
    /// [`crate::run_options`] (the `BENCH_*` environment, parsed once).
    pub fn new(suite: &str) -> Harness {
        Harness::with_options(suite, crate::run_options())
    }

    /// Creates a harness for `suite` with explicit, typed settings:
    /// `opts.smoke` forces one timed iteration with no warmup;
    /// otherwise 5 warmup iterations precede `opts.bench_iters` timed
    /// ones (default 30); `opts.output_dir` overrides where
    /// [`finish`](Self::finish) writes the JSON.
    pub(crate) fn with_options(suite: &str, opts: &RunOptions) -> Harness {
        let (warmup, iters) = if opts.smoke {
            (0, 1)
        } else {
            (WARMUP, opts.bench_iters.unwrap_or(30).max(1))
        };
        if opts.smoke {
            eprintln!("[{suite}] smoke mode — single iteration, timings not meaningful");
        }
        Harness {
            suite: suite.to_string(),
            warmup,
            iters,
            workers: opts
                .workers
                .unwrap_or_else(cedar_core::pool::default_workers),
            out_dir: opts.output_dir.clone(),
            results: Vec::new(),
        }
    }

    /// Runs one benchmark: `warmup` untimed calls, then `iters` timed
    /// calls of `f`, and records the statistics.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchStats {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        let stats = BenchStats::from_samples(name, &samples);
        eprintln!(
            "  {:<38} min {:>12} | median {:>12} | mean {:>12} ± {}",
            stats.name,
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.stddev_ns),
        );
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// The whole suite as a JSON document.
    pub fn to_json(&self) -> String {
        let mut doc = Obj::new()
            .str("suite", &self.suite)
            .u64("warmup", self.warmup as u64)
            .u64("iters", self.iters as u64)
            .u64("workers", self.workers as u64)
            .raw(
                "benchmarks",
                json::array(self.results.iter().map(BenchStats::to_json)),
            )
            .finish();
        doc.push('\n');
        doc
    }

    /// Writes `BENCH_<suite>.json` under the configured output
    /// directory (default: the workspace-root `results/`, regardless of
    /// the bench cwd) and returns the path written.
    pub fn finish(self) -> std::io::Result<std::path::PathBuf> {
        let dir = self.out_dir.clone().unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
        });
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())?;
        eprintln!("[{}] wrote {}", self.suite, path.display());
        Ok(path)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[f64]) -> BenchStats {
        BenchStats::from_samples("t", samples)
    }

    #[test]
    fn stats_on_known_samples() {
        let s = stats(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.min_ns, 10.0);
        assert_eq!(s.max_ns, 40.0);
        assert_eq!(s.median_ns, 25.0);
        assert_eq!(s.mean_ns, 25.0);
        assert!((s.stddev_ns - 125.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn odd_sample_count_median_is_middle_element() {
        assert_eq!(stats(&[5.0, 1.0, 3.0]).median_ns, 3.0);
    }

    #[test]
    fn harness_records_and_serializes() {
        let mut h = Harness {
            suite: "unit".into(),
            warmup: 0,
            iters: 3,
            workers: 2,
            out_dir: None,
            results: Vec::new(),
        };
        let mut calls = 0u32;
        h.bench("counting", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 3, "no warmup, three timed calls");
        let json = h.to_json();
        assert!(json.starts_with("{\"suite\":\"unit\""));
        assert!(json.contains("\"workers\":2,"));
        assert!(json.contains("\"name\":\"counting\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"stddev_ns\""));
        // The gate reads the document back with cedar_obs::json.
        let medians = crate::gate::medians(&json).expect("gate reads the harness JSON");
        assert_eq!(medians.keys().collect::<Vec<_>>(), ["counting"]);
    }

    #[test]
    fn bench_stats_are_ordered() {
        let mut h = Harness {
            suite: "unit".into(),
            warmup: 0,
            iters: 8,
            workers: 1,
            out_dir: None,
            results: Vec::new(),
        };
        let s = h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.max_ns);
        assert!(s.min_ns <= s.mean_ns && s.mean_ns <= s.max_ns);
        assert_eq!(s.iters, 8);
    }
}
