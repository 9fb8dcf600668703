//! A `std::thread` worker pool for fanning experiment grids across
//! cores.
//!
//! The measurement campaign is an embarrassingly parallel grid of
//! independent `(application, configuration)` simulations. The pool runs
//! an arbitrary job list on a bounded number of OS threads (instead of
//! one thread per job), returns results **in job-submission order**
//! regardless of completion order, and converts a panicking job into an
//! error for the caller instead of poisoning or hanging the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A job panicked while running on the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the failed job in the submitted job list.
    pub job: usize,
    /// The panic payload, when it was a string.
    pub(crate) message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for PoolError {}

/// The number of workers to use when the caller does not specify one:
/// the machine's available parallelism. Configuration by environment
/// (`CEDAR_WORKERS`) is the business of `cedar_obs::RunOptions::from_env`,
/// whose `workers` field callers pass down explicitly.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Self-telemetry of one pool invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned (after clamping to the job count).
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Summed wall-clock of job bodies across all workers, in
    /// nanoseconds.
    pub busy_ns: u64,
    /// Wall-clock of the whole pool invocation, in nanoseconds.
    pub wall_ns: u64,
}

impl PoolStats {
    /// Total worker idle time: thread-seconds allocated minus
    /// thread-seconds spent in job bodies. High idle on a balanced grid
    /// means the tail jobs serialized the pool.
    pub fn idle_ns(&self) -> u64 {
        (self.workers as u64 * self.wall_ns).saturating_sub(self.busy_ns)
    }

    /// Fraction of allocated thread time spent in job bodies (1.0 =
    /// perfectly packed).
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.wall_ns == 0 {
            return 1.0;
        }
        self.busy_ns as f64 / (self.workers as u64 * self.wall_ns) as f64
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `jobs` on `workers` OS threads and returns their outputs in
/// submission order.
///
/// Work is distributed dynamically (an atomic next-job cursor), so an
/// expensive job does not serialize the rest of the grid behind it. If
/// any job panics, the remaining jobs still run to completion and the
/// first failure (by job index) is returned as `Err`.
pub fn run_jobs<T, F>(workers: usize, jobs: Vec<F>) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_jobs_timed(workers, jobs).map(|(out, _)| out)
}

/// [`run_jobs`], additionally reporting the pool's own telemetry
/// (worker count, busy vs. wall time) so suite runners can roll worker
/// idle time into the run manifest.
pub fn run_jobs_timed<T, F>(workers: usize, jobs: Vec<F>) -> Result<(Vec<T>, PoolStats), PoolError>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Ok((Vec::new(), PoolStats::default()));
    }
    let workers = workers.clamp(1, n);
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let outputs: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let busy_ns = std::sync::atomic::AtomicU64::new(0);
    let wall = std::time::Instant::now();

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot lock")
                    .take()
                    .expect("each job is taken exactly once");
                let t = std::time::Instant::now();
                let out = catch_unwind(AssertUnwindSafe(job)).map_err(panic_message);
                busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                *outputs[i].lock().expect("output slot lock") = Some(out);
            });
        }
    });

    let stats = PoolStats {
        workers,
        jobs: n,
        busy_ns: busy_ns.into_inner(),
        wall_ns: wall.elapsed().as_nanos() as u64,
    };

    let mut results = Vec::with_capacity(n);
    for (i, slot) in outputs.into_iter().enumerate() {
        match slot.into_inner().expect("output slot lock") {
            Some(Ok(v)) => results.push(v),
            Some(Err(message)) => return Err(PoolError { job: i, message }),
            None => unreachable!("every job index below the cursor is executed"),
        }
    }
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Make late-submitted jobs finish first to exercise the ordering.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    if i % 2 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(32 - i));
                    }
                    i * i
                }
            })
            .collect();
        let out = run_jobs(4, jobs).unwrap();
        assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        for workers in [1, 2, 3, 8, 64] {
            let jobs: Vec<_> = (0..10u64).map(|i| move || i + 1).collect();
            assert_eq!(
                run_jobs(workers, jobs).unwrap(),
                (1..=10).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u64> = run_jobs(8, Vec::<fn() -> u64>::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_job_surfaces_as_error_not_hang() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("experiment exploded")),
            Box::new(|| 3),
        ];
        let err = run_jobs(2, jobs).unwrap_err();
        assert_eq!(err.job, 1);
        assert!(
            err.message.contains("experiment exploded"),
            "{}",
            err.message
        );
    }

    #[test]
    fn first_failing_job_index_is_reported() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| 0),
            Box::new(|| panic!("first")),
            Box::new(|| panic!("second")),
        ];
        let err = run_jobs(1, jobs).unwrap_err();
        assert_eq!(err.job, 1);
        assert!(err.message.contains("first"));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn timed_variant_reports_pool_stats() {
        let jobs: Vec<_> = (0..6u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    i
                }
            })
            .collect();
        let (out, stats) = run_jobs_timed(3, jobs).unwrap();
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.jobs, 6);
        assert!(stats.busy_ns > 0);
        assert!(stats.wall_ns > 0);
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
        assert_eq!(
            stats.idle_ns(),
            (stats.workers as u64 * stats.wall_ns).saturating_sub(stats.busy_ns)
        );
    }
}
