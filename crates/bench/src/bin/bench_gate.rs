//! CI benchmark gate: `bench_gate <fresh.json> <baseline.json>`.
//!
//! Compares a fresh `results/BENCH_scheduler.json` against the committed
//! `results/bench_baseline.json` (see [`cedar_bench::gate`]), prints the
//! worker-pool width each was measured with, and exits non-zero on a
//! suite or fault-path runtime regression.
//! Driven by `scripts/bench_check.sh`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (fresh_path, base_path) = match (args.next(), args.next()) {
        (Some(f), Some(b)) => (f, b),
        _ => {
            eprintln!("usage: bench_gate <fresh.json> <baseline.json>");
            return ExitCode::from(2);
        }
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    match cedar_bench::gate::check(&read(&fresh_path), &read(&base_path)) {
        Ok(report) => {
            print!("{report}");
            println!("bench gate: OK");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprint!("{report}");
            ExitCode::FAILURE
        }
    }
}
