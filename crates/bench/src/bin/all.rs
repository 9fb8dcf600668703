//! Runs the full measurement campaign and regenerates every table and
//! figure of the paper, plus machine-readable CSVs and the run manifest
//! (`RUN_manifest.json`) under `BENCH_JSON_DIR`, by default the
//! workspace-root `results/`.
use std::fs;

fn main() {
    let opts = cedar_bench::run_options();
    let suite = cedar_bench::campaign();
    println!("{}", cedar_report::tables::table1(suite));
    println!("{}", cedar_report::figures::figure3(suite));
    println!("{}", cedar_report::tables::table2(suite));
    println!("{}", cedar_report::figures::figures5to9(suite));
    println!("{}", cedar_report::tables::table3(suite));
    println!("{}", cedar_report::tables::table4(suite));
    let dir = cedar_bench::manifest::artifact_dir(opts);
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(
            dir.join("summary.csv"),
            cedar_report::csv::summary_csv(suite),
        );
        let _ = fs::write(
            dir.join("breakdown.csv"),
            cedar_report::csv::breakdown_csv(suite),
        );
        let _ = fs::write(
            dir.join("concurrency.csv"),
            cedar_report::csv::concurrency_csv(suite),
        );
        println!("CSV output written to {}", dir.display());
    }
    if let Some(c) = &suite.telemetry.cache {
        println!("{}", cedar_report::tables::cache_line(c));
    }
    match cedar_bench::manifest::write(suite, opts) {
        Ok(path) => println!("run manifest written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write run manifest: {e}"),
    }
}
