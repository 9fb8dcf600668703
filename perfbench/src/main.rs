//! The repository benchmark: runs one named workload for a fixed time,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_campaign --seed 0 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! traced and untraced passes and reports the per-layer metrics, a layer
//! table, and the tracing overhead, and writes the spans to
//! `perfbench/out/`. The last line of standard output is one JSON object.
//! See `perfbench/README.md`.

mod checks;
mod counts;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use counts::WorkCounts;
use stats::{blocked_tail, median, Ratio};
use trace::{Scope, Tracer};
use workload::{FillRate, Pass, Prepared, Workload};

/// Set-up repeats at least this many times, and until it has taken
/// [`SETUP_MIN_SECONDS`] (at most [`SETUP_MAX_ROUNDS`] times); `setup_s`
/// is the median round. A set-up of a millisecond is thus timed hundreds
/// of times, one of seconds five times.
const SETUP_MIN_ROUNDS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_ROUNDS: usize = 500;

/// Spans of this many traced passes are written to the trace file.
const TRACE_FILE_PASSES: u32 = 100;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Extra context for the human-readable line (base, percentile, n).
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    assert!(stats::valid_name(name), "metric name {name:?}");
    Metric {
        name: name.to_string(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        note: note.into(),
    }
}

/// Peak resident set size from `/proc/self/status`, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn per_pass(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(|p| f(p)).collect()
}

fn spread_note(xs: &[f64]) -> String {
    match stats::quartiles(xs) {
        Some((q1, _, q3)) => format!(
            "median of {} passes, q1 {q1:.6} q3 {q3:.6} (IQR {:.1}% of median)",
            xs.len(),
            stats::iqr_share(xs).unwrap_or(0.0) * 100.0
        ),
        None => format!("median of {} pass", xs.len()),
    }
}

/// `events_per_s` and `ns_per_event`. A replay simulates nothing, so on
/// warm_replay both are taken from the simulation its set-up does (the
/// cold fills, one per set-up round); elsewhere from the measured passes.
fn simulation_rate(w: Workload, passes: &[&Pass], fills: &[FillRate]) -> [Metric; 2] {
    if w == Workload::WarmReplay {
        let per_fill = |f: fn(&FillRate) -> f64| median(&fills.iter().map(f).collect::<Vec<_>>());
        let events = fills.first().map_or(0, |f| f.events);
        return [
            metric(
                "events_per_s",
                "1/s",
                per_fill(|f| f.events as f64 / (f.wall_ns as f64 / 1e9)),
                format!(
                    "cold fill in set-up, median of {} fills of {events} events",
                    fills.len()
                ),
            ),
            metric(
                "ns_per_event",
                "ns",
                per_fill(|f| f.run_ns as f64 / f.events as f64),
                "cold fill in set-up, summed RunStats run + breakdown ns per event",
            ),
        ];
    }
    [
        metric(
            "events_per_s",
            "1/s",
            median(&per_pass(passes, |p| {
                p.events as f64 / (p.wall_ns as f64 / 1e9)
            })),
            format!("{} events per pass", passes[0].events),
        ),
        metric(
            "ns_per_event",
            "ns",
            median(&per_pass(passes, |p| p.run_ns as f64 / p.events as f64)),
            "summed Machine::run ns per event",
        ),
    ]
}

fn end_to_end(
    w: Workload,
    passes: &[&Pass],
    setup: &[f64],
    fills: &[FillRate],
    rss_mib: f64,
) -> Vec<Metric> {
    let walls = per_pass(passes, |p| p.wall_ns as f64 / 1e9);
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let (t, blocks) = blocked_tail(&ops, stats::TAIL_BLOCK).expect("every pass has operations");
    let acc = passes[0].accuracy.unwrap_or(workload::Accuracy {
        speedup_err_pct: 0.0,
        contention_err_pp: 0.0,
        cells: 0,
    });
    let [events_per_s, ns_per_event] = simulation_rate(w, passes, fills);
    vec![
        metric("wall_s", "s", median(&walls), spread_note(&walls)),
        events_per_s,
        ns_per_event,
        metric("op_p50_ms", "ms", median(&ops), format!("n={}", ops.len())),
        metric(
            "op_tail_ms",
            "ms",
            t.value,
            format!(
                "p{} with {} of n={} beyond, median over {blocks} block(s) of {} operations",
                t.pct,
                t.beyond,
                ops.len(),
                t.n
            ),
        ),
        metric(
            "peak_rss_mib",
            "MiB",
            rss_mib,
            "VmHWM after set-up and two passes",
        ),
        metric(
            "setup_s",
            "s",
            median(setup),
            format!("median of {} set-ups", setup.len()),
        ),
        metric(
            "speedup_err_pct",
            "%",
            acc.speedup_err_pct,
            format!("mean over {} Table 1 speedups", acc.cells),
        ),
        metric(
            "contention_err_pp",
            "pp",
            acc.contention_err_pp,
            format!("mean over {} Table 4 Ov_cont cells", acc.cells),
        ),
    ]
}

/// Span names, in the order the layer table lists them, with the layer
/// each belongs to.
const SPANS: [(&str, &str); 9] = [
    ("pass", "benchmark loop"),
    ("pool.run", "cedar-core pool"),
    ("pool.job", "cedar-core pool"),
    ("machine.new", "cedar-core machine"),
    ("machine.run", "cedar-core machine (+ sim, hw, rtl, xylem)"),
    ("methodology", "cedar-core methodology"),
    ("report.render", "cedar-report"),
    ("cache.session", "cedar-cache"),
    ("cache.lookup", "cedar-cache"),
];

fn per_layer(
    traced: &[&Pass],
    untraced: &[&Pass],
    counts: &WorkCounts,
    rows: &[trace::LayerRow],
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&per_pass(traced, f));
    let ms = |ns: u64| ns as f64 / 1e6;
    let busy = Ratio::new(
        traced.iter().map(|p| p.pool.busy_ns as f64).sum(),
        traced.iter().map(|p| p.pool.thread_ns as f64).sum(),
    );
    let mut m = vec![
        metric("pool.busy_frac", "ratio", busy.value(), format!("{busy}")),
        metric(
            "pool.tail_idle_ms",
            "ms",
            med(&|p| {
                ms(p.pool.thread_ns - p.pool.busy_ns.min(p.pool.thread_ns))
                    / p.pool.workers.max(1) as f64
            }),
            "per worker per pass",
        ),
        metric(
            "machine.setup_ms",
            "ms",
            med(&|p| ms(p.new_ns)),
            "Machine::new per pass",
        ),
        metric(
            "machine.run_ms",
            "ms",
            med(&|p| ms(p.run_ns)),
            "Machine::run per pass",
        ),
    ];
    for (name, v) in counts.iter().filter(|(n, _)| n.starts_with("events.")) {
        m.push(metric(name, "count", v as f64, "per pass"));
    }
    for (name, r) in counts.ratios() {
        let unit = "ratio";
        m.push(metric(&name, unit, r.value(), format!("{r}")));
    }
    m.push(metric(
        "methodology.ms",
        "ms",
        med(&|p| ms(p.methodology_ns)),
        "per pass",
    ));
    m.push(metric(
        "methodology.breakdown_ms",
        "ms",
        med(&|p| ms(p.breakdown_ns)),
        "result assembly inside Machine::run, per pass",
    ));
    for (name, v) in counts.iter().filter(|(n, _)| !n.starts_with("events.")) {
        let unit = if name.ends_with("_queued") {
            "cycles"
        } else {
            "count"
        };
        m.push(metric(name, unit, v as f64, "per pass"));
    }
    let lookups: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.lookup_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    m.push(metric(
        "cache.lookup_us",
        "us",
        median(&lookups),
        format!("median of {} CacheSession calls", lookups.len()),
    ));
    m.push(metric(
        "cache.hits",
        "count",
        med(&|p| p.cache_hits as f64),
        "per pass",
    ));
    m.push(metric(
        "cache.misses",
        "count",
        med(&|p| p.cache_misses as f64),
        "per pass",
    ));
    m.push(metric(
        "report.render_ms",
        "ms",
        med(&|p| ms(p.render_ns)),
        "per pass",
    ));
    m.push(metric(
        "report.bytes",
        "count",
        med(&|p| p.render_bytes as f64),
        "per pass",
    ));
    for (span, _) in SPANS {
        let row = rows.iter().find(|r| r.name == span);
        m.push(metric(
            &format!("self.{span}_ms"),
            "ms",
            row.map_or(0.0, |r| r.self_ms),
            "median self time per traced pass",
        ));
    }
    // Each traced pass against the untraced pass right after it, so slow
    // drift in host speed cancels out of the comparison.
    let pairs: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| (t.wall_ns as f64 - u.wall_ns as f64) / u.wall_ns as f64 * 100.0)
        .collect();
    m.push(metric(
        "trace.overhead_pct",
        "%",
        median(&pairs),
        format!("median over {} traced/untraced pass pairs", pairs.len()),
    ));
    m
}

fn print_block(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<28} {:>18.6} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn print_counts(counts: &WorkCounts) {
    println!(
        "deterministic work per pass (simulated; identical on every pass, host and worker count):"
    );
    for (name, v) in counts.iter() {
        println!("  {name:<28} {v:>18}");
    }
    for (name, r) in counts.ratios() {
        println!("  {name:<28} {r}");
    }
}

fn print_layer_table(rows: &[trace::LayerRow]) {
    println!("layer table (host time, median per traced pass; self = span minus its children):");
    println!(
        "  {:<15} {:<44} {:>12} {:>12} {:>8}",
        "span", "layer", "self ms", "total ms", "count"
    );
    for (span, layer) in SPANS {
        if let Some(r) = rows.iter().find(|r| r.name == span) {
            println!(
                "  {:<15} {:<44} {:>12.3} {:>12.3} {:>8}",
                span, layer, r.self_ms, r.total_ms, r.count
            );
        }
    }
    println!("  cedar-sim, cedar-hw, cedar-rtl and cedar-xylem run inside machine.run; their work counts are above.");
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = cedar_obs::json::Obj::new();
    for m in metrics {
        let mut v = cedar_obs::json::Obj::new();
        v.raw("value", format!("{}", m.value)).str("unit", m.unit);
        body.raw(&m.name, v.finish());
    }
    let mut o = cedar_obs::json::Obj::new();
    o.bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", body.finish());
    o.finish()
}

/// Prints the pin file for the paper grid at `--seed 0`.
fn pin() -> Result<(), String> {
    let cells = workload::paper_cells(0);
    let tracer = Tracer::default();
    let (outs, _) = workload::simulate(
        &cells,
        cedar_core::pool::default_workers(),
        Scope::new(&tracer, 0, false),
        None,
        0,
    );
    println!(
        "# Measurement fingerprints (cedar_check::fingerprint) of the paper grid at --seed 0."
    );
    println!(
        "# Regenerate after an intended model change (see README.md): --pin > fingerprints.txt"
    );
    for out in outs {
        println!("{}", checks::pin_line(&out?.result));
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let workers = cedar_core::pool::default_workers();
    let (mut setup, mut fills) = (Vec::new(), Vec::new());
    let mut prepared = None;
    while setup.len() < SETUP_MIN_ROUNDS
        || (setup.iter().sum::<f64>() < SETUP_MIN_SECONDS && setup.len() < SETUP_MAX_ROUNDS)
    {
        // Drop the previous round's state first, so rounds do not overlap.
        drop(prepared.take());
        let t = Instant::now();
        let p = workload::prepare(w, args.seed, workers, setup.len())?;
        setup.push(t.elapsed().as_secs_f64());
        if let Prepared::Warm { fill_rate, .. } = &p {
            fills.push(*fill_rate);
        }
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up round");
    let cells: Vec<&workload::Cell> = match &prepared {
        Prepared::Paper { cells } | Prepared::Warm { cells, .. } => cells.iter().collect(),
        Prepared::Sync { calls, .. } => calls.iter().flatten().collect(),
    };
    let mut reference = match &prepared {
        _ if args.seed == 0 && w != Workload::ReplicateSync => {
            checks::Reference::pinned(checks::pinned())
        }
        Prepared::Warm { fill, .. } => checks::Reference::pinned(fill.clone()),
        _ => checks::Reference::default(),
    };
    let ops_per_pass: u64 = if w == Workload::WarmReplay {
        1
    } else {
        cells.len() as u64
    };

    let tracer = Tracer::default();
    // Every pass with whether it was traced.
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let (mut first_counts, mut rss_mib) = (None, 0.0);
    let mut op = 0u64;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut k = 0u32;
    while k < 2 || start.elapsed() < budget {
        let record = args.trace && k.is_multiple_of(2);
        let mut pass = workload::run_pass(
            &prepared,
            workers,
            Scope::new(&tracer, k, record),
            &mut op,
        );
        let counts = workload::work_counts(&pass);
        let bad = reference.check(&cells, &pass, &counts);
        attempted += ops_per_pass;
        failed += (bad.len() as u64).min(ops_per_pass);
        failures.extend(bad.into_iter().take(3));
        first_counts.get_or_insert(counts);
        if k == 1 {
            rss_mib = peak_rss_mib();
        }
        // Results are checked; only the timings are kept.
        pass.runs = Vec::new();
        passes.push((record, pass));
        k += 1;
    }

    println!(
        "workload {} seed {} workers {} passes {} operations {} ({} per pass) trace {}",
        w.name(),
        args.seed,
        workers,
        passes.len(),
        attempted,
        ops_per_pass,
        u8::from(args.trace)
    );
    let counts = first_counts.expect("at least two passes");
    let pick = |traced: bool| -> Vec<&Pass> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p)
            .collect()
    };
    let metrics = if args.trace {
        let spans = tracer.into_spans();
        let rows = trace::layer_table(&spans);
        let m = per_layer(&pick(true), &pick(false), &counts, &rows);
        print_block("per-layer metrics (host time from traced passes):", &m);
        print_layer_table(&rows);
        let path = workload::out_dir().join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        let doc = trace::to_json(w.name(), args.seed, &spans, TRACE_FILE_PASSES);
        match std::fs::create_dir_all(workload::out_dir()).and_then(|_| std::fs::write(&path, doc))
        {
            Ok(()) => println!(
                "spans of the first {TRACE_FILE_PASSES} passes written to {}",
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        m
    } else {
        let m = end_to_end(w, &pick(false), &setup, &fills, rss_mib);
        print_block("end-to-end metrics (host time unless marked):", &m);
        m
    };
    print_counts(&counts);
    println!(
        "checks: {} of {attempted} operations failed (fail_frac {:.6})",
        failed,
        failed as f64 / attempted as f64
    );
    for f in &failures {
        println!("  failure: {f}");
    }
    drop(prepared);
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper_campaign|replicate_sync|warm_replay> --seed <n> --seconds <s> --trace <0|1> | --pin");
            ExitCode::from(2)
        }
        Ok(None) => match pin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Some(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_obs::json::{parse, JsonValue};

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(JsonValue::Arr(items)) = doc.get(key) else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn sample_pass() -> Pass {
        Pass {
            wall_ns: 2_000,
            op_ns: vec![1_000, 1_500],
            events: 10,
            ..Pass::default()
        }
    }

    fn sample_fill() -> FillRate {
        FillRate {
            events: 1_000,
            wall_ns: 4_000,
            run_ns: 6_000,
        }
    }

    #[test]
    fn a_replay_takes_its_simulation_rate_from_the_cold_fill() {
        let pass = sample_pass();
        let value = |w, name: &str| {
            let m = simulation_rate(w, &[&pass], &[sample_fill()]);
            m.iter().find(|m| m.name == name).expect(name).value
        };
        // 10 events in 2 µs of pass; 1000 events in 4 µs of fill.
        assert_eq!(value(Workload::PaperCampaign, "events_per_s"), 5e6);
        assert_eq!(value(Workload::WarmReplay, "events_per_s"), 2.5e8);
        assert_eq!(value(Workload::WarmReplay, "ns_per_event"), 6.0);
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        let pass = sample_pass();
        for w in Workload::ALL {
            let e2e = end_to_end(w, &[&pass], &[0.5], &[sample_fill()], 1.0);
            assert_eq!(emitted(&e2e), declared("end_to_end"), "{}", w.name());
        }

        let app = cedar_apps::synthetic::uniform_xdoall(1, 2, 8, 150, 4);
        let run = cedar_core::Experiment::new(
            app,
            cedar_core::SimConfig::cedar(cedar_hw::Configuration::P4),
        )
        .run();
        let mut counts = WorkCounts::default();
        counts.add(&run);
        let layers = per_layer(&[&pass], &[&pass], &counts, &[]);
        assert_eq!(emitted(&layers), declared("per_layer"));
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let pass = sample_pass();
        let line = json_line(
            true,
            2,
            0,
            &end_to_end(Workload::WarmReplay, &[&pass], &[0.5], &[sample_fill()], 1.0),
        );
        let v = parse(&line).expect("result line parses");
        let JsonValue::Obj(fields) = &v else {
            panic!("an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(JsonValue::as_f64), Some(2e-6));
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload warm_replay --seed 3 --seconds 5 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::WarmReplay, 3, 5, true)
        );
        assert!(args("--pin").unwrap().is_none());
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload warm_replay --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload warm_replay --seconds 1 --trace 0").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
