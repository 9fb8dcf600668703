//! The stable line-record encoding of one run: [`RunResult::encode`]
//! and [`RunResult::decode`].
//!
//! The run cache stores these payloads and `cedar_check`'s fingerprint
//! hashes them, so the encoding is the run's one persistent form. The
//! cedarhpm trace is deliberately absent — trace-keeping runs bypass
//! the cache (they are debugging runs, and the trace dwarfs the
//! measurements) — so a decoded run carries `trace: None`.
//!
//! ## Format
//!
//! One field per line, `name value…`, fixed order, `\n` separators:
//! integers in decimal, floats as 16-hex-digit IEEE-754 bit patterns
//! (bit-exact round trip), counter names as their literal text (they
//! never contain whitespace). Arrays carry an explicit leading count so
//! truncation is always detectable. The encoding is deterministic —
//! identical measurements always produce identical bytes — which is
//! what lets the store checksum entries and the CI soundness gate diff
//! warm-vs-cold artifacts byte for byte.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use cedar_hw::gmem::GmemStats;
use cedar_hw::{ClusterId, Configuration};
use cedar_obs::{Counters, RunStats};
use cedar_sim::stats::{DurationAccum, LatencyHistogram};
use cedar_sim::Cycles;
use cedar_trace::qmon::ClusterUtilization;
use cedar_trace::{TaskBreakdown, UserBucket};
use cedar_xylem::{OsAccounting, OsActivity};

use crate::result::RunResult;

/// Why a payload failed to decode. The run cache maps every variant to
/// a miss; the variant only exists so tests can assert *which* defense
/// caught a corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A required line was absent or named the wrong field.
    MissingField(&'static str),
    /// A value failed to parse as its declared type.
    BadValue(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::MissingField(name) => write!(f, "missing field `{name}`"),
            DecodeError::BadValue(name) => write!(f, "unparseable value for `{name}`"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Interns `s`, returning a `&'static str` with the same contents.
///
/// Decoded payloads carry owned text, but `RunResult::app` and the
/// `cedar_obs::Counters` names are `&'static str`. The table leaks each
/// *distinct* string once; the universe is the app names and counter
/// names the simulator emits, so the leak is bounded and tiny.
fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = table.lock().expect("intern table lock");
    match set.get(s) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

fn config_name(c: Configuration) -> &'static str {
    match c {
        Configuration::P1 => "P1",
        Configuration::P4 => "P4",
        Configuration::P8 => "P8",
        Configuration::P16 => "P16",
        Configuration::P32 => "P32",
    }
}

fn config_from_name(s: &str) -> Option<Configuration> {
    Some(match s {
        "P1" => Configuration::P1,
        "P4" => Configuration::P4,
        "P8" => Configuration::P8,
        "P16" => Configuration::P16,
        "P32" => Configuration::P32,
        _ => return None,
    })
}

/// Field-at-a-time reader over the line records.
struct Reader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Reader<'a> {
    fn new(payload: &'a str) -> Self {
        Reader {
            lines: payload.lines(),
        }
    }

    /// The rest-of-line value of the next line, which must be field
    /// `name`.
    fn field(&mut self, name: &'static str) -> Result<&'a str, DecodeError> {
        let line = self.lines.next().ok_or(DecodeError::MissingField(name))?;
        let rest = line
            .strip_prefix(name)
            .ok_or(DecodeError::MissingField(name))?;
        rest.strip_prefix(' ').ok_or(DecodeError::BadValue(name))
    }

    fn u64(&mut self, name: &'static str) -> Result<u64, DecodeError> {
        self.field(name)?
            .parse()
            .map_err(|_| DecodeError::BadValue(name))
    }

    fn u64_pair(&mut self, name: &'static str) -> Result<(u64, u64), DecodeError> {
        let raw = self.field(name)?;
        let (a, b) = raw.split_once(' ').ok_or(DecodeError::BadValue(name))?;
        Ok((
            a.parse().map_err(|_| DecodeError::BadValue(name))?,
            b.parse().map_err(|_| DecodeError::BadValue(name))?,
        ))
    }

    /// A whitespace-separated list of u64s with a leading count.
    fn u64_list(&mut self, name: &'static str) -> Result<Vec<u64>, DecodeError> {
        let raw = self.field(name)?;
        let mut it = raw.split_ascii_whitespace();
        let n: usize = it
            .next()
            .ok_or(DecodeError::BadValue(name))?
            .parse()
            .map_err(|_| DecodeError::BadValue(name))?;
        let vals: Vec<u64> = it
            .map(|v| v.parse().map_err(|_| DecodeError::BadValue(name)))
            .collect::<Result<_, _>>()?;
        if vals.len() != n {
            return Err(DecodeError::BadValue(name));
        }
        Ok(vals)
    }
}

fn push_u64_list(out: &mut String, name: &str, vals: impl ExactSizeIterator<Item = u64>) {
    let _ = write!(out, "{name} {}", vals.len());
    for v in vals {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

impl RunResult {
    /// Serializes the run's measurements to the stable line-record form
    /// (everything but the cedarhpm trace).
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(4096);
        let _ = writeln!(s, "app {}", self.app);
        let _ = writeln!(s, "configuration {}", config_name(self.configuration));
        let _ = writeln!(s, "completion_time {}", self.completion_time.0);
        let _ = writeln!(s, "background_stolen {}", self.background_stolen.0);
        let _ = writeln!(s, "bodies {}", self.bodies);
        let _ = writeln!(s, "faults {} {}", self.faults.0, self.faults.1);
        let _ = writeln!(s, "events {}", self.events);
        let _ = writeln!(s, "breakdowns {}", self.breakdowns.len());
        for b in &self.breakdowns {
            push_u64_list(
                &mut s,
                "breakdown",
                UserBucket::ALL.iter().map(|&u| b.get(u).0),
            );
        }
        let _ = writeln!(s, "utilization {}", self.utilization.len());
        for u in &self.utilization {
            let _ = writeln!(s, "util {} {} {}", u.system.0, u.interrupt.0, u.spin.0);
        }
        let _ = writeln!(s, "os_clusters {}", self.os.n_clusters());
        for k in 0..self.os.n_clusters() {
            let cluster = self.os.cluster(ClusterId(k));
            push_u64_list(
                &mut s,
                "os",
                OsActivity::ALL
                    .iter()
                    .flat_map(|&a| {
                        let acc = cluster.get(a);
                        [acc.total().0, acc.samples(), acc.max().0]
                    })
                    .collect::<Vec<_>>()
                    .into_iter(),
            );
        }
        push_u64_list(
            &mut s,
            "concurrency",
            self.concurrency.iter().map(|v| v.to_bits()),
        );
        let g = &self.gmem;
        let _ = writeln!(s, "gmem.packets {}", g.packets);
        let _ = writeln!(s, "gmem.cluster_path_queued {}", g.cluster_path_queued.0);
        let _ = writeln!(s, "gmem.fwd_queued {}", g.fwd_queued.0);
        let _ = writeln!(s, "gmem.rev_queued {}", g.rev_queued.0);
        let _ = writeln!(s, "gmem.module_queued {}", g.module_queued.0);
        push_u64_list(
            &mut s,
            "gmem.module_requests",
            g.module_requests.iter().copied(),
        );
        push_u64_list(
            &mut s,
            "gmem.module_sync_requests",
            g.module_sync_requests.iter().copied(),
        );
        push_u64_list(
            &mut s,
            "gmem.latency",
            (0..g.latency.num_buckets()).map(|i| g.latency.bucket(i)),
        );
        let _ = writeln!(s, "gmem.latency.overflow {}", g.latency.overflow());
        let _ = writeln!(s, "gmem.min_round_trip {}", g.min_round_trip.0);
        let _ = writeln!(s, "stats.setup_ns {}", self.stats.setup_ns);
        let _ = writeln!(s, "stats.run_ns {}", self.stats.run_ns);
        let _ = writeln!(s, "stats.breakdown_ns {}", self.stats.breakdown_ns);
        let _ = writeln!(s, "counters {}", self.stats.counters.len());
        for (name, value) in self.stats.counters.iter() {
            let _ = writeln!(s, "counter {name} {value}");
        }
        s
    }

    /// Parses a payload produced by [`encode`](Self::encode); the
    /// result has no trace. Every structural or numeric anomaly is an
    /// error, never a panic — the run cache turns errors into misses.
    pub fn decode(payload: &str) -> Result<RunResult, DecodeError> {
        // Every record line is newline-terminated; a payload cut mid-line
        // (even by one byte) must not decode.
        if !payload.ends_with('\n') {
            return Err(DecodeError::MissingField("terminator"));
        }
        let mut r = Reader::new(payload);
        let app = intern(r.field("app")?);
        let configuration = config_from_name(r.field("configuration")?)
            .ok_or(DecodeError::BadValue("configuration"))?;
        let completion_time = Cycles(r.u64("completion_time")?);
        let background_stolen = Cycles(r.u64("background_stolen")?);
        let bodies = r.u64("bodies")?;
        let faults = r.u64_pair("faults")?;
        let events = r.u64("events")?;

        let n_breakdowns = r.u64("breakdowns")? as usize;
        let mut breakdowns = Vec::with_capacity(n_breakdowns);
        for _ in 0..n_breakdowns {
            let vals = r.u64_list("breakdown")?;
            if vals.len() != UserBucket::ALL.len() {
                return Err(DecodeError::BadValue("breakdown"));
            }
            let mut b = TaskBreakdown::new();
            for (&bucket, &v) in UserBucket::ALL.iter().zip(&vals) {
                b.charge(bucket, Cycles(v));
            }
            breakdowns.push(b);
        }

        let n_util = r.u64("utilization")? as usize;
        let mut utilization = Vec::with_capacity(n_util);
        for _ in 0..n_util {
            let raw = r.field("util")?;
            let vals: Vec<u64> = raw
                .split_ascii_whitespace()
                .map(|v| v.parse().map_err(|_| DecodeError::BadValue("util")))
                .collect::<Result<_, _>>()?;
            if vals.len() != 3 {
                return Err(DecodeError::BadValue("util"));
            }
            utilization.push(ClusterUtilization {
                system: Cycles(vals[0]),
                interrupt: Cycles(vals[1]),
                spin: Cycles(vals[2]),
            });
        }

        let n_clusters = r.u64("os_clusters")?;
        if n_clusters > u8::MAX as u64 {
            return Err(DecodeError::BadValue("os_clusters"));
        }
        let mut os = OsAccounting::new(n_clusters as u8);
        for k in 0..n_clusters as u8 {
            let vals = r.u64_list("os")?;
            if vals.len() != OsActivity::ALL.len() * 3 {
                return Err(DecodeError::BadValue("os"));
            }
            for (i, &a) in OsActivity::ALL.iter().enumerate() {
                let accum = DurationAccum::from_parts(
                    Cycles(vals[3 * i]),
                    vals[3 * i + 1],
                    Cycles(vals[3 * i + 2]),
                );
                os.restore(ClusterId(k), a, accum);
            }
        }

        let concurrency = r
            .u64_list("concurrency")?
            .into_iter()
            .map(f64::from_bits)
            .collect();

        let packets = r.u64("gmem.packets")?;
        let cluster_path_queued = Cycles(r.u64("gmem.cluster_path_queued")?);
        let fwd_queued = Cycles(r.u64("gmem.fwd_queued")?);
        let rev_queued = Cycles(r.u64("gmem.rev_queued")?);
        let module_queued = Cycles(r.u64("gmem.module_queued")?);
        let module_requests = r.u64_list("gmem.module_requests")?;
        let module_sync_requests = r.u64_list("gmem.module_sync_requests")?;
        let latency_buckets = r.u64_list("gmem.latency")?;
        let latency_overflow = r.u64("gmem.latency.overflow")?;
        let min_round_trip = Cycles(r.u64("gmem.min_round_trip")?);
        let gmem = GmemStats {
            packets,
            cluster_path_queued,
            fwd_queued,
            rev_queued,
            module_queued,
            module_requests,
            module_sync_requests,
            latency: LatencyHistogram::from_parts(latency_buckets, latency_overflow),
            min_round_trip,
        };

        let setup_ns = r.u64("stats.setup_ns")?;
        let run_ns = r.u64("stats.run_ns")?;
        let breakdown_ns = r.u64("stats.breakdown_ns")?;
        let n_counters = r.u64("counters")? as usize;
        let mut counters = Counters::new();
        for _ in 0..n_counters {
            let raw = r.field("counter")?;
            let (name, value) = raw
                .rsplit_once(' ')
                .ok_or(DecodeError::BadValue("counter"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| DecodeError::BadValue("counter"))?;
            counters.add(intern(name), value);
        }
        if counters.len() != n_counters {
            return Err(DecodeError::BadValue("counters"));
        }
        // A well-formed payload is consumed exactly; leftovers mean a
        // count lied somewhere above.
        if r.lines.next().is_some() {
            return Err(DecodeError::BadValue("trailing data"));
        }

        Ok(RunResult {
            app,
            configuration,
            completion_time,
            breakdowns,
            utilization,
            os,
            concurrency,
            gmem,
            background_stolen,
            bodies,
            faults,
            events,
            trace: None,
            stats: RunStats {
                setup_ns,
                run_ns,
                breakdown_ns,
                counters,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built record exercising every field shape.
    fn sample() -> RunResult {
        let mut b = TaskBreakdown::new();
        b.charge(UserBucket::IterExec, Cycles(700));
        b.charge(UserBucket::BarrierWait, Cycles(200));
        let mut os = OsAccounting::new(2);
        os.charge(ClusterId(0), OsActivity::Cpi, Cycles(100));
        os.charge(ClusterId(0), OsActivity::Cpi, Cycles(40));
        os.charge(ClusterId(1), OsActivity::KernelSpin, Cycles(7));
        let mut latency = LatencyHistogram::new(4);
        latency.record(Cycles(3));
        latency.record(Cycles(1_000_000));
        let mut counters = Counters::new();
        counters.add("events.total", 42);
        counters.record_max("queue.pending.peak", 9);
        RunResult {
            app: "FLO52",
            configuration: Configuration::P16,
            completion_time: Cycles(123_456),
            breakdowns: vec![b, TaskBreakdown::new()],
            utilization: vec![
                ClusterUtilization {
                    system: Cycles(10),
                    interrupt: Cycles(20),
                    spin: Cycles(30),
                },
                ClusterUtilization::default(),
            ],
            os,
            concurrency: vec![3.25, 0.1],
            gmem: GmemStats {
                packets: 5,
                cluster_path_queued: Cycles(1),
                fwd_queued: Cycles(2),
                rev_queued: Cycles(3),
                module_queued: Cycles(4),
                module_requests: vec![1, 2, 3],
                module_sync_requests: vec![0, 0, 9],
                latency,
                min_round_trip: Cycles(44),
            },
            background_stolen: Cycles(0),
            bodies: 64,
            faults: (3, 8),
            events: 9_000,
            trace: None,
            stats: RunStats {
                setup_ns: 111,
                run_ns: 222,
                breakdown_ns: 333,
                counters,
            },
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let run = sample();
        let decoded = RunResult::decode(&run.encode()).expect("decode");
        // Byte-equality of the encoding is the strongest equality the
        // record supports (several field types lack PartialEq).
        assert_eq!(run.encode(), decoded.encode());
        assert_eq!(decoded.app, "FLO52");
        assert!(decoded.trace.is_none());
        assert_eq!(decoded.concurrency, vec![3.25, 0.1], "floats are bit-exact");
        assert_eq!(decoded.os.total(OsActivity::Cpi), Cycles(140));
        assert_eq!(
            decoded
                .os
                .cluster(ClusterId(0))
                .get(OsActivity::Cpi)
                .samples(),
            2,
            "sample counts survive the round trip"
        );
        assert_eq!(decoded.gmem.latency.overflow(), 1);
        assert_eq!(decoded.stats.counters.get("queue.pending.peak"), 9);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let full = sample().encode();
        for cut in [0, 1, full.len() / 3, full.len() / 2, full.len() - 1] {
            assert!(
                RunResult::decode(&full[..cut]).is_err(),
                "cut at {cut} must fail to decode"
            );
        }
    }

    #[test]
    fn wrong_counts_are_errors() {
        let full = sample().encode();
        let lied = full.replace("breakdowns 2", "breakdowns 3");
        assert!(RunResult::decode(&lied).is_err());
        let lied = full.replace("counters 2", "counters 1");
        // One counter line too many: the reader sees a stray line where
        // the next field should be; also an error.
        assert!(RunResult::decode(&lied).is_err());
    }

    #[test]
    fn garbage_values_are_errors() {
        let full = sample().encode();
        let bad = full.replace("completion_time 123456", "completion_time zebra");
        assert_eq!(
            RunResult::decode(&bad).unwrap_err(),
            DecodeError::BadValue("completion_time")
        );
        let bad = full.replace("configuration P16", "configuration P64");
        assert_eq!(
            RunResult::decode(&bad).unwrap_err(),
            DecodeError::BadValue("configuration")
        );
    }

    #[test]
    fn intern_dedups_and_is_stable() {
        let a = intern("events.total");
        let b = intern(&String::from("events.total"));
        assert_eq!(a, "events.total");
        assert!(
            std::ptr::eq(a, b),
            "same contents must intern to one allocation"
        );
        assert_ne!(intern("x"), intern("y"));
    }
}
