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
//! One field per line, `name value…`, fixed order, single spaces, `\n`
//! line ends: integers in decimal, floats as the decimal integer of
//! their IEEE-754 bit pattern (bit-exact round trip), counters in name
//! order as their literal names (they never contain whitespace). Arrays
//! carry an explicit leading count so truncation is always detectable.
//! The encoding is deterministic — identical measurements always
//! produce identical bytes — which is what lets the store checksum
//! entries and the CI soundness gate diff warm-vs-cold artifacts byte
//! for byte.
//!
//! ## Decoding
//!
//! A cache hit is decoded in one scan of the payload's bytes: a cursor
//! checks each `name␠` prefix and parses each decimal in place, straight
//! into the breakdowns, OS accumulators, gmem vectors and counters, with
//! no per-line allocation. Only the canonical encoding decodes — no
//! sign, no leading zero, no doubled space, no `\r`, counters in order —
//! so whatever decodes re-encodes to the same bytes. Names need no
//! interning: the application name must be the one the caller keyed the
//! entry with, and the decoded run carries the caller's `&'static str`;
//! each counter name resolves to its entry in a fixed table of every
//! name the machine emits (plus the four `outbox.*` counters older
//! entries carry), and an unknown name is a [`DecodeError`].

use std::fmt::Write as _;

use cedar_hw::gmem::GmemStats;
use cedar_hw::{ClusterId, Configuration};
use cedar_obs::json::canonical_u64;
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
    /// A value failed to parse as its declared type, or was not written
    /// the way [`RunResult::encode`] writes it.
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

/// Every counter name a payload can carry, in byte order, which is the
/// order `encode` lists them (`Counters` iterates sorted): the names
/// `Machine::telemetry_counters` emits, plus the four `outbox.*`
/// counters that entries written before the outbox was deleted carry.
/// A decoded counter's name is the entry of this table, so a name
/// outside it is a [`DecodeError`]: a counter the machine starts to
/// emit must be added here.
const COUNTER_NAMES: [&str; 49] = [
    "bodies",
    "events.ast",
    "events.background",
    "events.cbus_release",
    "events.ce_done",
    "events.ce_resume",
    "events.daemon",
    "events.fault",
    "events.gmem",
    "events.total",
    "faults.count.pgflt_conc",
    "faults.count.pgflt_seq",
    "faults.injected.ast",
    "faults.injected.cpi",
    "faults.injected.lock_cluster",
    "faults.injected.lock_global",
    "faults.injected.pgflt_conc",
    "faults.injected.pgflt_seq",
    "faults.injected.stall",
    "faults.occ.ast_burst",
    "faults.occ.helper_stall",
    "faults.occ.pgflt_wave",
    "faults.occ.storm",
    "faults.waiter_stalled",
    "outbox.buffered.peak",
    "outbox.emitted",
    "outbox.flushes",
    "outbox.grows",
    "queue.hold.p2_00",
    "queue.hold.p2_01",
    "queue.hold.p2_02",
    "queue.hold.p2_03",
    "queue.hold.p2_04",
    "queue.hold.p2_05",
    "queue.hold.p2_06",
    "queue.hold.p2_07",
    "queue.hold.p2_08",
    "queue.hold.p2_09",
    "queue.hold.p2_10",
    "queue.hold.p2_11",
    "queue.hold.p2_12",
    "queue.hold.p2_13",
    "queue.hold.p2_14",
    "queue.hold.p2_15",
    "queue.overflow_spills",
    "queue.pending.peak",
    "queue.popped",
    "queue.scheduled",
    "queue.wheel.peak",
];

fn config_name(c: Configuration) -> &'static str {
    match c {
        Configuration::P1 => "P1",
        Configuration::P4 => "P4",
        Configuration::P8 => "P8",
        Configuration::P16 => "P16",
        Configuration::P32 => "P32",
    }
}

/// A cursor over a payload's bytes. Each method consumes one token of
/// the canonical encoding, exactly as `encode` writes it, or fails
/// naming the field it was reading.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Consumes `name` and the space after it: the start of field
    /// `name`'s line.
    fn field(&mut self, name: &'static str) -> Result<(), DecodeError> {
        let rest = self
            .rest
            .strip_prefix(name.as_bytes())
            .ok_or(DecodeError::MissingField(name))?;
        self.rest = rest.strip_prefix(b" ").ok_or(DecodeError::BadValue(name))?;
        Ok(())
    }

    /// Consumes the byte `b`, which must come next in field `name`.
    fn byte(&mut self, b: u8, name: &'static str) -> Result<(), DecodeError> {
        match self.rest.split_first() {
            Some((&first, rest)) if first == b => {
                self.rest = rest;
                Ok(())
            }
            _ => Err(DecodeError::BadValue(name)),
        }
    }

    /// Consumes a canonical decimal value of field `name`.
    fn u64(&mut self, name: &'static str) -> Result<u64, DecodeError> {
        let (value, rest) = canonical_u64(self.rest).ok_or(DecodeError::BadValue(name))?;
        self.rest = rest;
        Ok(value)
    }

    /// Consumes a space and the value after it: the next item of a
    /// list.
    fn item(&mut self, name: &'static str) -> Result<u64, DecodeError> {
        self.byte(b' ', name)?;
        self.u64(name)
    }

    /// Consumes the bytes up to the next `\n` and the `\n` itself:
    /// the rest of field `name`'s line.
    fn text(&mut self, name: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self
            .rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(DecodeError::BadValue(name))?;
        let text = &self.rest[..end];
        self.rest = &self.rest[end + 1..];
        Ok(text)
    }

    /// A whole `name value` line.
    fn u64_line(&mut self, name: &'static str) -> Result<u64, DecodeError> {
        self.field(name)?;
        let value = self.u64(name)?;
        self.byte(b'\n', name)?;
        Ok(value)
    }

    /// Consumes `name n`, the start of a list line, returning `n`.
    fn list_len(&mut self, name: &'static str) -> Result<u64, DecodeError> {
        self.field(name)?;
        self.u64(name)
    }

    /// Consumes `name n`, which must say `n` items.
    fn list_of(&mut self, name: &'static str, n: usize) -> Result<(), DecodeError> {
        if self.list_len(name)? == n as u64 {
            Ok(())
        } else {
            Err(DecodeError::BadValue(name))
        }
    }

    /// A whole `name n v1 … vn` line, as a vector of the values mapped
    /// through `f`.
    fn list<T>(&mut self, name: &'static str, f: impl Fn(u64) -> T) -> Result<Vec<T>, DecodeError> {
        let n = self.list_len(name)?;
        let mut out = Vec::with_capacity(self.room(n, 2));
        for _ in 0..n {
            out.push(f(self.item(name)?));
        }
        self.byte(b'\n', name)?;
        Ok(out)
    }

    /// A capacity for `n` items of at least `min_bytes` bytes each that
    /// the rest of the payload could hold: a lying count then fails on
    /// the missing items instead of reserving memory for them.
    fn room(&self, n: u64, min_bytes: usize) -> usize {
        n.min((self.rest.len() / min_bytes) as u64) as usize
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

    /// Parses a payload produced by [`encode`](Self::encode) for the
    /// application named `app`, in one scan of its bytes; the result has
    /// no trace and its `app` is `app` itself.
    ///
    /// Only the canonical encoding decodes: every value must be written
    /// as `encode` writes it (no sign, no leading zero, single spaces,
    /// `\n` line ends, counters in sorted order under names the machine
    /// emits), so a payload that decodes re-encodes to the same bytes.
    /// Every structural or numeric anomaly, and a payload of another
    /// application, is an error, never a panic — the run cache turns
    /// errors into misses.
    pub fn decode(payload: &[u8], app: &'static str) -> Result<RunResult, DecodeError> {
        let mut r = Cursor { rest: payload };
        r.field("app")?;
        if r.text("app")? != app.as_bytes() {
            return Err(DecodeError::BadValue("app"));
        }
        r.field("configuration")?;
        let name = r.text("configuration")?;
        let configuration = Configuration::ALL
            .into_iter()
            .find(|&c| config_name(c).as_bytes() == name)
            .ok_or(DecodeError::BadValue("configuration"))?;
        let completion_time = Cycles(r.u64_line("completion_time")?);
        let background_stolen = Cycles(r.u64_line("background_stolen")?);
        let bodies = r.u64_line("bodies")?;
        r.field("faults")?;
        let faults = (r.u64("faults")?, r.item("faults")?);
        r.byte(b'\n', "faults")?;
        let events = r.u64_line("events")?;

        let n = r.u64_line("breakdowns")?;
        let mut breakdowns = Vec::with_capacity(r.room(n, 30));
        for _ in 0..n {
            r.list_of("breakdown", UserBucket::ALL.len())?;
            let mut b = TaskBreakdown::new();
            for bucket in UserBucket::ALL {
                b.charge(bucket, Cycles(r.item("breakdown")?));
            }
            r.byte(b'\n', "breakdown")?;
            breakdowns.push(b);
        }

        let n = r.u64_line("utilization")?;
        let mut utilization = Vec::with_capacity(r.room(n, 11));
        for _ in 0..n {
            r.field("util")?;
            utilization.push(ClusterUtilization {
                system: Cycles(r.u64("util")?),
                interrupt: Cycles(r.item("util")?),
                spin: Cycles(r.item("util")?),
            });
            r.byte(b'\n', "util")?;
        }

        let n_clusters = r.u64_line("os_clusters")?;
        let n_clusters =
            u8::try_from(n_clusters).map_err(|_| DecodeError::BadValue("os_clusters"))?;
        let mut os = OsAccounting::new(n_clusters);
        for k in 0..n_clusters {
            r.list_of("os", OsActivity::ALL.len() * 3)?;
            for a in OsActivity::ALL {
                let total = Cycles(r.item("os")?);
                let samples = r.item("os")?;
                let max = Cycles(r.item("os")?);
                os.restore(
                    ClusterId(k),
                    a,
                    DurationAccum::from_parts(total, samples, max),
                );
            }
            r.byte(b'\n', "os")?;
        }

        let concurrency = r.list("concurrency", f64::from_bits)?;
        let gmem = GmemStats {
            packets: r.u64_line("gmem.packets")?,
            cluster_path_queued: Cycles(r.u64_line("gmem.cluster_path_queued")?),
            fwd_queued: Cycles(r.u64_line("gmem.fwd_queued")?),
            rev_queued: Cycles(r.u64_line("gmem.rev_queued")?),
            module_queued: Cycles(r.u64_line("gmem.module_queued")?),
            module_requests: r.list("gmem.module_requests", |v| v)?,
            module_sync_requests: r.list("gmem.module_sync_requests", |v| v)?,
            latency: LatencyHistogram::from_parts(
                r.list("gmem.latency", |v| v)?,
                r.u64_line("gmem.latency.overflow")?,
            ),
            min_round_trip: Cycles(r.u64_line("gmem.min_round_trip")?),
        };

        let setup_ns = r.u64_line("stats.setup_ns")?;
        let run_ns = r.u64_line("stats.run_ns")?;
        let breakdown_ns = r.u64_line("stats.breakdown_ns")?;
        let n = r.u64_line("counters")?;
        // Both the payload and the table are in byte order, so one walk
        // down the table resolves every name, and a name that is unknown,
        // repeated or out of order runs off its end.
        let mut names = COUNTER_NAMES.iter();
        let mut pairs = Vec::with_capacity(r.room(n, 12));
        for _ in 0..n {
            r.field("counter")?;
            let raw = r.rest.split(|&b| b == b' ').next().unwrap_or_default();
            let name = names
                .find(|name| name.as_bytes() == raw)
                .ok_or(DecodeError::BadValue("counter"))?;
            r.rest = &r.rest[raw.len()..];
            pairs.push((*name, r.item("counter")?));
            r.byte(b'\n', "counter")?;
        }
        let counters: Counters = pairs.into_iter().collect();
        // A well-formed payload is consumed exactly; leftovers mean a
        // count lied somewhere above.
        if !r.rest.is_empty() {
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

    /// Payloads today's `encode` wrote: FLO52 at 1 processor, MDG at 8
    /// and ADM at 32 from the paper grid at `CEDAR_SHRINK=4`, and FLO52
    /// at 32 under one of `--bin faultsweep`'s fault plans at
    /// `CEDAR_SHRINK=16`, which carries every `faults.*` counter.
    const FIXTURES: [(&str, &[u8]); 4] = [
        (
            "FLO52",
            include_bytes!("../fixtures/records/flo52_p1.record"),
        ),
        ("MDG", include_bytes!("../fixtures/records/mdg_p8.record")),
        ("ADM", include_bytes!("../fixtures/records/adm_p32.record")),
        (
            "FLO52",
            include_bytes!("../fixtures/records/flo52_p32_faults.record"),
        ),
    ];

    #[test]
    fn round_trip_is_exact() {
        let run = sample();
        let decoded = RunResult::decode(run.encode().as_bytes(), "FLO52").expect("decode");
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
                RunResult::decode(&full.as_bytes()[..cut], "FLO52").is_err(),
                "cut at {cut} must fail to decode"
            );
        }
    }

    #[test]
    fn wrong_counts_are_errors() {
        let full = sample().encode();
        let lied = full.replace("breakdowns 2", "breakdowns 3");
        assert!(RunResult::decode(lied.as_bytes(), "FLO52").is_err());
        let lied = full.replace("counters 2", "counters 1");
        // One counter line too many: the reader sees a stray line where
        // the next field should be; also an error.
        assert!(RunResult::decode(lied.as_bytes(), "FLO52").is_err());
        let lied = full.replace("breakdowns 2", "breakdowns 18446744073709551615");
        assert!(
            RunResult::decode(lied.as_bytes(), "FLO52").is_err(),
            "a huge count fails on the missing lines, reserving nothing for them"
        );
    }

    #[test]
    fn garbage_values_are_errors() {
        let full = sample().encode();
        let bad = full.replace("completion_time 123456", "completion_time zebra");
        assert_eq!(
            RunResult::decode(bad.as_bytes(), "FLO52").unwrap_err(),
            DecodeError::BadValue("completion_time")
        );
        let bad = full.replace("configuration P16", "configuration P64");
        assert_eq!(
            RunResult::decode(bad.as_bytes(), "FLO52").unwrap_err(),
            DecodeError::BadValue("configuration")
        );
    }

    /// An entry is keyed by its application, so a payload naming another
    /// one is corrupt.
    #[test]
    fn another_applications_payload_is_an_error() {
        let full = sample().encode();
        for app in ["ADM", "FLO5", "FLO520", ""] {
            assert_eq!(
                RunResult::decode(full.as_bytes(), app).unwrap_err(),
                DecodeError::BadValue("app"),
                "{app:?}"
            );
        }
    }

    #[test]
    fn committed_payloads_decode_and_re_encode_byte_for_byte() {
        for (app, payload) in FIXTURES {
            let run = RunResult::decode(payload, app).unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(run.encode().as_bytes() == payload, "{app} re-encodes");
        }
        let faulted = RunResult::decode(FIXTURES[3].1, "FLO52").unwrap();
        let carried: Vec<&str> = faulted.stats.counters.iter().map(|(n, _)| n).collect();
        for name in COUNTER_NAMES.iter().filter(|n| n.starts_with("faults.")) {
            assert!(carried.contains(name), "the faulted fixture carries {name}");
        }
    }

    /// Every payload `payload` becomes under one edit `encode` never
    /// makes: each truncation at a line boundary; on each line a
    /// trailing space, a CRLF end and each space doubled; on each number
    /// a leading zero and a `+`; each counter renamed to a name no
    /// machine emits or swapped with the next; and the final newline
    /// dropped.
    fn mutations(payload: &str) -> Vec<String> {
        let lines: Vec<&str> = payload.split_inclusive('\n').collect();
        let with_line =
            |i: usize, line: String| lines[..i].concat() + &line + &lines[i + 1..].concat();
        let mut out = vec![payload[..payload.len() - 1].to_string()];
        for (i, full_line) in lines.iter().enumerate() {
            out.push(lines[..i].concat());
            let line = &full_line[..full_line.len() - 1];
            out.push(with_line(i, format!("{line} \n")));
            out.push(with_line(i, format!("{line}\r\n")));
            let tokens: Vec<&str> = line.split(' ').collect();
            for k in 1..tokens.len() {
                let edit = |token: String| {
                    let mut t = tokens.clone();
                    t[k] = &token;
                    with_line(i, t.join(" ") + "\n")
                };
                out.push(edit(format!(" {}", tokens[k])));
                if tokens[k].bytes().all(|b| b.is_ascii_digit()) {
                    out.push(edit(format!("0{}", tokens[k])));
                    out.push(edit(format!("+{}", tokens[k])));
                }
            }
            if tokens[0] == "counter" {
                out.push(with_line(
                    i,
                    format!("counter {}x {}\n", tokens[1], tokens[2]),
                ));
                if let Some(next) = lines.get(i + 1) {
                    out.push(lines[..i].concat() + next + full_line + &lines[i + 2..].concat());
                }
            }
        }
        out
    }

    /// The decoder accepts only what `encode` writes: no mutation of a
    /// real payload decodes to a record that encodes to other bytes.
    #[test]
    fn decode_accepts_only_what_encode_writes() {
        let mut tried = 0;
        for (app, payload) in FIXTURES {
            let text = std::str::from_utf8(payload).expect("fixtures are ASCII");
            for mutated in mutations(text) {
                assert_ne!(mutated, text);
                if let Ok(run) = RunResult::decode(mutated.as_bytes(), app) {
                    assert_eq!(run.encode(), mutated, "{app}: a mutation decoded");
                }
                tried += 1;
            }
        }
        assert!(tried > 4000, "{tried} mutations");
    }

    /// Every name the machine can put in its counter rollup resolves:
    /// each event class, hold-histogram bucket and fault kind, and each
    /// name a faulted run emits.
    #[test]
    fn every_counter_the_machine_emits_resolves() {
        assert!(
            COUNTER_NAMES.windows(2).all(|w| w[0] < w[1]),
            "the table is in strict byte order, as Counters iterates"
        );
        let app = cedar_apps::perfect_suite()
            .into_iter()
            .find(|a| a.name == "FLO52")
            .expect("FLO52 is in the suite")
            .shrunk(64);
        let cfg = crate::config::SimConfig::cedar(Configuration::P8)
            .with_faults(cedar_faults::FaultPlan::canonical_at(2));
        let run = crate::run::execute(&app, cfg);
        let emitted: Vec<&str> = run.stats.counters.iter().map(|(n, _)| n).collect();
        let kinds = cedar_faults::FaultKind::ALL.map(cedar_faults::FaultKind::counter_name);
        for name in emitted
            .iter()
            .chain(&crate::events::EV_CLASS_NAMES)
            .chain(&crate::machine::HOLD_NAMES)
            .chain(&kinds)
        {
            assert!(
                COUNTER_NAMES.contains(name),
                "{name} is not in COUNTER_NAMES"
            );
        }
        let faults = |names: &[&str]| names.iter().filter(|n| n.starts_with("faults.")).count();
        assert_eq!(
            faults(&emitted),
            faults(&COUNTER_NAMES),
            "a faulted run emits every faults.* counter"
        );
    }
}
