//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The benchmark times the same calls whether or not it traces; a traced
//! pass additionally keeps one [`Span`] per call. Spans stay in memory
//! and are written out once, after the measured loop, so writing them
//! costs the measurement nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: which layer, when, and what caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the call crossed, e.g. `machine.run`.
    pub name: &'static str,
    /// Unique span id (1-based).
    pub id: u64,
    /// The enclosing span, `None` for a pass root.
    pub parent: Option<u64>,
    /// The operation the span belongs to: every span of one experiment
    /// (or one campaign replay) shares this id.
    pub op: u64,
    /// The measured pass the span belongs to.
    pub pass: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store. Shared by reference across pool workers.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// A started call. `id` is 0 when the pass is not traced.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    start: Instant,
}

impl Open {
    /// The span id children should name as their parent.
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

/// One pass's view of the tracer: records spans only when `record` is
/// set, but always returns the elapsed time, so traced and untraced
/// passes time exactly the same calls.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    /// The pass index stamped on every span.
    pass: u32,
    /// Whether this pass keeps spans.
    record: bool,
}

impl<'a> Scope<'a> {
    /// A view of `tracer` for pass `pass`.
    pub fn new(tracer: &'a Tracer, pass: u32, record: bool) -> Scope<'a> {
        Scope {
            tracer,
            pass,
            record,
        }
    }

    /// Starts a call.
    pub fn open(&self) -> Open {
        let id = if self.record {
            // A unique id is all that is published; no other data rides on it.
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            start: Instant::now(),
        }
    }

    /// Ends a call, keeping its span when the pass is traced. Returns
    /// the call's host time in nanoseconds.
    pub fn close(&self, open: Open, name: &'static str, op: u64, parent: Option<u64>) -> u64 {
        let end = Instant::now();
        if self.record {
            let at = |t: Instant| t.duration_since(self.tracer.origin).as_nanos() as u64;
            let span = Span {
                name,
                id: open.id,
                parent,
                op,
                pass: self.pass,
                start_ns: at(open.start),
                end_ns: at(end),
            };
            self.tracer
                .spans
                .lock()
                .expect("no thread panics while holding the span store")
                .push(span);
        }
        end.duration_since(open.start).as_nanos() as u64
    }
}

impl Tracer {
    /// Every recorded span, sorted by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("no thread panics while holding the span store");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-span self time: the span's duration minus the part of it its
/// children cover. Children that run in parallel on pool workers are
/// merged first, so overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// One row of the layer table: a span name's per-pass totals.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// The span name.
    pub name: &'static str,
    /// Median over traced passes of the summed self time, ms.
    pub self_ms: f64,
    /// Median over traced passes of the summed duration, ms.
    pub total_ms: f64,
    /// Median spans per traced pass.
    pub count: f64,
}

/// Folds spans into one row per span name, each a median over passes.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    // name -> pass -> (self, total, count)
    let mut per: BTreeMap<&'static str, BTreeMap<u32, (u64, u64, u64)>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let slot = per.entry(s.name).or_default().entry(s.pass).or_default();
        slot.0 += own;
        slot.1 += s.dur();
        slot.2 += 1;
    }
    per.into_iter()
        .map(|(name, passes)| {
            let col = |f: fn(&(u64, u64, u64)) -> u64| {
                let v: Vec<f64> = passes.values().map(|t| f(t) as f64).collect();
                crate::stats::median(&v)
            };
            LayerRow {
                name,
                self_ms: col(|t| t.0) / 1e6,
                total_ms: col(|t| t.1) / 1e6,
                count: col(|t| t.2),
            }
        })
        .collect()
}

/// The spans of the first `max_passes` passes as a JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], max_passes: u32) -> String {
    let rows: Vec<String> = spans
        .iter()
        .filter(|s| s.pass < max_passes)
        .map(|s| {
            let mut o = cedar_obs::json::Obj::new();
            o.str("name", s.name)
                .u64("id", s.id)
                .opt_u64("parent", s.parent)
                .u64("op", s.op)
                .u64("pass", u64::from(s.pass))
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            o.finish()
        })
        .collect();
    let mut doc = cedar_obs::json::Obj::new();
    doc.str("workload", workload)
        .u64("seed", seed)
        .u64("passes_written", u64::from(max_passes))
        .raw("spans", cedar_obs::json::array(rows));
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, s: u64, e: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 0,
            pass: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        let spans = vec![
            span("pass", 1, None, 0, 100),
            span("pool.job", 2, Some(1), 10, 60),
            span("pool.job", 3, Some(1), 40, 90),
            span("machine.run", 4, Some(2), 20, 50),
        ];
        // Pass: 100 - union[10, 90) = 20. Job 2: 50 - 30. Job 3 and the
        // leaf have no children.
        assert_eq!(self_times(&spans), vec![20, 20, 50, 30]);
    }

    #[test]
    fn layer_table_takes_medians_over_passes() {
        let mut spans = Vec::new();
        for (pass, dur) in [(0u32, 10u64), (1, 30), (2, 20)] {
            let base = u64::from(pass) * 1000;
            let mut s = span("render", u64::from(pass) + 1, None, base, base + dur);
            s.pass = pass;
            spans.push(s);
        }
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "render");
        assert_eq!(rows[0].self_ms, 20.0 / 1e6);
        assert_eq!(rows[0].count, 1.0);
    }

    #[test]
    fn untraced_scopes_time_but_keep_nothing() {
        let t = Tracer::default();
        let off = Scope::new(&t, 0, false);
        let o = off.open();
        assert!(o.id().is_none());
        off.close(o, "x", 0, None);
        let on = Scope::new(&t, 1, true);
        let root = on.open();
        let child = on.open();
        on.close(child, "child", 7, root.id());
        on.close(root, "root", 7, None);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.op == 7 && s.pass == 1));
    }
}
