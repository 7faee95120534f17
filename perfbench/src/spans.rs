//! In-memory span tracing of the benchmark's own calls into the
//! program, and the `renacer -c`-shaped summary built from it.
//!
//! A span has a name, a start, an end and the span that caused it. A
//! span that stands for a loop of calls into one function also carries
//! the call count, so µs/call is measured where the work happens.
//! Spans stay in memory until the run ends; a layer's self time is its
//! spans' durations minus the part of each covered by child spans.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`Tracer::ROOT`] has no parent.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    calls: u64,
    errors: u64,
}

/// A span recorder. A disabled tracer records nothing and every call on
/// it is a no-op, so untraced runs pay one branch per operation.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// One row of the summary: every span of one name.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Span name: a layer and the function called.
    pub name: String,
    /// Self time in seconds.
    pub self_s: f64,
    /// Calls made.
    pub calls: u64,
    /// Calls that failed.
    pub errors: u64,
}

impl Tracer {
    /// The id of the run's root span.
    pub const ROOT: SpanId = 0;

    /// A tracer whose root span opens now.
    pub fn new(enabled: bool) -> Tracer {
        let tracer = Tracer { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) };
        if enabled {
            tracer.lock().push(Span {
                name: "run".to_string(),
                start_ns: 0,
                end_ns: u64::MAX,
                parent: None,
                calls: 1,
                errors: 0,
            });
        }
        tracer
    }

    /// Open a span under `parent`; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return Tracer::ROOT;
        }
        let start_ns = self.ns(Instant::now());
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: u64::MAX,
            parent: Some(parent),
            calls: 1,
            errors: 0,
        });
        spans.len() - 1
    }

    /// Close `id` now, as `calls` calls of which `errors` failed. The
    /// root span stays open until [`Tracer::summary`].
    pub fn close(&self, id: SpanId, calls: u64, errors: u64) {
        if !self.enabled || id == Tracer::ROOT {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let mut spans = self.lock();
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.calls = calls;
        span.errors = errors;
    }

    /// Record a span whose interval was measured elsewhere (a session's
    /// spawn and completion happen on different threads).
    pub fn record(&self, name: &str, parent: SpanId, start: Instant, end: Instant, errors: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Some(parent),
            calls: 1,
            errors,
        };
        self.lock().push(span);
    }

    /// Time `f` as one span of `calls` calls under `parent`, returning
    /// its result and the span's length in seconds.
    pub fn time<R>(
        &self,
        name: &str,
        parent: SpanId,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(id, calls, 0);
        (out, secs)
    }

    /// Close the root span and aggregate self time per span name, in
    /// descending self time. Spans still open end with the root.
    pub fn summary(&self) -> Vec<Row> {
        if !self.enabled {
            return Vec::new();
        }
        let now = self.ns(Instant::now());
        let mut spans = self.lock().clone();
        for s in &mut spans {
            if s.end_ns == u64::MAX {
                s.end_ns = now;
            }
        }
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut rows: Vec<Row> = Vec::new();
        for (s, kids) in spans.iter().zip(children) {
            let self_ns = (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids);
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => r,
                None => {
                    rows.push(Row { name: s.name.clone(), self_s: 0.0, calls: 0, errors: 0 });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.self_s += self_ns as f64 * 1e-9;
            row.calls += s.calls;
            row.errors += s.errors;
        }
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        rows
    }

    /// Every span as one JSON object per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = if s.end_ns == u64::MAX { "null".to_string() } else { s.end_ns.to_string() };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end},\"parent\":{parent},\"calls\":{},\"errors\":{}}}",
                s.name, s.start_ns, s.calls, s.errors
            );
        }
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a tracing thread panicked")
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The summary table in the shape of `renacer -c`: one row per span
/// name with its share of all self time, seconds, µs per call, calls
/// and errors.
pub fn render(rows: &[Row]) -> String {
    let total: f64 = rows.iter().map(|r| r.self_s).sum();
    let mut out = String::from("% time     seconds  usecs/call     calls    errors layer\n");
    out.push_str(
        "------ ----------- ----------- --------- --------- ------------------------------\n",
    );
    for r in rows {
        let pct = if total > 0.0 { 100.0 * r.self_s / total } else { 0.0 };
        let per_call = 1e6 * r.self_s / r.calls.max(1) as f64;
        let _ = writeln!(
            out,
            "{pct:>6.2} {:>11.6} {per_call:>11.3} {:>9} {:>9} {}",
            r.self_s, r.calls, r.errors, r.name
        );
    }
    let _ = writeln!(
        out,
        "------ ----------- ----------- --------- --------- ------------------------------"
    );
    let calls: u64 = rows.iter().map(|r| r.calls).sum();
    let errors: u64 = rows.iter().map(|r| r.errors).sum();
    let _ = writeln!(out, "100.00 {total:>11.6} {:>11} {calls:>9} {errors:>9} total", "");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(0, 100, vec![(10, 30), (20, 40), (90, 120)]), 40);
        assert_eq!(covered(0, 100, vec![]), 0);
        assert_eq!(covered(50, 60, vec![(0, 100)]), 10);
    }

    #[test]
    fn self_time_excludes_children_and_rows_add_up() {
        let t = Tracer::new(true);
        let op = t.open("op", Tracer::ROOT);
        let ((), _) =
            t.time("layer.call", op, 3, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.close(op, 1, 0);
        let rows = t.summary();
        let layer = rows.iter().find(|r| r.name == "layer.call").expect("layer row");
        let op_row = rows.iter().find(|r| r.name == "op").expect("op row");
        assert_eq!(layer.calls, 3);
        assert!(layer.self_s >= 0.005);
        assert!(op_row.self_s < layer.self_s, "the op's self time excludes its child");
        assert!(render(&rows).contains("layer.call"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("op", Tracer::ROOT);
        t.close(id, 1, 0);
        assert!(t.summary().is_empty());
        assert!(t.dump().is_empty());
    }
}
