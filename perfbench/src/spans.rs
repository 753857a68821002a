//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end and the
//! span that was open when it started. Spans are recorded only on the
//! thread that started the recorder (the benchmark's driving thread; the
//! machine's parallel-step workers are inside `Machine::run` and are timed
//! as part of it). With no recorder active, [`span`] just calls through,
//! so untraced runs pay one thread-local check per call.

use clear_harness::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, discarding any earlier ones.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns every span, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span named `name` when recording, else just runs it.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        rec.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Per-name totals: `(total seconds, self seconds)`. A span's self
/// time is its duration minus its children's durations; children of one
/// span never overlap because one thread records them.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += dur as f64 / 1e9;
        e.1 += dur.saturating_sub(child) as f64 / 1e9;
    }
    out
}

/// The spans as a JSON array of `{id, name, start_ns, end_ns, parent}`.
pub fn to_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("id", Json::from(id)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&spans);
        let (outer_total, outer_self) = t["outer"];
        let (inner_total, _) = t["inner"];
        assert!(inner_total >= 0.005);
        assert!((outer_total - outer_self - inner_total).abs() < 1e-9);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert_eq!(span("x", || 7), 7);
        assert!(finish().is_empty());
    }
}
