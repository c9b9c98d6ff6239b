//! The harness's own span list.
//!
//! Spans are recorded from the benchmark's files, around each call it
//! makes into a layer (connect, probe, session, and the ladder rungs);
//! spans inside the product crates are a later change (ROADMAP item 6).
//! They stay in memory during the run and are written out once, in
//! Chrome trace-event format, when the traced run ends.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ppcs_telemetry::json::{obj, Json};

/// Sentinel for "no parent span" / "no request" in the atomics below.
const NONE: usize = usize::MAX;

/// One closed interval around a call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `transport.connect`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while still open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request this span belongs to; ladder rungs have none.
    pub request_id: Option<u64>,
}

/// In-memory span collector shared by the load thread and the lanes
/// the fleet client dials on its behalf.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The load thread's current request and its span, read by
    /// callbacks (the fleet connector) that the product invokes without
    /// a way to pass context through.
    current_request: AtomicU64,
    current_span: AtomicUsize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times are relative to this call.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current_request: AtomicU64::new(u64::MAX),
            current_span: AtomicUsize::new(NONE),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the current request span (if any) and returns
    /// its index for [`Tracer::close`].
    pub fn open(&self, name: &'static str) -> usize {
        let parent = self.current_span.load(Ordering::Relaxed);
        let request = self.current_request.load(Ordering::Relaxed);
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: (parent != NONE).then_some(parent),
            request_id: (request != u64::MAX).then_some(request),
        });
        spans.len() - 1
    }

    /// Closes the span opened as `id`.
    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        self.spans.lock().expect("span list lock")[id].end_ns = end;
    }

    /// Runs `f` inside a span; spans opened meanwhile are its children.
    pub fn scoped<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let outer = self.current_span.swap(id, Ordering::Relaxed);
        let out = f();
        self.current_span.store(outer, Ordering::Relaxed);
        self.close(id);
        out
    }

    /// Runs one request: opens its root span and makes it the parent of
    /// every span opened until `f` returns.
    pub fn request<T>(&self, request_id: u64, f: impl FnOnce() -> T) -> T {
        self.current_request.store(request_id, Ordering::Relaxed);
        let out = self.scoped("request", f);
        self.current_request.store(u64::MAX, Ordering::Relaxed);
        out
    }

    /// A copy of every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Total nanoseconds and count of the closed spans called `name`
    /// that belong to a timed request (the warm-up request's do not).
    pub fn total_ns(&self, name: &str) -> (u64, u64) {
        let spans = self.spans.lock().expect("span list lock");
        spans
            .iter()
            .filter(|s| s.name == name && s.request_id.is_some() && s.end_ns != 0)
            .fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1))
    }

    /// The span list as a Chrome trace-event document (complete "X"
    /// events, microsecond timestamps; parent and request ride in
    /// `args`).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span list lock");
        let events = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_ns != 0)
            .map(|(id, s)| {
                let opt = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Number(n as f64));
                obj(vec![
                    ("name", Json::String(s.name.into())),
                    ("ph", Json::String("X".into())),
                    ("ts", Json::Number(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Number((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Number(1.0)),
                    ("tid", Json::Number(1.0)),
                    (
                        "args",
                        obj(vec![
                            ("id", Json::Number(id as f64)),
                            ("parent", opt(s.parent.map(|p| p as u64))),
                            ("request_id", opt(s.request_id)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![("traceEvents", Json::Array(events))]).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_spans_parent_their_children_and_serialize() {
        let t = Tracer::new();
        t.scoped("ladder.rung", || ());
        t.request(7, || {
            t.scoped("fleet.call", || {
                t.scoped("transport.connect", || ());
                t.scoped("server.session", || ());
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].request_id, None);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "request");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(2));
        assert_eq!(spans[4].request_id, Some(7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.total_ns("transport.connect").1, 1);
        assert_eq!(t.total_ns("ladder.rung").1, 0);
        let doc = Json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
    }
}
