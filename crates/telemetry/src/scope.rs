//! Session-scoped trace contexts and the Chrome trace-event exporter.
//!
//! A bare thread-local `Arc<MetricsRegistry>` collector is exact for
//! the blocking `Driver` of `ppcs-transport` (one session per thread)
//! but ambiguous under the async reactor: one thread pumps hundreds of
//! engines, and a span or trace line carries no hint of *which* session
//! produced it. A [`TraceScope`] closes that gap — it is the registry
//! plus the owning connection identity (the `AsyncDriver`'s
//! epoch-stamped slot) and a monotonically increasing session sequence
//! number, installed around every pump so each span, trace line, and
//! metric delta is attributed to exactly one session.
//!
//! When `PPCS_TRACE_OUT=<path>` is set (or [`set_trace_out`] is
//! called), every closed span additionally appends a Chrome trace-event
//! record; [`flush_trace_out`] writes the accumulated timeline as a
//! `chrome://tracing` / Perfetto-loadable JSON document, one track per
//! connection slot.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::{num, obj, Json};
use crate::registry::{MetricsRegistry, Phase};

thread_local! {
    static CURRENT: RefCell<Option<TraceScope>> = const { RefCell::new(None) };
}

/// The collector context installed on a driving thread: a metrics
/// registry plus the session identity (connection slot/epoch and
/// session sequence number) every span and trace event is attributed
/// to.
///
/// The blocking driver installs a scope with no connection identity
/// (its thread *is* the session); the `AsyncDriver` installs one per
/// pump keyed by its epoch-stamped `ConnId`, so interleaved output from
/// multiplexed sessions stays attributable.
#[derive(Clone, Debug)]
pub struct TraceScope {
    registry: Arc<MetricsRegistry>,
    conn: Option<(u32, u32)>,
    seq: u64,
}

impl TraceScope {
    /// A scope with no connection identity — the blocking-driver shape.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry,
            conn: None,
            seq: 0,
        }
    }

    /// A scope owned by connection `slot.epoch`, running its `seq`-th
    /// session — the `AsyncDriver` shape.
    pub fn for_conn(registry: Arc<MetricsRegistry>, slot: u32, epoch: u32, seq: u64) -> Self {
        Self {
            registry,
            conn: Some((slot, epoch)),
            seq,
        }
    }

    /// The registry spans record into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The owning connection as `(slot, epoch)`, when attributed.
    pub fn conn(&self) -> Option<(u32, u32)> {
        self.conn
    }

    /// The session sequence number on the owning connection.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The ` conn=S.E seq=N` suffix trace lines carry under
    /// multiplexing (empty for unattributed scopes).
    pub(crate) fn trace_suffix(&self) -> String {
        match self.conn {
            Some((slot, epoch)) => format!(" conn={slot}.{epoch} seq={}", self.seq),
            None => String::new(),
        }
    }
}

/// Installs `scope` as this thread's collector context; the returned
/// guard restores the previous scope (if any) on drop, so installs
/// nest.
#[must_use = "dropping the guard immediately uninstalls the scope"]
pub fn install_scope(scope: TraceScope) -> CollectorGuard {
    let prev = CURRENT.with(|c| c.replace(Some(scope)));
    CollectorGuard { prev }
}

/// The scope currently installed on this thread, if any.
pub fn current_scope() -> Option<TraceScope> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previously-installed scope on drop. Returned by
/// [`install_scope`] and [`install`](crate::install).
#[derive(Debug)]
pub struct CollectorGuard {
    prev: Option<TraceScope>,
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.prev.take()));
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event exporter.
// ---------------------------------------------------------------------

/// Cap on buffered trace events; one complete span per event, so this
/// bounds exporter memory at a few MiB. Overflow is counted and
/// reported in the written document, never silently dropped.
const MAX_TRACE_EVENTS: usize = 1 << 16;

#[derive(Clone, Debug)]
struct ChromeEvent {
    name: &'static str,
    role: String,
    session: u64,
    conn: Option<(u32, u32)>,
    seq: u64,
    ts_us: u64,
    dur_us: u64,
}

#[derive(Debug, Default)]
struct TraceOutBuffer {
    events: Vec<ChromeEvent>,
    dropped: u64,
}

static TRACE_OUT_BUF: Mutex<TraceOutBuffer> = Mutex::new(TraceOutBuffer {
    events: Vec::new(),
    dropped: 0,
});

/// `Some(Some(path))` = forced on, `Some(None)` = forced off,
/// `None` = follow the `PPCS_TRACE_OUT` env var.
static TRACE_OUT_OVERRIDE: Mutex<Option<Option<String>>> = Mutex::new(None);
static TRACE_OUT_ENV: OnceLock<Option<String>> = OnceLock::new();

/// The common time origin all exported events are measured from.
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn trace_out_path() -> Option<String> {
    if let Some(forced) = TRACE_OUT_OVERRIDE.lock().unwrap().clone() {
        return forced;
    }
    TRACE_OUT_ENV
        .get_or_init(|| {
            std::env::var("PPCS_TRACE_OUT")
                .ok()
                .filter(|p| !p.is_empty())
        })
        .clone()
}

/// Whether the Chrome trace-event exporter is collecting (the
/// [`set_trace_out`] override if one was made, otherwise the
/// `PPCS_TRACE_OUT` environment variable, read once).
pub fn trace_out_enabled() -> bool {
    trace_out_path().is_some()
}

/// Forces the Chrome trace-event exporter on (to `path`) or off,
/// overriding `PPCS_TRACE_OUT`. Process-global; used by tests.
pub fn set_trace_out(path: Option<&str>) {
    *TRACE_OUT_OVERRIDE.lock().unwrap() = Some(path.map(str::to_string));
}

/// Appends one complete-span event to the exporter buffer. Called from
/// the span guard's drop when the exporter is enabled.
pub(crate) fn record_chrome_event(scope: &TraceScope, phase: Phase, start: Instant, end: Instant) {
    let epoch = trace_epoch();
    let ts_us = start.saturating_duration_since(epoch).as_micros() as u64;
    let dur_us = end.saturating_duration_since(start).as_micros() as u64;
    let mut buf = TRACE_OUT_BUF.lock().unwrap();
    if buf.events.len() >= MAX_TRACE_EVENTS {
        buf.dropped += 1;
        return;
    }
    buf.events.push(ChromeEvent {
        name: phase.name(),
        role: scope.registry.role().to_string(),
        session: scope.registry.session(),
        conn: scope.conn,
        seq: scope.seq,
        ts_us,
        dur_us,
    });
}

/// Writes every span collected so far as a Chrome trace-event JSON
/// document (`{"traceEvents": [...]}`) to the configured
/// `PPCS_TRACE_OUT` path and returns that path. Non-draining: repeated
/// flushes rewrite the file with the full timeline. Returns `None`
/// when the exporter is disabled or the write fails (reported to
/// stderr — tracing must never take a session down).
pub fn flush_trace_out() -> Option<String> {
    let path = trace_out_path()?;
    let buf = TRACE_OUT_BUF.lock().unwrap();
    let events: Vec<Json> = buf
        .events
        .iter()
        .map(|e| {
            let (track, conn_label) = match e.conn {
                Some((slot, epoch)) => (u64::from(slot) + 1, format!("{slot}.{epoch}")),
                None => (0, "-".to_string()),
            };
            obj(vec![
                ("name", Json::String(e.name.to_string())),
                ("cat", Json::String(e.role.clone())),
                ("ph", Json::String("X".to_string())),
                ("pid", num(e.session)),
                ("tid", num(track)),
                ("ts", num(e.ts_us)),
                ("dur", num(e.dur_us)),
                (
                    "args",
                    obj(vec![
                        ("conn", Json::String(conn_label)),
                        ("seq", num(e.seq)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::String("ms".to_string())),
        ("ppcsDroppedEvents", num(buf.dropped)),
    ]);
    drop(buf);
    match std::fs::write(&path, doc.to_string()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("[ppcs] warn=trace-out write failed path={path} error={e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_installs_nest_and_restore() {
        let outer = MetricsRegistry::new(1, "outer");
        let inner = MetricsRegistry::new(2, "inner");
        let _og = install_scope(TraceScope::new(outer.clone()));
        {
            let _ig = install_scope(TraceScope::for_conn(inner.clone(), 3, 1, 7));
            let scope = current_scope().expect("inner installed");
            assert_eq!(scope.conn(), Some((3, 1)));
            assert_eq!(scope.seq(), 7);
            assert_eq!(scope.trace_suffix(), " conn=3.1 seq=7");
        }
        let scope = current_scope().expect("outer restored");
        assert_eq!(scope.registry().session(), 1);
        assert_eq!(scope.conn(), None);
        assert_eq!(scope.trace_suffix(), "");
    }

    #[test]
    fn trace_out_override_round_trips() {
        // Note: process-global, so only the override mechanics are
        // exercised; the end-to-end export is covered by the e2e suite.
        set_trace_out(None);
        assert!(!trace_out_enabled());
        assert!(flush_trace_out().is_none());
        let path = std::env::temp_dir().join("ppcs_scope_unit_trace.json");
        let path_s = path.to_string_lossy().to_string();
        set_trace_out(Some(&path_s));
        assert!(trace_out_enabled());
        let reg = MetricsRegistry::new(9, "unit");
        let scope = TraceScope::for_conn(reg, 0, 0, 1);
        let t0 = Instant::now();
        record_chrome_event(
            &scope,
            Phase::Classify,
            t0,
            t0 + std::time::Duration::from_micros(5),
        );
        let written = flush_trace_out().expect("flush writes");
        let text = std::fs::read_to_string(&written).expect("read back");
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("classify")));
        set_trace_out(None);
        let _ = std::fs::remove_file(&path);
    }
}
