//! Span guards and the compact trace layer.
//!
//! The sans-I/O role futures are polled **on the driving thread**, so
//! installing a collector around a `Driver::drive` (or any blocking
//! wrapper built on it) makes every [`span`] opened inside the role
//! logic land in that registry — no signature changes anywhere in the
//! protocol stack. When no collector is installed, `span()` costs one
//! thread-local read and records nothing.
//!
//! The thread-local context itself lives in [`crate::scope`]: it is a
//! full [`TraceScope`] (registry + owning connection + session
//! sequence number), so under the async reactor's multiplexing every
//! span and trace line stays attributed to the session that produced it.

use std::sync::atomic::{AtomicI8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::registry::{MetricsRegistry, Phase};
use crate::scope::{current_scope, install_scope, record_chrome_event, trace_out_enabled};
use crate::scope::{CollectorGuard, TraceScope};

/// `-1` = follow the `PPCS_TRACE` env var, `0` = forced off, `1` = forced on.
static TRACE_OVERRIDE: AtomicI8 = AtomicI8::new(-1);
static TRACE_ENV: OnceLock<bool> = OnceLock::new();

/// A trace-line consumer installed with [`set_trace_sink`].
pub type TraceSink = Box<dyn Fn(&str) + Send + 'static>;
static TRACE_SINK: Mutex<Option<TraceSink>> = Mutex::new(None);

/// Installs `registry` as this thread's span collector; the returned
/// guard restores the previous collector (if any) on drop, so installs
/// nest. Equivalent to installing an unattributed [`TraceScope`] —
/// drivers that multiplex sessions use [`install_scope`] with a
/// connection identity instead.
#[must_use = "dropping the guard immediately uninstalls the collector"]
pub fn install(registry: Arc<MetricsRegistry>) -> CollectorGuard {
    install_scope(TraceScope::new(registry))
}

/// Runs `f` with `registry` installed as the thread's collector.
pub fn with_collector<T>(registry: Arc<MetricsRegistry>, f: impl FnOnce() -> T) -> T {
    let _guard = install(registry);
    f()
}

/// The collector currently installed on this thread, if any.
pub fn current() -> Option<Arc<MetricsRegistry>> {
    current_scope().map(|s| s.registry().clone())
}

/// Opens a timing span for `phase` against the thread's collector.
///
/// The span closes when the guard drops: the elapsed wall time is
/// recorded into the registry's per-phase histogram and, when tracing
/// is on, one compact line is emitted (tagged with the owning
/// connection and session sequence when the installed scope carries
/// one). Spans hold only the phase tag and a start instant — there is
/// no API to attach payload data, which is what keeps telemetry
/// privacy-clean by construction.
pub fn span(phase: Phase) -> SpanGuard {
    let open = current_scope().map(|scope| {
        scope.registry().set_current_phase(Some(phase));
        (scope, Instant::now())
    });
    SpanGuard { open, phase }
}

/// A live span; see [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    /// The collector and the start instant; `None` (and no clock read)
    /// when no collector was installed.
    open: Option<(TraceScope, Instant)>,
    phase: Phase,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((scope, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let reg = scope.registry();
        let ns = end.duration_since(start).as_nanos() as u64;
        reg.record_phase_ns(self.phase, ns);
        if trace_out_enabled() {
            record_chrome_event(&scope, self.phase, start, end);
        }
        if trace_enabled() {
            emit(&format!(
                "[ppcs] span={} session={} role={} elapsed_us={}{}",
                self.phase.name(),
                reg.session(),
                reg.role(),
                ns / 1_000,
                scope.trace_suffix(),
            ));
        }
    }
}

/// Emits a warning event (counted in the registry, traced when the
/// trace layer is on). `frame_kind` and `round` locate the event in the
/// session; pass `None` when unknown.
pub fn warn_event(message: &str, frame_kind: Option<u16>, round: Option<u64>) {
    let scope = current_scope();
    if let Some(scope) = &scope {
        scope.registry().record_warn();
    }
    if trace_enabled() {
        let mut line = format!("[ppcs] warn={message}");
        if let Some(scope) = &scope {
            let reg = scope.registry();
            line.push_str(&format!(" session={} role={}", reg.session(), reg.role()));
        }
        if let Some(kind) = frame_kind {
            line.push_str(&format!(" frame=0x{kind:04x}"));
        }
        if let Some(round) = round {
            line.push_str(&format!(" round={round}"));
        }
        if let Some(scope) = &scope {
            line.push_str(&scope.trace_suffix());
        }
        emit(&line);
    }
}

/// Whether the compact trace layer is on: the [`set_trace`] override if
/// one was made, otherwise the `PPCS_TRACE` environment variable
/// (`1`/`true`/`on`, read once).
pub fn trace_enabled() -> bool {
    match TRACE_OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => *TRACE_ENV.get_or_init(|| {
            std::env::var("PPCS_TRACE")
                .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
                .unwrap_or(false)
        }),
    }
}

/// Forces the trace layer on or off, overriding `PPCS_TRACE`.
/// Process-global; used by tests that capture trace output.
pub fn set_trace(enabled: bool) {
    TRACE_OVERRIDE.store(enabled as i8, Ordering::Relaxed);
}

/// Redirects trace lines to `sink` instead of stderr (pass `None` to
/// restore stderr). Process-global; the privacy-cleanliness test uses
/// this to capture a full session's trace in memory.
pub fn set_trace_sink(sink: Option<TraceSink>) {
    *TRACE_SINK.lock().unwrap() = sink;
}

fn emit(line: &str) {
    let sink = TRACE_SINK.lock().unwrap();
    match &*sink {
        Some(f) => f(line),
        None => eprintln!("{line}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_collector_is_a_noop() {
        let span = span(Phase::Classify);
        // One thread-local read: no registry, and no clock read either.
        assert!(span.open.is_none());
        assert!(current().is_none());
    }

    #[test]
    fn spans_record_into_the_installed_collector() {
        let reg = MetricsRegistry::new(3, "client");
        {
            let _guard = install(reg.clone());
            let _a = span(Phase::BaseOt);
            let _b = span(Phase::Classify);
        }
        let report = reg.report();
        assert_eq!(report.phase("base_ot").unwrap().count, 1);
        assert_eq!(report.phase("classify").unwrap().count, 1);
        assert!(current().is_none(), "guard uninstalls on drop");
    }

    #[test]
    fn installs_nest_and_restore() {
        let outer = MetricsRegistry::new(1, "outer");
        let inner = MetricsRegistry::new(2, "inner");
        let _outer_guard = install(outer.clone());
        {
            let _inner_guard = install(inner.clone());
            span(Phase::KnOt);
        }
        span(Phase::KnOt);
        assert_eq!(inner.report().phase("kn_ot").unwrap().count, 1);
        assert_eq!(outer.report().phase("kn_ot").unwrap().count, 1);
    }

    #[test]
    fn collectors_are_per_thread() {
        let reg = MetricsRegistry::new(5, "main");
        let _guard = install(reg.clone());
        std::thread::spawn(|| {
            assert!(current().is_none(), "fresh thread has no collector");
        })
        .join()
        .unwrap();
        assert!(current().is_some());
    }

    #[test]
    fn warn_event_counts_against_the_collector() {
        let reg = MetricsRegistry::new(8, "server");
        with_collector(reg.clone(), || {
            warn_event("timeout", Some(0x0400), Some(7));
        });
        assert_eq!(reg.report().warns, 1);
    }

    #[test]
    fn spans_set_the_registry_current_phase() {
        let reg = MetricsRegistry::new(4, "client");
        assert_eq!(reg.current_phase(), None);
        {
            let _guard = install(reg.clone());
            let _s = span(Phase::OmpeMask);
            assert_eq!(reg.current_phase(), Some(Phase::OmpeMask));
        }
        // The last phase entered stays visible after the span closes —
        // the live session table reads it as "where was this session".
        assert_eq!(reg.current_phase(), Some(Phase::OmpeMask));
    }
}
