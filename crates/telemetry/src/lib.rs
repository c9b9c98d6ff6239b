//! # ppcs-telemetry
//!
//! The observability substrate for the ppcs workspace: protocol-phase
//! **spans**, a lock-cheap **metrics registry**, and machine-readable
//! **session reports**.
//!
//! The paper's evaluation (Sections VI–VII) is a per-phase breakdown of
//! where the time and bytes go — OT rounds vs. OMPE point clouds vs.
//! interpolation. This crate makes that breakdown a first-class,
//! regenerable artifact instead of printf archaeology:
//!
//! * [`span()`] opens a timing span for a protocol [`Phase`]; role logic in
//!   `ppcs-ot`, `ppcs-ompe`, and `ppcs-core` is instrumented with spans,
//!   and because the sans-I/O role futures are polled on the driving
//!   thread, installing a collector around a blocking call (or letting
//!   `Driver::with_metrics` do it) captures every phase with **no
//!   signature changes** anywhere in the protocol stack.
//! * [`MetricsRegistry`] is the collector: atomic counters plus
//!   fixed-bucket histograms — no locks on the hot path, no external
//!   metrics backend. Snapshot it into a [`SessionReport`] at any time.
//! * [`SessionReport`] serializes to JSON ([`SessionReport::to_json`] /
//!   [`SessionReport::from_json`]) and pretty-prints as a human summary
//!   (`Display`); the `benchmark/` package's traced runs read their
//!   per-layer numbers from it.
//! * Setting `PPCS_TRACE=1` (or calling [`set_trace`]) turns on a
//!   compact span layer on stderr, one line per closed span or warning
//!   event.
//!
//! ## Privacy-cleanliness rule
//!
//! Telemetry records **only sizes, counts, kinds, and timings** — never
//! field elements, polynomial coefficients, or sample values. The API
//! makes this structural: there is no way to attach a payload to a span
//! or a metric, and the e2e suite greps a captured full-session trace
//! for the secrets' byte patterns to prove nothing leaks.
//!
//! ## Example
//!
//! ```
//! use ppcs_telemetry::{MetricsRegistry, Phase};
//!
//! let reg = MetricsRegistry::new(7, "client");
//! {
//!     let _guard = ppcs_telemetry::install(reg.clone());
//!     let _span = ppcs_telemetry::span(Phase::Classify);
//!     // ... protocol work ...
//! }
//! let report = reg.report();
//! assert_eq!(report.phase("classify").unwrap().count, 1);
//! let back = ppcs_telemetry::SessionReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(back, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exposition;
mod hist;
pub mod json;
mod recorder;
mod registry;
mod report;
mod scope;
mod span;

pub use hist::Histogram;
pub use recorder::{
    FlightEvent, FlightEventKind, FlightRecorder, DETAIL_BREAKER_CLOSED, DETAIL_BREAKER_HALF_OPEN,
    DETAIL_BREAKER_OPEN, DETAIL_CONN_CLOSED, DETAIL_DRAIN_BEGAN, DETAIL_DRAIN_CUT, DETAIL_FAILOVER,
    DETAIL_HEDGE_FIRED, DETAIL_SESSION_ERR, DETAIL_SESSION_OK,
};
pub use registry::{MetricsRegistry, Phase, ReactorMetric, WireDir, NUM_KIND_SLOTS};
pub use report::{FrameSizeReport, HealthReport, KindReport, PhaseReport, SessionReport};
pub use scope::{
    current_scope, flush_trace_out, install_scope, set_trace_out, trace_out_enabled,
    CollectorGuard, TraceScope,
};
pub use span::{
    current, install, set_trace, set_trace_sink, span, trace_enabled, warn_event, with_collector,
    SpanGuard, TraceSink,
};
