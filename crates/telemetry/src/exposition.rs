//! Prometheus text exposition (version 0.0.4) for a
//! [`MetricsRegistry`].
//!
//! The `/metrics` endpoint serves this rendering straight from the
//! reactor thread: every counter becomes a `counter` series, every
//! log₂ histogram becomes a native Prometheus `histogram` with
//! cumulative `_bucket{le=...}` series derived from the power-of-two
//! bucket bounds, and per-frame-kind wire traffic becomes labelled
//! counters. Only sizes, counts, kinds, and timings appear — the
//! privacy-cleanliness rule extends to this surface and the e2e suite
//! greps a live scrape for secret material to prove it.

use crate::hist::{bucket_upper_bound, Histogram};
use crate::registry::{MetricsRegistry, Phase, ReactorMetric};

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Renders one histogram's cumulative bucket series. `labels` is either
/// empty or a `key="value"` list *without* braces; the `le` label is
/// appended to it. Buckets are emitted up to the highest occupied
/// log₂ bucket, then `+Inf`, so empty tails don't bloat the scrape.
fn histogram_series(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let last = counts.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last {
        for (i, &c) in counts.iter().enumerate().take(last + 1) {
            cumulative += c;
            let le = bucket_upper_bound(i);
            if labels.is_empty() {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            } else {
                out.push_str(&format!(
                    "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
                ));
            }
        }
    }
    let (inf_labels, plain_labels) = if labels.is_empty() {
        ("{le=\"+Inf\"}".to_string(), String::new())
    } else {
        (format!("{{{labels},le=\"+Inf\"}}"), format!("{{{labels}}}"))
    };
    out.push_str(&format!("{name}_bucket{inf_labels} {}\n", h.count()));
    out.push_str(&format!("{name}_sum{plain_labels} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{plain_labels} {}\n", h.count()));
}

impl MetricsRegistry {
    /// Renders this registry as Prometheus text exposition.
    ///
    /// Served by the `AsyncDriver`'s `/metrics` endpoint (which appends
    /// its live session table); also usable directly for one-shot
    /// dumps. The output is deterministic in metric order.
    pub fn render_prometheus(&self) -> String {
        let report = self.report();
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "# HELP ppcs_session_info Session identity (value is always 1).\n\
             # TYPE ppcs_session_info gauge\n\
             ppcs_session_info{{session=\"{}\",role=\"{}\"}} 1\n",
            self.session(),
            escape_label(self.role()),
        ));
        counter(
            &mut out,
            "ppcs_polls_total",
            "Driver loop iterations (engine polls).",
            report.polls,
        );
        counter(
            &mut out,
            "ppcs_rounds_total",
            "Protocol rounds (frames handled by engines).",
            report.rounds,
        );
        counter(
            &mut out,
            "ppcs_timeouts_total",
            "Receive timeouts observed.",
            report.timeouts,
        );
        counter(
            &mut out,
            "ppcs_warns_total",
            "Warning events emitted.",
            report.warns,
        );
        counter(
            &mut out,
            "ppcs_faults_total",
            "Transport faults injected (chaos testing).",
            report.faults,
        );
        counter(
            &mut out,
            "ppcs_sessions_admitted_total",
            "Sessions admitted by the serving runtime.",
            report.sessions_admitted,
        );
        counter(
            &mut out,
            "ppcs_sessions_shed_total",
            "Sessions shed at admission (capacity or drain).",
            report.sessions_shed,
        );
        counter(
            &mut out,
            "ppcs_budget_exceeded_total",
            "Sessions terminated for exhausting a budget.",
            report.budget_exceeded,
        );
        counter(
            &mut out,
            "ppcs_malformed_rejected_total",
            "Sessions rejected for malformed or protocol-violating input.",
            report.malformed_rejected,
        );
        counter(
            &mut out,
            "ppcs_reactor_wakeups_total",
            "Reactor wakeups (returns from epoll_wait or sleep naps).",
            report.reactor_wakeups,
        );
        counter(
            &mut out,
            "ppcs_reactor_events_total",
            "Readiness events delivered across all reactor wakeups.",
            report.reactor_events,
        );
        counter(
            &mut out,
            "ppcs_timer_fires_total",
            "Timer-wheel expiries delivered to parked sessions.",
            report.timer_fires,
        );
        counter(
            &mut out,
            "ppcs_pool_filled_total",
            "Precompute-pool entries produced by offline fill work.",
            report.pool_filled,
        );
        counter(
            &mut out,
            "ppcs_pool_hits_total",
            "Sessions served from precomputed pool material.",
            report.pool_hits,
        );
        counter(
            &mut out,
            "ppcs_pool_misses_total",
            "Sessions that found the pool empty and precomputed inline.",
            report.pool_misses,
        );
        out.push_str(&format!(
            "# HELP ppcs_pool_depth Precompute-pool entries currently ready.\n\
             # TYPE ppcs_pool_depth gauge\n\
             ppcs_pool_depth {}\n",
            report.pool_depth,
        ));
        counter(
            &mut out,
            "ppcs_hedges_fired_total",
            "Hedged requests fired (backup attempts dispatched).",
            report.hedges_fired,
        );
        counter(
            &mut out,
            "ppcs_failovers_total",
            "Sessions re-dispatched to another replica after a failure.",
            report.failovers,
        );
        counter(
            &mut out,
            "ppcs_breaker_opens_total",
            "Circuit breakers tripped open.",
            report.breaker_opens,
        );
        let replicas = self.replica_states();
        if !replicas.is_empty() {
            out.push_str(
                "# HELP ppcs_replica_state Per-replica circuit-breaker state \
                 (0 closed, 1 open, 2 half-open).\n\
                 # TYPE ppcs_replica_state gauge\n",
            );
            for (replica, state) in replicas {
                out.push_str(&format!(
                    "ppcs_replica_state{{replica=\"{replica}\"}} {state}\n"
                ));
            }
        }

        if !report.kinds.is_empty() {
            out.push_str(
                "# HELP ppcs_wire_frames_total Wire frames by kind and direction.\n\
                 # TYPE ppcs_wire_frames_total counter\n",
            );
            for k in &report.kinds {
                out.push_str(&format!(
                    "ppcs_wire_frames_total{{kind=\"0x{:04x}\",dir=\"sent\"}} {}\n\
                     ppcs_wire_frames_total{{kind=\"0x{:04x}\",dir=\"received\"}} {}\n",
                    k.kind, k.frames_sent, k.kind, k.frames_received,
                ));
            }
            out.push_str(
                "# HELP ppcs_wire_bytes_total Wire bytes by kind and direction.\n\
                 # TYPE ppcs_wire_bytes_total counter\n",
            );
            for k in &report.kinds {
                out.push_str(&format!(
                    "ppcs_wire_bytes_total{{kind=\"0x{:04x}\",dir=\"sent\"}} {}\n\
                     ppcs_wire_bytes_total{{kind=\"0x{:04x}\",dir=\"received\"}} {}\n",
                    k.kind, k.bytes_sent, k.kind, k.bytes_received,
                ));
            }
        }

        let any_phase = Phase::ALL.iter().any(|p| self.phase_hist(*p).count() > 0);
        if any_phase {
            out.push_str(
                "# HELP ppcs_phase_duration_ns Wall time per protocol phase (log2 buckets).\n\
                 # TYPE ppcs_phase_duration_ns histogram\n",
            );
            for phase in Phase::ALL {
                let h = self.phase_hist(phase);
                if h.count() == 0 {
                    continue;
                }
                let labels = format!("phase=\"{}\"", phase.name());
                histogram_series(&mut out, "ppcs_phase_duration_ns", &labels, h);
            }
        }

        if self.frame_size_hist().count() > 0 {
            out.push_str(
                "# HELP ppcs_frame_payload_bytes Frame payload sizes (log2 buckets).\n\
                 # TYPE ppcs_frame_payload_bytes histogram\n",
            );
            histogram_series(
                &mut out,
                "ppcs_frame_payload_bytes",
                "",
                self.frame_size_hist(),
            );
        }

        for metric in ReactorMetric::ALL {
            let h = self.reactor_hist(metric);
            if h.count() == 0 {
                continue;
            }
            let name = format!("ppcs_reactor_{}", metric.name());
            out.push_str(&format!(
                "# HELP {name} Reactor health: {} (log2 buckets).\n# TYPE {name} histogram\n",
                metric.name()
            ));
            histogram_series(&mut out, &name, "", h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::WireDir;

    #[test]
    fn exposition_renders_counters_and_histograms() {
        let reg = MetricsRegistry::new(7, "trainer-server");
        reg.record_polls(3);
        reg.record_wire(0x0100, WireDir::Sent, 2, 64);
        reg.record_phase_ns(Phase::Classify, 1_500);
        reg.record_reactor(ReactorMetric::LoopLagNs, 900);
        reg.record_reactor(ReactorMetric::EventBatch, 4);
        let text = reg.render_prometheus();
        assert!(text.contains("ppcs_session_info{session=\"7\",role=\"trainer-server\"} 1"));
        assert!(text.contains("ppcs_polls_total 3"));
        assert!(text.contains("ppcs_wire_bytes_total{kind=\"0x0100\",dir=\"sent\"} 64"));
        assert!(text.contains("ppcs_phase_duration_ns_bucket{phase=\"classify\",le=\"+Inf\"} 1"));
        assert!(text.contains("ppcs_phase_duration_ns_sum{phase=\"classify\"} 1500"));
        assert!(text.contains("# TYPE ppcs_reactor_loop_lag_ns histogram"));
        assert!(text.contains("ppcs_reactor_loop_lag_ns_count 1"));
        assert!(text.contains("ppcs_reactor_event_batch_sum 4"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let h = Histogram::new();
        h.record(1); // bucket 0 (le 1)
        h.record(2); // bucket 1 (le 3)
        h.record(3); // bucket 1
        let mut out = String::new();
        histogram_series(&mut out, "m", "", &h);
        assert!(out.contains("m_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("m_bucket{le=\"3\"} 3\n"));
        assert!(out.contains("m_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("m_sum 6\n"));
        assert!(out.contains("m_count 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
