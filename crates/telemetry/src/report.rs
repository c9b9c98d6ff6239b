//! Serializable session reports: the snapshot form of a
//! [`MetricsRegistry`](crate::MetricsRegistry).

use std::fmt;

use crate::json::{num, obj, Json, JsonError};

/// Wall-time statistics for one protocol phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Stable phase name (e.g. `"ompe.point_cloud"`).
    pub name: String,
    /// Number of closed spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Fastest span.
    pub min_ns: u64,
    /// Slowest span.
    pub max_ns: u64,
    /// Median span (histogram estimate).
    pub p50_ns: u64,
    /// 95th-percentile span (histogram estimate).
    pub p95_ns: u64,
}

/// Wire traffic for one frame kind, both directions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindReport {
    /// The wire frame kind tag.
    pub kind: u16,
    /// Frames sent with this kind.
    pub frames_sent: u64,
    /// Wire bytes sent with this kind (header + payload).
    pub bytes_sent: u64,
    /// Frames received with this kind.
    pub frames_received: u64,
    /// Wire bytes received with this kind (header + payload).
    pub bytes_received: u64,
}

/// Distribution of frame payload sizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameSizeReport {
    /// Frames observed.
    pub count: u64,
    /// Smallest payload.
    pub min: u64,
    /// Largest payload.
    pub max: u64,
    /// Median payload (histogram estimate).
    pub p50: u64,
    /// 95th-percentile payload (histogram estimate).
    pub p95: u64,
}

/// Distribution summary for one reactor-health dimension.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Stable metric name (e.g. `"loop_lag_ns"`).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (histogram estimate).
    pub p50: u64,
    /// 95th percentile (histogram estimate).
    pub p95: u64,
}

/// A complete telemetry snapshot for one session and role.
///
/// Serializes to JSON with [`to_json`](SessionReport::to_json) /
/// [`from_json`](SessionReport::from_json) and pretty-prints as a
/// human-readable table via `Display`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Session id.
    pub session: u64,
    /// Local role label (`"client"`, `"server"`, …).
    pub role: String,
    /// Nanoseconds since the registry was created.
    pub elapsed_ns: u64,
    /// Driver loop iterations (engine polls).
    pub polls: u64,
    /// Protocol rounds (frames handled by engines).
    pub rounds: u64,
    /// Receive timeouts observed.
    pub timeouts: u64,
    /// Warning events emitted.
    pub warns: u64,
    /// Sessions admitted by the serving runtime.
    pub sessions_admitted: u64,
    /// Sessions shed at admission (capacity or drain).
    pub sessions_shed: u64,
    /// Sessions terminated for exhausting a budget.
    pub budget_exceeded: u64,
    /// Sessions rejected for malformed or protocol-violating input.
    pub malformed_rejected: u64,
    /// Reactor wakeups (returns from `epoll_wait`/sleep-backend naps).
    pub reactor_wakeups: u64,
    /// Readiness events delivered across all reactor wakeups.
    pub reactor_events: u64,
    /// Reactor deadline expiries delivered to parked sessions.
    pub timer_fires: u64,
    /// Precompute-pool entries produced by offline fill work.
    pub pool_filled: u64,
    /// Sessions served from precomputed pool material.
    pub pool_hits: u64,
    /// Sessions that found the pool empty and precomputed inline.
    pub pool_misses: u64,
    /// Precompute-pool depth at snapshot time (a gauge, not a counter).
    pub pool_depth: u64,
    /// Hedged requests fired (backup attempts dispatched after the
    /// hedge delay elapsed).
    pub hedges_fired: u64,
    /// Sessions re-dispatched to another replica after a failure.
    pub failovers: u64,
    /// Circuit breakers tripped open.
    pub breaker_opens: u64,
    /// Frame payload-size distribution.
    pub frame_sizes: FrameSizeReport,
    /// Per-phase wall time, report order.
    pub phases: Vec<PhaseReport>,
    /// Per-frame-kind wire traffic, sorted by kind.
    pub kinds: Vec<KindReport>,
    /// Reactor-health distributions (loop lag, event batch, timer
    /// drift, write-buffer depth, writable stall), report order; empty
    /// dimensions are omitted.
    pub reactor_health: Vec<HealthReport>,
}

impl SessionReport {
    /// Looks up a phase by its stable name.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Looks up wire traffic for a frame kind.
    pub fn kind(&self, kind: u16) -> Option<&KindReport> {
        self.kinds.iter().find(|k| k.kind == kind)
    }

    /// Looks up a reactor-health dimension by its stable name.
    pub fn reactor_metric(&self, name: &str) -> Option<&HealthReport> {
        self.reactor_health.iter().find(|h| h.name == name)
    }

    /// Total wire bytes across every kind, both directions.
    pub fn total_wire_bytes(&self) -> u64 {
        self.bytes_sent() + self.bytes_received()
    }

    /// Wire bytes sent, summed over kinds.
    pub fn bytes_sent(&self) -> u64 {
        self.kinds.iter().map(|k| k.bytes_sent).sum()
    }

    /// Wire bytes received, summed over kinds.
    pub fn bytes_received(&self) -> u64 {
        self.kinds.iter().map(|k| k.bytes_received).sum()
    }

    /// Frames sent, summed over kinds.
    pub fn frames_sent(&self) -> u64 {
        self.kinds.iter().map(|k| k.frames_sent).sum()
    }

    /// Frames received, summed over kinds.
    pub fn frames_received(&self) -> u64 {
        self.kinds.iter().map(|k| k.frames_received).sum()
    }

    /// Serializes to a single-line JSON document.
    pub fn to_json(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                obj(vec![
                    ("name", Json::String(p.name.clone())),
                    ("count", num(p.count)),
                    ("total_ns", num(p.total_ns)),
                    ("min_ns", num(p.min_ns)),
                    ("max_ns", num(p.max_ns)),
                    ("p50_ns", num(p.p50_ns)),
                    ("p95_ns", num(p.p95_ns)),
                ])
            })
            .collect();
        let kinds = self
            .kinds
            .iter()
            .map(|k| {
                obj(vec![
                    ("kind", num(k.kind as u64)),
                    ("frames_sent", num(k.frames_sent)),
                    ("bytes_sent", num(k.bytes_sent)),
                    ("frames_received", num(k.frames_received)),
                    ("bytes_received", num(k.bytes_received)),
                ])
            })
            .collect();
        obj(vec![
            ("session", num(self.session)),
            ("role", Json::String(self.role.clone())),
            ("elapsed_ns", num(self.elapsed_ns)),
            ("polls", num(self.polls)),
            ("rounds", num(self.rounds)),
            ("timeouts", num(self.timeouts)),
            ("warns", num(self.warns)),
            ("sessions_admitted", num(self.sessions_admitted)),
            ("sessions_shed", num(self.sessions_shed)),
            ("budget_exceeded", num(self.budget_exceeded)),
            ("malformed_rejected", num(self.malformed_rejected)),
            ("reactor_wakeups", num(self.reactor_wakeups)),
            ("reactor_events", num(self.reactor_events)),
            ("timer_fires", num(self.timer_fires)),
            ("pool_filled", num(self.pool_filled)),
            ("pool_hits", num(self.pool_hits)),
            ("pool_misses", num(self.pool_misses)),
            ("pool_depth", num(self.pool_depth)),
            ("hedges_fired", num(self.hedges_fired)),
            ("failovers", num(self.failovers)),
            ("breaker_opens", num(self.breaker_opens)),
            (
                "frame_sizes",
                obj(vec![
                    ("count", num(self.frame_sizes.count)),
                    ("min", num(self.frame_sizes.min)),
                    ("max", num(self.frame_sizes.max)),
                    ("p50", num(self.frame_sizes.p50)),
                    ("p95", num(self.frame_sizes.p95)),
                ]),
            ),
            ("phases", Json::Array(phases)),
            ("kinds", Json::Array(kinds)),
            (
                "reactor_health",
                Json::Array(
                    self.reactor_health
                        .iter()
                        .map(|h| {
                            obj(vec![
                                ("name", Json::String(h.name.clone())),
                                ("count", num(h.count)),
                                ("sum", num(h.sum)),
                                ("min", num(h.min)),
                                ("max", num(h.max)),
                                ("p50", num(h.p50)),
                                ("p95", num(h.p95)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Parses a report back from [`to_json`](SessionReport::to_json)
    /// output. Every field `to_json` writes is required; a key it does
    /// not write is ignored.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let bad = |key: &str| JsonError {
            message: format!("missing or malformed field `{key}`"),
            offset: 0,
        };
        let int = |j: &Json, key: &str| j.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
        let string = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(key))
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| bad(key))
        };
        let field = |key: &str| int(&doc, key);
        let fs = doc.get("frame_sizes").ok_or_else(|| bad("frame_sizes"))?;
        let phases = list("phases")?
            .iter()
            .map(|p| {
                Ok(PhaseReport {
                    name: string(p, "name")?,
                    count: int(p, "count")?,
                    total_ns: int(p, "total_ns")?,
                    min_ns: int(p, "min_ns")?,
                    max_ns: int(p, "max_ns")?,
                    p50_ns: int(p, "p50_ns")?,
                    p95_ns: int(p, "p95_ns")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let kinds = list("kinds")?
            .iter()
            .map(|k| {
                Ok(KindReport {
                    kind: int(k, "kind")? as u16,
                    frames_sent: int(k, "frames_sent")?,
                    bytes_sent: int(k, "bytes_sent")?,
                    frames_received: int(k, "frames_received")?,
                    bytes_received: int(k, "bytes_received")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let reactor_health = list("reactor_health")?
            .iter()
            .map(|h| {
                Ok(HealthReport {
                    name: string(h, "name")?,
                    count: int(h, "count")?,
                    sum: int(h, "sum")?,
                    min: int(h, "min")?,
                    max: int(h, "max")?,
                    p50: int(h, "p50")?,
                    p95: int(h, "p95")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(SessionReport {
            session: field("session")?,
            role: string(&doc, "role")?,
            elapsed_ns: field("elapsed_ns")?,
            polls: field("polls")?,
            rounds: field("rounds")?,
            timeouts: field("timeouts")?,
            warns: field("warns")?,
            sessions_admitted: field("sessions_admitted")?,
            sessions_shed: field("sessions_shed")?,
            budget_exceeded: field("budget_exceeded")?,
            malformed_rejected: field("malformed_rejected")?,
            reactor_wakeups: field("reactor_wakeups")?,
            reactor_events: field("reactor_events")?,
            timer_fires: field("timer_fires")?,
            pool_filled: field("pool_filled")?,
            pool_hits: field("pool_hits")?,
            pool_misses: field("pool_misses")?,
            pool_depth: field("pool_depth")?,
            hedges_fired: field("hedges_fired")?,
            failovers: field("failovers")?,
            breaker_opens: field("breaker_opens")?,
            frame_sizes: FrameSizeReport {
                count: int(fs, "count")?,
                min: int(fs, "min")?,
                max: int(fs, "max")?,
                p50: int(fs, "p50")?,
                p95: int(fs, "p95")?,
            },
            phases,
            kinds,
            reactor_health,
        })
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session {} [{}]: {} wall, {} polls, {} rounds, {} timeouts",
            self.session,
            self.role,
            fmt_ns(self.elapsed_ns),
            self.polls,
            self.rounds,
            self.timeouts,
        )?;
        writeln!(
            f,
            "  wire: {} sent / {} received ({} / {} frames)",
            fmt_bytes(self.bytes_sent()),
            fmt_bytes(self.bytes_received()),
            self.frames_sent(),
            self.frames_received(),
        )?;
        if self.sessions_admitted
            + self.sessions_shed
            + self.budget_exceeded
            + self.malformed_rejected
            > 0
        {
            writeln!(
                f,
                "  serving: {} admitted, {} shed, {} budget-exceeded, {} malformed",
                self.sessions_admitted,
                self.sessions_shed,
                self.budget_exceeded,
                self.malformed_rejected,
            )?;
        }
        if self.reactor_wakeups + self.reactor_events + self.timer_fires > 0 {
            writeln!(
                f,
                "  reactor: {} wakeups, {} events, {} timer fires",
                self.reactor_wakeups, self.reactor_events, self.timer_fires,
            )?;
        }
        if self.pool_filled + self.pool_hits + self.pool_misses + self.pool_depth > 0 {
            writeln!(
                f,
                "  precompute pool: {} filled, {} hits, {} misses, depth {}",
                self.pool_filled, self.pool_hits, self.pool_misses, self.pool_depth,
            )?;
        }
        if self.hedges_fired + self.failovers + self.breaker_opens > 0 {
            writeln!(
                f,
                "  fleet: {} hedges fired, {} failovers, {} breaker opens",
                self.hedges_fired, self.failovers, self.breaker_opens,
            )?;
        }
        if !self.reactor_health.is_empty() {
            writeln!(
                f,
                "  {:<18} {:>7} {:>10} {:>10} {:>10}",
                "reactor health", "count", "p50", "p95", "max"
            )?;
            for h in &self.reactor_health {
                writeln!(
                    f,
                    "  {:<18} {:>7} {:>10} {:>10} {:>10}",
                    h.name, h.count, h.p50, h.p95, h.max,
                )?;
            }
        }
        if !self.phases.is_empty() {
            writeln!(
                f,
                "  {:<18} {:>7} {:>10} {:>10} {:>10}",
                "phase", "count", "total", "p50", "p95"
            )?;
            for p in &self.phases {
                writeln!(
                    f,
                    "  {:<18} {:>7} {:>10} {:>10} {:>10}",
                    p.name,
                    p.count,
                    fmt_ns(p.total_ns),
                    fmt_ns(p.p50_ns),
                    fmt_ns(p.p95_ns),
                )?;
            }
        }
        if !self.kinds.is_empty() {
            writeln!(
                f,
                "  {:<8} {:>9} {:>12} {:>9} {:>12}",
                "kind", "tx frames", "tx bytes", "rx frames", "rx bytes"
            )?;
            for k in &self.kinds {
                writeln!(
                    f,
                    "  0x{:04x}   {:>9} {:>12} {:>9} {:>12}",
                    k.kind,
                    k.frames_sent,
                    fmt_bytes(k.bytes_sent),
                    k.frames_received,
                    fmt_bytes(k.bytes_received),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionReport {
        SessionReport {
            session: 42,
            role: "client".into(),
            elapsed_ns: 123_456_789,
            polls: 17,
            rounds: 9,
            timeouts: 1,
            warns: 1,
            sessions_admitted: 5,
            sessions_shed: 2,
            budget_exceeded: 1,
            malformed_rejected: 4,
            reactor_wakeups: 9,
            reactor_events: 17,
            timer_fires: 6,
            pool_filled: 3,
            pool_hits: 2,
            pool_misses: 1,
            pool_depth: 1,
            hedges_fired: 2,
            failovers: 1,
            breaker_opens: 1,
            frame_sizes: FrameSizeReport {
                count: 12,
                min: 6,
                max: 4096,
                p50: 127,
                p95: 4095,
            },
            phases: vec![
                PhaseReport {
                    name: "base_ot".into(),
                    count: 1,
                    total_ns: 2_000_000,
                    min_ns: 2_000_000,
                    max_ns: 2_000_000,
                    p50_ns: 2_000_000,
                    p95_ns: 2_000_000,
                },
                PhaseReport {
                    name: "classify".into(),
                    count: 1,
                    total_ns: 120_000_000,
                    min_ns: 120_000_000,
                    max_ns: 120_000_000,
                    p50_ns: 120_000_000,
                    p95_ns: 120_000_000,
                },
            ],
            kinds: vec![
                KindReport {
                    kind: 0x0100,
                    frames_sent: 3,
                    bytes_sent: 300,
                    frames_received: 2,
                    bytes_received: 100,
                },
                KindReport {
                    kind: 0x0400,
                    frames_sent: 0,
                    bytes_sent: 0,
                    frames_received: 4,
                    bytes_received: 5000,
                },
            ],
            reactor_health: vec![HealthReport {
                name: "loop_lag_ns".into(),
                count: 11,
                sum: 22_000,
                min: 500,
                max: 9_000,
                p50: 1_500,
                p95: 8_000,
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let text = report.to_json();
        let back = SessionReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_round_trips_too() {
        let report = SessionReport {
            role: "server".into(),
            ..Default::default()
        };
        assert_eq!(SessionReport::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(SessionReport::from_json("{}").is_err());
        assert!(SessionReport::from_json("not json").is_err());
        let mut text = sample().to_json();
        text = text.replace("\"rounds\"", "\"wrong\"");
        assert!(SessionReport::from_json(&text).is_err());
        // Dropping any one field `to_json` writes, at any depth, is
        // refused.
        let variants = without_each_field(&Json::parse(&sample().to_json()).unwrap());
        assert!(variants.len() > 60, "{} variants", variants.len());
        for doc in variants {
            assert!(SessionReport::from_json(&doc.to_string()).is_err(), "{doc}");
        }
    }

    /// Every copy of `doc` with exactly one object field removed.
    fn without_each_field(doc: &Json) -> Vec<Json> {
        let mut out = Vec::new();
        match doc {
            Json::Object(fields) => {
                for (i, (_, value)) in fields.iter().enumerate() {
                    let mut less = fields.clone();
                    less.remove(i);
                    out.push(Json::Object(less));
                    for inner in without_each_field(value) {
                        let mut changed = fields.clone();
                        changed[i].1 = inner;
                        out.push(Json::Object(changed));
                    }
                }
            }
            Json::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    for inner in without_each_field(item) {
                        let mut changed = items.clone();
                        changed[i] = inner;
                        out.push(Json::Array(changed));
                    }
                }
            }
            _ => {}
        }
        out
    }

    #[test]
    fn reports_without_resilience_counters_still_parse() {
        // Artifacts that still carry the retired retry and fault
        // counters.
        let report = sample();
        let retired = report.to_json().replace(
            "\"sessions_admitted\":",
            "\"retries\":2,\"reconnects\":1,\"faults\":3,\"sessions_admitted\":",
        );
        assert_eq!(SessionReport::from_json(&retired).unwrap(), report);
    }

    #[test]
    fn totals_sum_over_kinds() {
        let report = sample();
        assert_eq!(report.bytes_sent(), 300);
        assert_eq!(report.bytes_received(), 5100);
        assert_eq!(report.total_wire_bytes(), 5400);
        assert_eq!(report.frames_sent(), 3);
        assert_eq!(report.frames_received(), 6);
    }

    #[test]
    fn display_summary_names_phases_and_kinds() {
        let shown = sample().to_string();
        assert!(shown.contains("session 42 [client]"));
        assert!(shown.contains("base_ot"));
        assert!(shown.contains("classify"));
        assert!(shown.contains("0x0100"));
        assert!(shown.contains("0x0400"));
    }
}
