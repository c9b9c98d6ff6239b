//! The lock-cheap per-session metrics collector.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::report::{FrameSizeReport, HealthReport, KindReport, PhaseReport, SessionReport};

/// A protocol phase a span can cover.
///
/// These mirror the paper's evaluation breakdown: the OT substrate
/// (`base_ot` → `kn_ot` / `ot_ext`), the OMPE sub-phases, and the two
/// top-level applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Public-key base OT (Naor–Pinkas or trusted-dealer simulation).
    BaseOt,
    /// 1-of-n OT built from 1-of-2 OTs.
    KnOt,
    /// IKNP OT extension.
    OtExt,
    /// OMPE mask refresh (server-side blinding material).
    OmpeMask,
    /// OMPE masked point-cloud exchange.
    OmpePointCloud,
    /// OMPE Lagrange interpolation / unmasking.
    OmpeInterpolate,
    /// A full private-classification session.
    Classify,
    /// A full private-similarity session.
    Similarity,
    /// Offline precomputation of input-independent protocol material
    /// (OT commitments, OMPE masks/covers) outside any session.
    Precompute,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; 9] = [
        Phase::BaseOt,
        Phase::KnOt,
        Phase::OtExt,
        Phase::OmpeMask,
        Phase::OmpePointCloud,
        Phase::OmpeInterpolate,
        Phase::Classify,
        Phase::Similarity,
        Phase::Precompute,
    ];

    /// The stable metric name for this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::BaseOt => "base_ot",
            Phase::KnOt => "kn_ot",
            Phase::OtExt => "ot_ext",
            Phase::OmpeMask => "ompe.mask",
            Phase::OmpePointCloud => "ompe.point_cloud",
            Phase::OmpeInterpolate => "ompe.interpolate",
            Phase::Classify => "classify",
            Phase::Similarity => "similarity",
            Phase::Precompute => "precompute",
        }
    }

    /// Parses a stable metric name back into a phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).unwrap()
    }
}

/// A reactor-health dimension recorded as a log₂ histogram.
///
/// These are the event-loop vitals DESIGN §3.11 calls out: they answer
/// "is the reactor keeping up" without touching any session payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReactorMetric {
    /// Nanoseconds the event loop woke *late*: actual wakeup minus the
    /// intended deadline passed to `epoll_wait` (0 when woken early by
    /// readiness).
    LoopLagNs,
    /// Readiness events delivered per reactor wakeup.
    EventBatch,
    /// Nanoseconds between a timer's armed deadline and the wheel
    /// advancing past it (wheel granularity + loop lag combined).
    TimerDriftNs,
    /// Bytes still queued in a connection's write buffer after a service
    /// pass (0 = fully flushed; sustained growth = backpressure).
    WriteBufDepth,
    /// Nanoseconds a connection spent blocked on `EPOLLOUT` (from the
    /// first short write until the buffer fully drained).
    WritableStallNs,
}

impl ReactorMetric {
    /// All reactor-health metrics, in report order.
    pub const ALL: [ReactorMetric; 5] = [
        ReactorMetric::LoopLagNs,
        ReactorMetric::EventBatch,
        ReactorMetric::TimerDriftNs,
        ReactorMetric::WriteBufDepth,
        ReactorMetric::WritableStallNs,
    ];

    /// The stable metric name for this dimension.
    pub fn name(self) -> &'static str {
        match self {
            ReactorMetric::LoopLagNs => "loop_lag_ns",
            ReactorMetric::EventBatch => "event_batch",
            ReactorMetric::TimerDriftNs => "timer_drift_ns",
            ReactorMetric::WriteBufDepth => "write_buf_depth",
            ReactorMetric::WritableStallNs => "writable_stall_ns",
        }
    }

    /// Parses a stable metric name back into a dimension.
    pub fn from_name(name: &str) -> Option<ReactorMetric> {
        ReactorMetric::ALL.into_iter().find(|m| m.name() == name)
    }

    fn index(self) -> usize {
        ReactorMetric::ALL.iter().position(|m| *m == self).unwrap()
    }
}

/// Which direction a wire frame travelled, from this endpoint's view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDir {
    /// The endpoint sent the frame.
    Sent,
    /// The endpoint received the frame.
    Received,
}

/// Capacity of the open-addressed frame-kind table. The protocol uses
/// ~16 distinct kinds; 64 slots keeps probes short with ample headroom.
pub const NUM_KIND_SLOTS: usize = 64;

const EMPTY_KIND: u32 = u32::MAX;

#[derive(Debug)]
struct KindSlot {
    /// The frame kind stored here, or [`EMPTY_KIND`].
    kind: AtomicU32,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
}

impl Default for KindSlot {
    fn default() -> Self {
        Self {
            kind: AtomicU32::new(EMPTY_KIND),
            frames_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
        }
    }
}

/// A per-session metrics collector: every update is a handful of
/// relaxed atomic operations — no locks, no allocation — so it is safe
/// to share across `duplex_pool` lanes and rayon workers.
///
/// Records:
/// * per-frame-kind wire traffic (frames + bytes, each direction),
/// * frame payload-size histogram,
/// * engine poll and protocol round counts,
/// * per-phase wall-time histograms (fed by [`span()`](crate::span())),
/// * timeout and warning counts.
///
/// Snapshot at any time with [`report`](MetricsRegistry::report);
/// telemetry never stores payload contents, only sizes/counts/kinds.
#[derive(Debug)]
pub struct MetricsRegistry {
    session: u64,
    role: String,
    started: Instant,
    polls: AtomicU64,
    rounds: AtomicU64,
    timeouts: AtomicU64,
    warns: AtomicU64,
    faults: AtomicU64,
    sessions_admitted: AtomicU64,
    sessions_shed: AtomicU64,
    budget_exceeded: AtomicU64,
    malformed_rejected: AtomicU64,
    reactor_wakeups: AtomicU64,
    reactor_events: AtomicU64,
    timer_fires: AtomicU64,
    pool_filled: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    pool_depth: AtomicU64,
    hedges_fired: AtomicU64,
    failovers: AtomicU64,
    breaker_opens: AtomicU64,
    /// Per-replica circuit-breaker state gauge, keyed by replica index
    /// (0 = closed, 1 = open, 2 = half-open). A `Mutex` rather than
    /// atomics because replicas are discovered dynamically and breaker
    /// transitions are orders of magnitude rarer than wire updates.
    replica_states: Mutex<BTreeMap<u32, u64>>,
    phase_ns: [Histogram; Phase::ALL.len()],
    frame_sizes: Histogram,
    kinds: [KindSlot; NUM_KIND_SLOTS],
    reactor: [Histogram; ReactorMetric::ALL.len()],
    /// `0` = no span opened yet; `i + 1` = `Phase::ALL[i]` was entered
    /// last. Read by the live session table.
    current_phase: AtomicU32,
}

impl MetricsRegistry {
    /// A fresh registry for one session, labelled with the local role
    /// (`"client"`, `"server"`, `"trainer"`, …).
    pub fn new(session: u64, role: &str) -> Arc<Self> {
        Arc::new(Self {
            session,
            role: role.to_string(),
            started: Instant::now(),
            polls: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            warns: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            sessions_admitted: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            budget_exceeded: AtomicU64::new(0),
            malformed_rejected: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            reactor_events: AtomicU64::new(0),
            timer_fires: AtomicU64::new(0),
            pool_filled: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            pool_depth: AtomicU64::new(0),
            hedges_fired: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            replica_states: Mutex::new(BTreeMap::new()),
            phase_ns: std::array::from_fn(|_| Histogram::new()),
            frame_sizes: Histogram::new(),
            kinds: std::array::from_fn(|_| KindSlot::default()),
            reactor: std::array::from_fn(|_| Histogram::new()),
            current_phase: AtomicU32::new(0),
        })
    }

    /// The session id this registry belongs to.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The local role label.
    pub fn role(&self) -> &str {
        &self.role
    }

    /// Adds engine polls (one `Driver` loop iteration each).
    pub fn record_polls(&self, n: u64) {
        self.polls.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds completed protocol rounds (frames handled by an engine).
    pub fn record_rounds(&self, n: u64) {
        self.rounds.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one receive timeout.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one warning event.
    pub fn record_warn(&self) {
        self.warns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one injected transport fault (chaos testing).
    pub fn record_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session admitted by the serving runtime.
    pub fn record_session_admitted(&self) {
        self.sessions_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session shed at admission (capacity or drain).
    pub fn record_session_shed(&self) {
        self.sessions_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session terminated for exhausting a budget.
    pub fn record_budget_exceeded(&self) {
        self.budget_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session rejected for malformed or protocol-violating
    /// input.
    pub fn record_malformed_rejected(&self) {
        self.malformed_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one reactor wakeup (a return from `epoll_wait` or the
    /// sleep-backend nap, whether or not any fd was ready).
    pub fn record_reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds readiness events delivered by one reactor wakeup.
    pub fn record_reactor_events(&self, n: u64) {
        self.reactor_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one timer-wheel expiry delivered to a parked session.
    pub fn record_timer_fire(&self) {
        self.timer_fires.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one precompute-pool entry produced by offline fill work.
    pub fn record_pool_filled(&self) {
        self.pool_filled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session served from precomputed pool material.
    pub fn record_pool_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one session that found the pool empty and fell back to
    /// inline precomputation.
    pub fn record_pool_miss(&self) {
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the current precompute-pool depth gauge.
    pub fn set_pool_depth(&self, depth: u64) {
        self.pool_depth.store(depth, Ordering::Relaxed);
    }

    /// Counts one hedged request fired (the hedge delay elapsed and a
    /// backup attempt was dispatched to another replica).
    pub fn record_hedge_fired(&self) {
        self.hedges_fired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failover (a session re-dispatched to another replica
    /// after its first choice failed).
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one circuit breaker tripping open.
    pub fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the breaker-state gauge for one replica
    /// (0 = closed, 1 = open, 2 = half-open).
    pub fn set_replica_state(&self, replica: u32, state: u64) {
        self.replica_states
            .lock()
            .expect("replica state gauge")
            .insert(replica, state);
    }

    /// Snapshot of every replica's breaker-state gauge, sorted by
    /// replica index.
    pub fn replica_states(&self) -> Vec<(u32, u64)> {
        self.replica_states
            .lock()
            .expect("replica state gauge")
            .iter()
            .map(|(&r, &s)| (r, s))
            .collect()
    }

    /// Records one closed span: `ns` of wall time spent in `phase`.
    pub fn record_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase.index()].record(ns);
    }

    /// Records one observation of a reactor-health dimension.
    pub fn record_reactor(&self, metric: ReactorMetric, value: u64) {
        self.reactor[metric.index()].record(value);
    }

    /// The histogram backing a reactor-health dimension (read-only; the
    /// Prometheus exposition renders bucket detail from it).
    pub fn reactor_hist(&self, metric: ReactorMetric) -> &Histogram {
        &self.reactor[metric.index()]
    }

    /// The per-phase wall-time histogram for `phase` (read-only).
    pub fn phase_hist(&self, phase: Phase) -> &Histogram {
        &self.phase_ns[phase.index()]
    }

    /// The frame payload-size histogram (read-only).
    pub fn frame_size_hist(&self) -> &Histogram {
        &self.frame_sizes
    }

    /// Marks `phase` as the session's most recently entered phase
    /// (`None` clears it). Called by the span layer on open.
    pub fn set_current_phase(&self, phase: Option<Phase>) {
        let tag = phase.map_or(0, |p| p.index() as u32 + 1);
        self.current_phase.store(tag, Ordering::Relaxed);
    }

    /// The most recently entered phase, if any span has opened — the
    /// live session table reads this as "where is this session now".
    pub fn current_phase(&self) -> Option<Phase> {
        match self.current_phase.load(Ordering::Relaxed) {
            0 => None,
            tag => Phase::ALL.get(tag as usize - 1).copied(),
        }
    }

    /// Accumulates wire traffic for one frame kind in one direction.
    ///
    /// Callers pass **deltas** (e.g. the change in a
    /// `TrafficStats` snapshot across one `Driver::drive` call), so the
    /// same registry can absorb repeated drives and concurrent lanes.
    pub fn record_wire(&self, kind: u16, dir: WireDir, frames: u64, bytes: u64) {
        if frames == 0 && bytes == 0 {
            return;
        }
        let slot = self.kind_slot(kind);
        match dir {
            WireDir::Sent => {
                slot.frames_sent.fetch_add(frames, Ordering::Relaxed);
                slot.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
            }
            WireDir::Received => {
                slot.frames_received.fetch_add(frames, Ordering::Relaxed);
                slot.bytes_received.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Records one frame's payload size into the size histogram.
    pub fn record_frame_size(&self, len: u64) {
        self.frame_sizes.record(len);
    }

    /// Finds (or claims) the open-addressed slot for `kind`.
    fn kind_slot(&self, kind: u16) -> &KindSlot {
        let start = (kind as usize).wrapping_mul(31) % NUM_KIND_SLOTS;
        for probe in 0..NUM_KIND_SLOTS {
            let slot = &self.kinds[(start + probe) % NUM_KIND_SLOTS];
            let cur = slot.kind.load(Ordering::Acquire);
            if cur == kind as u32 {
                return slot;
            }
            if cur == EMPTY_KIND
                && slot
                    .kind
                    .compare_exchange(EMPTY_KIND, kind as u32, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return slot;
            }
            if slot.kind.load(Ordering::Acquire) == kind as u32 {
                // Lost the race to a thread claiming the same kind.
                return slot;
            }
        }
        // More distinct kinds than slots: fold overflow into slot 0
        // rather than losing bytes (keeps per-kind sums == totals).
        &self.kinds[0]
    }

    /// Wall time since the registry was created, in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Snapshots everything into a serializable [`SessionReport`].
    pub fn report(&self) -> SessionReport {
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let h = &self.phase_ns[phase.index()];
            if h.count() == 0 {
                continue;
            }
            phases.push(PhaseReport {
                name: phase.name().to_string(),
                count: h.count(),
                total_ns: h.sum(),
                min_ns: h.min(),
                max_ns: h.max(),
                p50_ns: h.quantile(0.5),
                p95_ns: h.quantile(0.95),
            });
        }
        let mut kinds = Vec::new();
        for slot in &self.kinds {
            let kind = slot.kind.load(Ordering::Acquire);
            if kind == EMPTY_KIND {
                continue;
            }
            kinds.push(KindReport {
                kind: kind as u16,
                frames_sent: slot.frames_sent.load(Ordering::Relaxed),
                bytes_sent: slot.bytes_sent.load(Ordering::Relaxed),
                frames_received: slot.frames_received.load(Ordering::Relaxed),
                bytes_received: slot.bytes_received.load(Ordering::Relaxed),
            });
        }
        kinds.sort_by_key(|k| k.kind);
        let mut reactor_health = Vec::new();
        for metric in ReactorMetric::ALL {
            let h = &self.reactor[metric.index()];
            if h.count() == 0 {
                continue;
            }
            reactor_health.push(HealthReport {
                name: metric.name().to_string(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                p50: h.quantile(0.5),
                p95: h.quantile(0.95),
            });
        }
        SessionReport {
            session: self.session,
            role: self.role.clone(),
            elapsed_ns: self.elapsed_ns(),
            polls: self.polls.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            warns: self.warns.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            sessions_admitted: self.sessions_admitted.load(Ordering::Relaxed),
            sessions_shed: self.sessions_shed.load(Ordering::Relaxed),
            budget_exceeded: self.budget_exceeded.load(Ordering::Relaxed),
            malformed_rejected: self.malformed_rejected.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            reactor_events: self.reactor_events.load(Ordering::Relaxed),
            timer_fires: self.timer_fires.load(Ordering::Relaxed),
            pool_filled: self.pool_filled.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            pool_depth: self.pool_depth.load(Ordering::Relaxed),
            hedges_fired: self.hedges_fired.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            frame_sizes: FrameSizeReport {
                count: self.frame_sizes.count(),
                min: self.frame_sizes.min(),
                max: self.frame_sizes.max(),
                p50: self.frame_sizes.quantile(0.5),
                p95: self.frame_sizes.quantile(0.95),
            },
            phases,
            kinds,
            reactor_health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn wire_accounting_accumulates_per_kind() {
        let reg = MetricsRegistry::new(1, "client");
        reg.record_wire(0x0100, WireDir::Sent, 2, 64);
        reg.record_wire(0x0100, WireDir::Sent, 1, 36);
        reg.record_wire(0x0100, WireDir::Received, 1, 8);
        reg.record_wire(0x0400, WireDir::Received, 5, 500);
        let report = reg.report();
        let k = report.kind(0x0100).unwrap();
        assert_eq!((k.frames_sent, k.bytes_sent), (3, 100));
        assert_eq!((k.frames_received, k.bytes_received), (1, 8));
        assert_eq!(report.kind(0x0400).unwrap().bytes_received, 500);
        assert_eq!(report.total_wire_bytes(), 608);
    }

    #[test]
    fn empty_kinds_and_phases_are_omitted() {
        let reg = MetricsRegistry::new(1, "x");
        reg.record_phase_ns(Phase::Classify, 1000);
        let report = reg.report();
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].name, "classify");
        assert!(report.kinds.is_empty());
    }

    #[test]
    fn concurrent_updates_from_many_lanes_are_all_counted() {
        // Models duplex_pool: many lanes hammering one shared registry.
        let reg = MetricsRegistry::new(9, "server");
        std::thread::scope(|scope| {
            for lane in 0..8u16 {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        reg.record_wire(0x0100 + lane, WireDir::Sent, 1, 10);
                        reg.record_wire(0x0100 + lane, WireDir::Received, 1, 6);
                        reg.record_polls(1);
                        reg.record_phase_ns(Phase::OmpePointCloud, i + 1);
                        reg.record_frame_size(16);
                    }
                });
            }
        });
        let report = reg.report();
        assert_eq!(report.polls, 8000);
        assert_eq!(report.kinds.len(), 8);
        for lane in 0..8u16 {
            let k = report.kind(0x0100 + lane).unwrap();
            assert_eq!((k.frames_sent, k.bytes_sent), (1000, 10_000));
            assert_eq!((k.frames_received, k.bytes_received), (1000, 6_000));
        }
        assert_eq!(report.total_wire_bytes(), 8 * 16_000);
        assert_eq!(report.frame_sizes.count, 8_000);
        let pc = report.phase("ompe.point_cloud").unwrap();
        assert_eq!(pc.count, 8000);
    }

    #[test]
    fn reactor_metric_names_round_trip() {
        for metric in ReactorMetric::ALL {
            assert_eq!(ReactorMetric::from_name(metric.name()), Some(metric));
        }
        assert_eq!(ReactorMetric::from_name("nope"), None);
    }

    #[test]
    fn reactor_health_lands_in_the_report() {
        let reg = MetricsRegistry::new(2, "trainer-server");
        reg.record_reactor(ReactorMetric::LoopLagNs, 1_000);
        reg.record_reactor(ReactorMetric::LoopLagNs, 3_000);
        reg.record_reactor(ReactorMetric::EventBatch, 4);
        let report = reg.report();
        assert_eq!(report.reactor_health.len(), 2);
        let lag = report.reactor_metric("loop_lag_ns").unwrap();
        assert_eq!(lag.count, 2);
        assert_eq!(lag.sum, 4_000);
        assert_eq!(lag.min, 1_000);
        assert_eq!(lag.max, 3_000);
        assert_eq!(report.reactor_metric("event_batch").unwrap().count, 1);
        assert!(report.reactor_metric("timer_drift_ns").is_none());
    }

    #[test]
    fn current_phase_tracks_the_last_entered_phase() {
        let reg = MetricsRegistry::new(3, "client");
        assert_eq!(reg.current_phase(), None);
        reg.set_current_phase(Some(Phase::BaseOt));
        assert_eq!(reg.current_phase(), Some(Phase::BaseOt));
        reg.set_current_phase(Some(Phase::Similarity));
        assert_eq!(reg.current_phase(), Some(Phase::Similarity));
        reg.set_current_phase(None);
        assert_eq!(reg.current_phase(), None);
    }

    #[test]
    fn kind_table_overflow_folds_rather_than_drops() {
        let reg = MetricsRegistry::new(1, "x");
        // More distinct kinds than slots.
        for kind in 0..(NUM_KIND_SLOTS as u16 + 10) {
            reg.record_wire(kind, WireDir::Sent, 1, 100);
        }
        let report = reg.report();
        let total: u64 = report.kinds.iter().map(|k| k.bytes_sent).sum();
        assert_eq!(total, (NUM_KIND_SLOTS as u64 + 10) * 100);
    }
}
