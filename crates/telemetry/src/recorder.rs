//! The post-mortem flight recorder: a fixed-size lock-free ring of
//! structured serving events.
//!
//! Counters say *how many* sessions were shed or cut; the recorder
//! says *which* connection, *when*, and *in what order* — the
//! information a post-mortem of a 1000-session stress run actually
//! needs. Every record is a handful of relaxed atomic stores into a
//! preallocated slot (no locks, no allocation, safe under
//! `forbid(unsafe_code)`), so it is cheap enough to leave on in
//! production serving paths.
//!
//! Concurrency model: a single `fetch_add` cursor assigns each event a
//! global sequence number and a ring slot (`seq % capacity`). Writers
//! fill the slot seqlock-style — invalidate the stamp, store the
//! fields, then publish the stamp as `seq + 1` with release ordering —
//! so a reader ([`snapshot`](FlightRecorder::snapshot)) detects torn
//! or in-progress slots by double-checking the stamp and simply skips
//! them. The ring keeps the most recent `capacity` events; older ones
//! are overwritten and counted as dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::json::{num, obj, Json};

/// What happened; the six structured event classes the serving runtime
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlightEventKind {
    /// A session passed admission control.
    Admitted,
    /// A session was shed at admission (capacity or drain).
    Shed,
    /// A session tripped a resource budget (frames, bytes, deadline,
    /// or cancel).
    BudgetTrip,
    /// A malformed or protocol-violating frame terminated a session.
    Malformed,
    /// A reactor deadline expired for a parked session.
    TimerFire,
    /// A lifecycle state transition (session finished, connection
    /// closed, drain began/cut — see the `DETAIL_*` codes).
    StateTransition,
}

impl FlightEventKind {
    /// All kinds, in tag order.
    pub const ALL: [FlightEventKind; 6] = [
        FlightEventKind::Admitted,
        FlightEventKind::Shed,
        FlightEventKind::BudgetTrip,
        FlightEventKind::Malformed,
        FlightEventKind::TimerFire,
        FlightEventKind::StateTransition,
    ];

    /// The stable name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::Admitted => "admitted",
            FlightEventKind::Shed => "shed",
            FlightEventKind::BudgetTrip => "budget_trip",
            FlightEventKind::Malformed => "malformed",
            FlightEventKind::TimerFire => "timer_fire",
            FlightEventKind::StateTransition => "state_transition",
        }
    }

    fn tag(self) -> u64 {
        FlightEventKind::ALL
            .iter()
            .position(|k| *k == self)
            .unwrap() as u64
    }

    fn from_tag(tag: u64) -> Option<FlightEventKind> {
        FlightEventKind::ALL.get(tag as usize).copied()
    }
}

/// `detail` code on a [`FlightEventKind::StateTransition`]: a session
/// finished cleanly.
pub const DETAIL_SESSION_OK: u64 = 1;
/// `detail` code: a session finished with a structured error.
pub const DETAIL_SESSION_ERR: u64 = 2;
/// `detail` code: a connection closed (peer disconnect or local close).
pub const DETAIL_CONN_CLOSED: u64 = 3;
/// `detail` code: the server entered drain.
pub const DETAIL_DRAIN_BEGAN: u64 = 10;
/// `detail` code: the drain deadline elapsed and survivors were cut.
pub const DETAIL_DRAIN_CUT: u64 = 11;
/// `detail` code: a replica's circuit breaker tripped open (the
/// `conn_slot` field carries the replica index for fleet events).
pub const DETAIL_BREAKER_OPEN: u64 = 20;
/// `detail` code: an open breaker's cooldown elapsed and it moved to
/// half-open, admitting one probe.
pub const DETAIL_BREAKER_HALF_OPEN: u64 = 21;
/// `detail` code: a half-open breaker's probe succeeded and it closed.
pub const DETAIL_BREAKER_CLOSED: u64 = 22;
/// `detail` code: a session was re-dispatched to another replica after
/// its first choice failed.
pub const DETAIL_FAILOVER: u64 = 23;
/// `detail` code: the hedge delay elapsed and a backup attempt was
/// dispatched.
pub const DETAIL_HEDGE_FIRED: u64 = 24;

/// One recorded event, as read back by
/// [`snapshot`](FlightRecorder::snapshot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (total order of recording).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Owning connection slot (0 when not connection-scoped).
    pub conn_slot: u32,
    /// Owning connection epoch.
    pub conn_epoch: u32,
    /// Kind-specific detail code (e.g. the `DETAIL_*` constants for
    /// state transitions, or the admitted-session count for
    /// admissions). Never payload data.
    pub detail: u64,
}

/// An empty stamp: the slot has never been written (or is mid-write).
const STAMP_EMPTY: u64 = 0;

#[derive(Debug)]
struct EventSlot {
    /// `seq + 1` of the event stored here, published last with release
    /// ordering; [`STAMP_EMPTY`] while unwritten or in progress.
    stamp: AtomicU64,
    ts_ns: AtomicU64,
    kind: AtomicU64,
    /// `slot << 32 | epoch`.
    conn: AtomicU64,
    detail: AtomicU64,
}

impl EventSlot {
    fn new() -> Self {
        Self {
            stamp: AtomicU64::new(STAMP_EMPTY),
            ts_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            conn: AtomicU64::new(0),
            detail: AtomicU64::new(0),
        }
    }
}

/// The lock-free ring buffer; see the module docs for the concurrency
/// model.
#[derive(Debug)]
pub struct FlightRecorder {
    started: Instant,
    slots: Vec<EventSlot>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events
    /// (rounded up to a power of two, minimum 8).
    pub fn new(capacity: usize) -> Arc<Self> {
        let cap = capacity.max(8).next_power_of_two();
        Arc::new(Self {
            started: Instant::now(),
            slots: (0..cap).map(|_| EventSlot::new()).collect(),
            cursor: AtomicU64::new(0),
        })
    }

    /// Ring capacity (events retained).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.total_recorded().saturating_sub(self.capacity() as u64)
    }

    /// Records one event. Lock-free; callable from any thread.
    pub fn record(&self, kind: FlightEventKind, conn_slot: u32, conn_epoch: u32, detail: u64) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let ts_ns = self.started.elapsed().as_nanos() as u64;
        // Seqlock write: invalidate, fill, publish.
        slot.stamp.store(STAMP_EMPTY, Ordering::Release);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.kind.store(kind.tag(), Ordering::Relaxed);
        slot.conn.store(
            (u64::from(conn_slot) << 32) | u64::from(conn_epoch),
            Ordering::Relaxed,
        );
        slot.detail.store(detail, Ordering::Relaxed);
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Reads back every intact event, oldest first. Slots mid-write at
    /// snapshot time are skipped (the stamp double-check detects them),
    /// so a snapshot taken concurrently with recording is consistent,
    /// just possibly one event short.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == STAMP_EMPTY {
                continue;
            }
            let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
            let kind_tag = slot.kind.load(Ordering::Relaxed);
            let conn = slot.conn.load(Ordering::Relaxed);
            let detail = slot.detail.load(Ordering::Relaxed);
            // Re-check: if a writer raced us, the stamp moved (or was
            // invalidated) and the fields may be torn — skip the slot.
            if slot.stamp.load(Ordering::Acquire) != stamp {
                continue;
            }
            let Some(kind) = FlightEventKind::from_tag(kind_tag) else {
                continue;
            };
            events.push(FlightEvent {
                seq: stamp - 1,
                ts_ns,
                kind,
                conn_slot: (conn >> 32) as u32,
                conn_epoch: conn as u32,
                detail,
            });
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Serializes a snapshot as a JSON dump:
    /// `{"capacity", "total", "dropped", "events": [...]}`.
    pub fn to_json(&self) -> String {
        let events = self
            .snapshot()
            .into_iter()
            .map(|e| {
                obj(vec![
                    ("seq", num(e.seq)),
                    ("ts_ns", num(e.ts_ns)),
                    ("kind", Json::String(e.kind.name().to_string())),
                    (
                        "conn",
                        Json::String(format!("{}.{}", e.conn_slot, e.conn_epoch)),
                    ),
                    ("detail", num(e.detail)),
                ])
            })
            .collect();
        obj(vec![
            ("capacity", num(self.capacity() as u64)),
            ("total", num(self.total_recorded())),
            ("dropped", num(self.dropped())),
            ("events", Json::Array(events)),
        ])
        .to_string()
    }

    /// Writes the JSON dump to `path`, reporting failures to stderr
    /// (a failed dump must never take the server down).
    pub fn dump_to_file(&self, path: &str) -> bool {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("[ppcs] warn=flight-recorder dump failed path={path} error={e}");
                false
            }
        }
    }

    /// Installs a panic hook that dumps this recorder to `path` before
    /// delegating to the previous hook, so a crashed serving run still
    /// leaves a post-mortem. Process-global; install once per process.
    pub fn install_panic_dump(self: &Arc<Self>, path: &str) {
        let recorder = Arc::clone(self);
        let path = path.to_string();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            recorder.dump_to_file(&path);
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_read_back_in_order() {
        let rec = FlightRecorder::new(16);
        rec.record(FlightEventKind::Admitted, 0, 0, 1);
        rec.record(FlightEventKind::Shed, 1, 0, 0);
        rec.record(FlightEventKind::StateTransition, 0, 0, DETAIL_SESSION_OK);
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, FlightEventKind::Admitted);
        assert_eq!(events[1].kind, FlightEventKind::Shed);
        assert_eq!(events[1].conn_slot, 1);
        assert_eq!(events[2].detail, DETAIL_SESSION_OK);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.record(FlightEventKind::TimerFire, i as u32, 0, i);
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().detail, 12);
        assert_eq!(events.last().unwrap().detail, 19);
        assert_eq!(rec.total_recorded(), 20);
        assert_eq!(rec.dropped(), 12);
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_capacity() {
        let rec = FlightRecorder::new(4096);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..256u64 {
                        rec.record(FlightEventKind::StateTransition, t, 0, i);
                    }
                });
            }
        });
        let events = rec.snapshot();
        assert_eq!(events.len(), 8 * 256);
        // Every (slot, detail) pair appears exactly once.
        for t in 0..8u32 {
            let mine: Vec<u64> = events
                .iter()
                .filter(|e| e.conn_slot == t)
                .map(|e| e.detail)
                .collect();
            assert_eq!(mine.len(), 256);
        }
    }

    #[test]
    fn json_dump_parses_and_carries_kind_names() {
        let rec = FlightRecorder::new(8);
        rec.record(FlightEventKind::BudgetTrip, 2, 1, 0);
        rec.record(FlightEventKind::Malformed, 3, 0, 0);
        let doc = Json::parse(&rec.to_json()).expect("dump is valid JSON");
        assert_eq!(doc.get("capacity").and_then(Json::as_u64), Some(8));
        assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
        let events = doc.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("kind").and_then(Json::as_str),
            Some("budget_trip")
        );
        assert_eq!(events[0].get("conn").and_then(Json::as_str), Some("2.1"));
        assert_eq!(
            events[1].get("kind").and_then(Json::as_str),
            Some("malformed")
        );
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FlightRecorder::new(0).capacity(), 8);
        assert_eq!(FlightRecorder::new(100).capacity(), 128);
        assert_eq!(FlightRecorder::new(256).capacity(), 256);
    }
}
