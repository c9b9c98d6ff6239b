//! [`AsyncDriver`]: one thread, one reactor, thousands of sessions.
//!
//! Where [`Driver`](crate::Driver) parks an OS thread on every blocking
//! receive, `AsyncDriver` parks a *session* — an engine, its transcript
//! recorder, and its budget state — on a readiness event from the
//! [`Reactor`] or a deadline on the
//! [`TimerWheel`]. The session itself is the crate's
//! one `SessionCore`, the same code [`Driver`](crate::Driver) steps, so
//! transcripts, [`KIND_BUSY`](crate::KIND_BUSY) translation and
//! [`TransportError::Budget`] trips cannot differ between the two; this
//! module only adds the reactor's way of waiting.
//!
//! Connections come in two flavors:
//!
//! * **TCP** ([`AsyncDriver::add_tcp`]) — a nonblocking framed stream
//!   registered edge-triggered with the reactor; reads drain to
//!   `WouldBlock`, writes queue under backpressure and resume on
//!   writable events.
//! * **In-memory lanes** ([`AsyncDriver::add_lane`]) — any [`Lane`]
//!   that can wake the reactor (a duplex endpoint, or a
//!   [`FaultyLane`](crate::FaultyLane) over one): the peer's send pokes
//!   the driver's [`Waker`], and every turn probes each lane with a zero
//!   receive deadline, so the delay/stall/cut schedules and the
//!   adversarial peers run unchanged through the reactor.
//!
//! A connection with no engine attached is *pending*: its first frame
//! surfaces as [`AsyncEvent::Opening`] so a serving layer can perform
//! admission control (attach an engine, [`send_busy`](AsyncDriver::send_busy),
//! or [`close`](AsyncDriver::close)) before any protocol work happens.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppcs_telemetry::{
    FlightEventKind, FlightRecorder, MetricsRegistry, ReactorMetric, TraceScope,
    DETAIL_CONN_CLOSED, DETAIL_SESSION_ERR, DETAIL_SESSION_OK,
};

use crate::channel::{coalesce_frames, Frame, Lane, TrafficStats};
use crate::driver::{busy_frame, Transcript};
use crate::engine::{Outgoing, ProtocolEngine};
use crate::error::TransportError;
use crate::reactor::{Reactor, ReactorEvent, TimerWheel, Waker};
use crate::session::{DriveOptions, SessionCore, SessionIo, Step, DEFAULT_PER_RECV};
use crate::tcp::NbConn;

/// Token reserved for the accept listener.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Token reserved for the `/metrics` endpoint listener.
const METRICS_LISTEN_TOKEN: u64 = u64::MAX - 2;

/// Metrics scrape connections get tokens at and above this base — past
/// the `u32` range session slots live in, so the session service loop
/// never confuses a scrape socket with a protocol connection.
const METRICS_TOKEN_BASE: u64 = 1 << 32;

/// Request-header cap for the HTTP-lite scrape parser: anything larger
/// is answered `400` and closed.
const METRICS_REQ_CAP: usize = 8 * 1024;

/// Handle to one connection owned by an [`AsyncDriver`]. Slots are
/// reused after [`close`](AsyncDriver::close); the epoch guards against
/// a stale handle touching a recycled slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    slot: u32,
    epoch: u32,
}

impl ConnId {
    /// The slot index — stable for the life of the connection, reused
    /// (under a bumped [`epoch`](ConnId::epoch)) after close.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The slot-reuse epoch distinguishing this connection from earlier
    /// occupants of the same slot.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn {}.{}", self.slot, self.epoch)
    }
}

/// What happened during one [`AsyncDriver::poll`] turn.
#[derive(Debug)]
pub enum AsyncEvent<T, E> {
    /// The registered listener accepted a new connection (pending — no
    /// engine attached yet).
    Accepted {
        /// The freshly registered connection.
        conn: ConnId,
    },
    /// A frame arrived on a pending connection. The receiver decides:
    /// attach an engine (admission), [`AsyncDriver::send_busy`]
    /// (shedding), ignore (the connection stays pending), or
    /// [`AsyncDriver::close`].
    Opening {
        /// The pending connection.
        conn: ConnId,
        /// The frame, exactly as a blocking accept loop would have
        /// received it (coalesced batches already unpacked).
        frame: Frame,
    },
    /// An attached session ran to completion (successfully or with the
    /// same typed error its blocking counterpart would report). The
    /// connection itself stays open and reverts to pending, ready for
    /// a back-to-back follow-up session.
    Finished {
        /// The connection whose session completed.
        conn: ConnId,
        /// The engine's result.
        result: Result<T, E>,
        /// The recorded transcript, when
        /// [`DriveOptions::recording`] was set.
        transcript: Option<Transcript>,
    },
    /// A pending connection produced transport-level garbage (a frame
    /// the codec itself rejected). TCP connections are closed (the
    /// stream is desynchronized); in-memory lanes stay up.
    Malformed {
        /// The offending connection.
        conn: ConnId,
        /// What the transport rejected.
        error: TransportError,
    },
    /// A pending connection's idle deadline
    /// ([`AsyncDriver::set_idle_deadline`]) expired without a frame.
    /// One-shot: re-arm or close.
    IdleExpired {
        /// The idle connection.
        conn: ConnId,
    },
    /// A pending connection disconnected and was removed.
    Closed {
        /// The connection that is now gone.
        conn: ConnId,
    },
}

/// One connection's transport, by flavor.
enum ConnLane<'d> {
    Tcp(NbConn),
    Mem(&'d dyn Lane),
}

impl std::fmt::Debug for ConnLane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Tcp(nb) => f.debug_tuple("Tcp").field(nb).finish(),
            Self::Mem(_) => f.debug_tuple("Mem").finish(),
        }
    }
}

/// The engine and drive state parked on a connection.
struct Session<'d, T, E> {
    engine: ProtocolEngine<'d, T, E>,
    core: SessionCore,
    /// Driver-wide session sequence number: with slot reuse, the
    /// `(slot, epoch, seq)` triple pins every trace line and trace-out
    /// event to exactly one session.
    seq: u64,
}

/// One in-flight HTTP-lite scrape connection on the metrics endpoint:
/// accumulate the request until the header terminator, render once,
/// drain the response under backpressure, close.
struct MetricsConn {
    stream: TcpStream,
    req: Vec<u8>,
    resp: Vec<u8>,
    sent: usize,
}

struct Conn<'d, T, E> {
    lane: ConnLane<'d>,
    session: Option<Session<'d, T, E>>,
    /// Idle deadline while pending (no engine). One-shot.
    idle_deadline: Option<Instant>,
    /// Bumped whenever a timer is about to be armed: invalidates the
    /// ones armed before.
    timer_gen: u64,
}

struct Slot<'d, T, E> {
    epoch: u32,
    conn: Option<Conn<'d, T, E>>,
    /// Already queued for service this turn (dedup flag).
    queued: bool,
}

/// A single-threaded multiplexer pumping many [`ProtocolEngine`]s over
/// one [`Reactor`]. See the module docs for the model; see
/// [`poll`](AsyncDriver::poll) for the turn loop.
pub struct AsyncDriver<'d, T, E> {
    reactor: Reactor,
    /// Handed (weakly) to every mem lane: their peers' sends wake us.
    waker: Arc<Waker>,
    wheel: TimerWheel,
    slots: Vec<Slot<'d, T, E>>,
    free: Vec<u32>,
    listener: Option<TcpListener>,
    /// Reactor-level telemetry (wakeups, readiness events, timer
    /// fires) — distinct from each session's own registry.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Connections to service next turn without waiting for an event
    /// (freshly attached engines, buffered frames).
    ready_next: Vec<u32>,
    active_sessions: usize,
    mem_conns: usize,
    conns: usize,
    /// The `/metrics` endpoint listener, when one is attached.
    metrics_listener: Option<TcpListener>,
    /// In-flight scrape connections by reactor token.
    metrics_conns: HashMap<u64, MetricsConn>,
    next_metrics_token: u64,
    /// Post-mortem flight recorder fed by admission, shedding, budget,
    /// malformed-input, timer, and state-transition events.
    recorder: Option<Arc<FlightRecorder>>,
    /// Monotonic session counter feeding [`Session::seq`].
    session_seq: u64,
}

impl<'d, T, E: From<TransportError>> AsyncDriver<'d, T, E> {
    /// Opens a driver with its own reactor and timer wheel.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the reactor cannot be set up.
    pub fn new() -> Result<Self, TransportError> {
        let reactor = Reactor::new()?;
        Ok(Self {
            waker: Arc::new(reactor.waker()?),
            reactor,
            wheel: TimerWheel::new(Instant::now()),
            slots: Vec::new(),
            free: Vec::new(),
            listener: None,
            metrics: None,
            ready_next: Vec::new(),
            active_sessions: 0,
            mem_conns: 0,
            conns: 0,
            metrics_listener: None,
            metrics_conns: HashMap::new(),
            next_metrics_token: METRICS_TOKEN_BASE,
            recorder: None,
            session_seq: 0,
        })
    }

    /// Attaches a registry for reactor-level counters
    /// (`reactor_wakeups`, `reactor_events`, `timer_fires`).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Whether the readiness backend is real epoll (false: the
    /// short-sleep fallback — see [`Reactor`]).
    pub fn is_epoll(&self) -> bool {
        self.reactor.is_epoll()
    }

    /// A cross-thread [`Waker`] that interrupts a blocked
    /// [`poll`](AsyncDriver::poll) — lets drain/cut signals land
    /// event-driven instead of waiting out the poll timeout.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the waker socket cannot be cloned.
    pub fn waker(&self) -> Result<Waker, TransportError> {
        self.reactor.waker()
    }

    /// Registers `listener` for nonblocking accepts: every new inbound
    /// connection is added as a pending TCP connection and reported
    /// with [`AsyncEvent::Accepted`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on registration failure.
    pub fn listen(&mut self, listener: TcpListener) -> Result<(), TransportError> {
        use std::os::fd::AsRawFd;
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::Io(format!("listener nonblocking: {e}")))?;
        self.reactor.register(listener.as_raw_fd(), LISTEN_TOKEN)?;
        self.listener = Some(listener);
        Ok(())
    }

    /// Serves a live observability endpoint on `listener`, multiplexed
    /// on this reactor — no extra threads. Routes:
    ///
    /// * `GET /metrics` — Prometheus text exposition of the driver
    ///   registry ([`with_metrics`](AsyncDriver::with_metrics)) plus a
    ///   live connection table (ConnId, phase, rounds, wire bytes,
    ///   budget remaining).
    /// * `GET /flightrecorder` — the attached
    ///   [`FlightRecorder`]'s ring as JSON (404 when none).
    ///
    /// Scrape sockets use tokens above the session-slot range, so
    /// protocol servicing never sees them. Bind to loopback unless the
    /// scrape network is trusted: the surface carries sizes, counts,
    /// kinds, and timings (never payloads), but it is unauthenticated.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on registration failure.
    pub fn listen_metrics(&mut self, listener: TcpListener) -> Result<(), TransportError> {
        use std::os::fd::AsRawFd;
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::Io(format!("metrics listener nonblocking: {e}")))?;
        self.reactor
            .register(listener.as_raw_fd(), METRICS_LISTEN_TOKEN)?;
        self.metrics_listener = Some(listener);
        Ok(())
    }

    /// The bound address of the `/metrics` endpoint, when listening.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Attaches a flight recorder: admission, shedding, budget trips,
    /// malformed input, live timer fires, and session/connection state
    /// transitions are recorded into its ring from here on.
    pub fn set_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.recorder.clone()
    }

    /// Adds `stream` as a pending TCP connection (nonblocking, framed,
    /// registered edge-triggered).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on socket configuration or registration
    /// failure.
    pub fn add_tcp(&mut self, stream: TcpStream) -> Result<ConnId, TransportError> {
        let nb = NbConn::new(stream)?;
        let fd = nb.fd();
        let id = self.insert(Conn {
            lane: ConnLane::Tcp(nb),
            session: None,
            idle_deadline: None,
            timer_gen: 0,
        });
        self.reactor.register(fd, u64::from(id.slot))?;
        Ok(id)
    }

    /// Adds any [`Lane`] (a duplex endpoint, or a
    /// [`FaultyLane`](crate::FaultyLane) over one) as a pending
    /// connection. The lane wakes the reactor when its peer sends; the
    /// driver owns the lane's deadline cell from here on.
    ///
    /// # Errors
    ///
    /// [`TransportError::CannotNotify`] for a lane whose
    /// [`Lane::wake_on_arrival`] declines (a TCP endpoint: hand its
    /// stream to [`add_tcp`](AsyncDriver::add_tcp) instead).
    pub fn add_lane(&mut self, lane: &'d dyn Lane) -> Result<ConnId, TransportError> {
        if !lane.wake_on_arrival(&self.waker) {
            return Err(TransportError::CannotNotify);
        }
        let id = self.insert(Conn {
            lane: ConnLane::Mem(lane),
            session: None,
            idle_deadline: None,
            timer_gen: 0,
        });
        self.mem_conns += 1;
        // Probe it on the next turn: frames sent before the lane was
        // added woke nobody.
        self.ready_next.push(id.slot);
        Ok(id)
    }

    fn insert(&mut self, conn: Conn<'d, T, E>) -> ConnId {
        self.conns += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.conn = Some(conn);
            ConnId {
                slot,
                epoch: s.epoch,
            }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                epoch: 0,
                conn: Some(conn),
                queued: false,
            });
            ConnId { slot, epoch: 0 }
        }
    }

    fn conn_mut(&mut self, id: ConnId) -> Option<&mut Conn<'d, T, E>> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.epoch != id.epoch {
            return None;
        }
        s.conn.as_mut()
    }

    /// Arms (or clears) the pending-idle deadline: if no frame arrives
    /// on this pending connection within `after`, one
    /// [`AsyncEvent::IdleExpired`] fires.
    pub fn set_idle_deadline(&mut self, id: ConnId, after: Option<Duration>) {
        let Some(conn) = self.conn_mut(id) else {
            return;
        };
        let deadline = after.map(|d| Instant::now() + d);
        conn.idle_deadline = deadline;
        conn.timer_gen += 1;
        let generation = conn.timer_gen;
        if let Some(t) = deadline {
            self.wheel.arm(t, u64::from(id.slot), generation);
        }
    }

    /// Attaches `engine` to a pending connection and starts pumping it
    /// under `opts`. The caller feeds any already-received opening
    /// frame (`engine.handle_input(first)`) *before* attaching. The
    /// first pump happens on the next [`poll`](AsyncDriver::poll) turn.
    ///
    /// # Panics
    ///
    /// If the connection is unknown, closed, or already has a session.
    pub fn attach_engine(
        &mut self,
        id: ConnId,
        engine: ProtocolEngine<'d, T, E>,
        opts: DriveOptions,
    ) {
        let slot = id.slot;
        self.session_seq += 1;
        let seq = self.session_seq;
        let conn = self.conn_mut(id).expect("attach_engine: unknown conn");
        assert!(
            conn.session.is_none(),
            "attach_engine: session already attached"
        );
        // A reactor session always runs its own per-receive window:
        // there is no lane deadline to fall back on.
        let opts = DriveOptions {
            timeout: opts.timeout.or(Some(DEFAULT_PER_RECV)),
            ..opts
        };
        let core = SessionCore::new(&opts, &conn.lane, engine.rounds());
        conn.idle_deadline = None;
        conn.session = Some(Session { engine, core, seq });
        self.active_sessions += 1;
        self.ready_next.push(slot);
        if let Some(rec) = &self.recorder {
            rec.record(FlightEventKind::Admitted, id.slot, id.epoch, seq);
        }
    }

    /// Answers a pending connection with one [`KIND_BUSY`](crate::KIND_BUSY) frame — the
    /// admission-control shed, with no retry-after hint. Send failures
    /// are reported but the connection stays open (a serving loop may
    /// ignore them).
    ///
    /// # Errors
    ///
    /// Any transport failure from the underlying lane.
    pub fn send_busy(&mut self, id: ConnId) -> Result<(), TransportError> {
        self.send_busy_after(id, None)
    }

    /// [`send_busy`](AsyncDriver::send_busy) with a retry-after hint:
    /// the shed frame tells the client how long to wait before
    /// coming back; the client sees it as
    /// [`TransportError::Busy`]'s `retry_after_ms`.
    ///
    /// # Errors
    ///
    /// Any transport failure from the underlying lane.
    pub fn send_busy_after(
        &mut self,
        id: ConnId,
        retry_after: Option<Duration>,
    ) -> Result<(), TransportError> {
        let result = self.send_frame(id, busy_frame(retry_after));
        if let Some(rec) = &self.recorder {
            rec.record(FlightEventKind::Shed, id.slot, id.epoch, 0);
        }
        result
    }

    /// Sends one raw control frame on a connection — the mechanism
    /// behind shed replies and [`KIND_HEALTH`](crate::KIND_HEALTH)
    /// probe answers, which must go out without attaching a session.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] for an unknown connection, or
    /// any transport failure from the underlying lane.
    pub fn send_frame(&mut self, id: ConnId, frame: Frame) -> Result<(), TransportError> {
        let Some(conn) = self.conn_mut(id) else {
            return Err(TransportError::Disconnected);
        };
        conn.lane.send(&Outgoing::Frame(frame))
    }

    /// Closes and removes a connection. An in-flight session's engine
    /// is dropped on the floor — drain logic should prefer cancel
    /// tokens, which produce a structured Budget error instead.
    pub fn close(&mut self, id: ConnId) {
        let Some(s) = self.slots.get_mut(id.slot as usize) else {
            return;
        };
        if s.epoch != id.epoch {
            return;
        }
        let Some(conn) = s.conn.take() else {
            return;
        };
        s.epoch = s.epoch.wrapping_add(1);
        s.queued = false;
        self.free.push(id.slot);
        self.conns -= 1;
        if conn.session.is_some() {
            self.active_sessions -= 1;
        }
        match conn.lane {
            ConnLane::Tcp(_) => self.reactor.deregister(u64::from(id.slot)),
            ConnLane::Mem(_) => self.mem_conns -= 1,
        }
        if let Some(rec) = &self.recorder {
            rec.record(
                FlightEventKind::StateTransition,
                id.slot,
                id.epoch,
                DETAIL_CONN_CLOSED,
            );
        }
    }

    /// Sessions currently attached and not yet finished.
    pub fn active_sessions(&self) -> usize {
        self.active_sessions
    }

    /// Open connections (pending + active).
    pub fn conns(&self) -> usize {
        self.conns
    }

    /// Every open connection id, in slot order.
    pub fn conn_ids(&self) -> Vec<ConnId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.conn.is_some())
            .map(|(i, s)| ConnId {
                slot: i as u32,
                epoch: s.epoch,
            })
            .collect()
    }

    /// Whether `id` still names an open connection.
    pub fn is_open(&self, id: ConnId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| s.epoch == id.epoch && s.conn.is_some())
    }

    /// Whether `id` is an open connection with no session attached.
    pub fn is_pending(&self, id: ConnId) -> bool {
        self.slots.get(id.slot as usize).is_some_and(|s| {
            s.epoch == id.epoch && s.conn.as_ref().is_some_and(|c| c.session.is_none())
        })
    }

    /// One reactor turn: waits up to `max_wait` for readiness (bounded
    /// by the next timer deadline and pending work), services every
    /// ready connection, and returns what happened. An empty vector
    /// means the turn was quiet — poll again.
    pub fn poll(&mut self, max_wait: Duration) -> Vec<AsyncEvent<T, E>> {
        let mut events = Vec::new();
        let now = Instant::now();

        // Bound the wait by whichever comes first: the caller's cap,
        // the next armed timer, or pending ready work (which needs a
        // zero wait). A mem lane's peer wakes the reactor itself, and
        // `Reactor::wait` drains those wakes before any lane is probed
        // below, so none can be lost.
        let mut wait = max_wait;
        if let Some(due) = self.wheel.next_due(now) {
            wait = wait.min(due);
        }
        if !self.ready_next.is_empty() {
            wait = Duration::ZERO;
        }

        let mut revents: Vec<ReactorEvent> = Vec::new();
        let wait_started = Instant::now();
        self.reactor.wait(Some(wait), &mut revents);
        if let Some(reg) = &self.metrics {
            reg.record_reactor_wakeup();
            reg.record_reactor_events(revents.len() as u64);
            // Loop lag: how far past the intended wait the wakeup
            // landed. Zero when readiness cut the wait short.
            let lag = wait_started.elapsed().saturating_sub(wait);
            reg.record_reactor(ReactorMetric::LoopLagNs, lag.as_nanos() as u64);
            reg.record_reactor(ReactorMetric::EventBatch, revents.len() as u64);
        }

        // Accept new inbound connections first so their registration
        // precedes any frame they might already have sent.
        let saw_listener = revents.iter().any(|e| e.token == LISTEN_TOKEN);
        if self.listener.is_some() && (saw_listener || !self.reactor.is_epoll()) {
            self.accept_all(&mut events);
        }

        // Scrape traffic rides the same reactor: accept and service
        // metrics-endpoint sockets before protocol work so a stalled
        // session can't starve an operator's live scrape.
        let saw_metrics = revents.iter().any(|e| e.token == METRICS_LISTEN_TOKEN);
        if self.metrics_listener.is_some() && (saw_metrics || !self.reactor.is_epoll()) {
            self.accept_metrics();
        }
        let scrape_ready: Vec<u64> = if self.reactor.is_epoll() {
            revents
                .iter()
                .map(|e| e.token)
                .filter(|t| (METRICS_TOKEN_BASE..METRICS_LISTEN_TOKEN).contains(t))
                .collect()
        } else {
            self.metrics_conns.keys().copied().collect()
        };
        for token in scrape_ready {
            self.service_metrics(token);
        }

        // Collect the service set: explicit readiness, fired timers,
        // carried-over ready work, and every mem lane.
        let mut ready: Vec<u32> = Vec::new();
        let mut enqueue = |slots: &mut Vec<Slot<'d, T, E>>, slot: u32| {
            if let Some(s) = slots.get_mut(slot as usize) {
                if s.conn.is_some() && !s.queued {
                    s.queued = true;
                    ready.push(slot);
                }
            }
        };
        for ev in &revents {
            if ev.token == LISTEN_TOKEN || ev.token >= u32::MAX as u64 {
                continue;
            }
            enqueue(&mut self.slots, ev.token as u32);
        }
        let mut due: Vec<(u64, u64, Instant)> = Vec::new();
        let advance_now = Instant::now();
        self.wheel.advance_timed(advance_now, &mut due);
        for (token, generation, deadline) in due {
            let slot = token as u32;
            let live = self
                .slots
                .get(slot as usize)
                .and_then(|s| s.conn.as_ref())
                .is_some_and(|c| c.timer_gen == generation);
            if live {
                let drift = advance_now.saturating_duration_since(deadline);
                if let Some(reg) = &self.metrics {
                    reg.record_timer_fire();
                    reg.record_reactor(ReactorMetric::TimerDriftNs, drift.as_nanos() as u64);
                }
                if let Some(rec) = &self.recorder {
                    let epoch = self.slots[slot as usize].epoch;
                    rec.record(
                        FlightEventKind::TimerFire,
                        slot,
                        epoch,
                        drift.as_nanos() as u64,
                    );
                }
                enqueue(&mut self.slots, slot);
            }
        }
        for slot in std::mem::take(&mut self.ready_next) {
            enqueue(&mut self.slots, slot);
        }
        if self.mem_conns > 0 {
            for slot in 0..self.slots.len() as u32 {
                let is_mem = self.slots[slot as usize]
                    .conn
                    .as_ref()
                    .is_some_and(|c| matches!(c.lane, ConnLane::Mem(_)));
                if is_mem {
                    enqueue(&mut self.slots, slot);
                }
            }
        }

        for slot in ready {
            self.slots[slot as usize].queued = false;
            self.service(slot, &mut events);
        }
        events
    }

    /// Drives every attached session to completion, collecting their
    /// results; pending connections are left untouched. The client-side
    /// fan-out convenience used by tests and benchmarks.
    pub fn drive_all(&mut self) -> Vec<(ConnId, Result<T, E>, Option<Transcript>)> {
        let mut done = Vec::new();
        while self.active_sessions > 0 {
            for ev in self.poll(Duration::from_millis(100)) {
                if let AsyncEvent::Finished {
                    conn,
                    result,
                    transcript,
                } = ev
                {
                    done.push((conn, result, transcript));
                }
            }
        }
        // Non-draining: a later flush (or the serving layer's) simply
        // rewrites the file with more events.
        ppcs_telemetry::flush_trace_out();
        done
    }

    fn accept_all(&mut self, events: &mut Vec<AsyncEvent<T, E>>) {
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => match self.add_tcp(stream) {
                    Ok(conn) => events.push(AsyncEvent::Accepted { conn }),
                    Err(_) => continue,
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Services one connection: fill + flush its transport, then pump
    /// its session (or deliver pending frames).
    fn service(&mut self, slot: u32, events: &mut Vec<AsyncEvent<T, E>>) {
        let epoch = self.slots[slot as usize].epoch;
        let id = ConnId { slot, epoch };
        let Some(conn) = self.slots[slot as usize].conn.as_mut() else {
            return;
        };

        // Pull everything the transport has; sticky failures surface
        // through try_recv below.
        let fill_err = match &mut conn.lane {
            ConnLane::Tcp(nb) => {
                let r = nb.fill();
                if nb.wants_write() {
                    let _ = nb.flush();
                }
                if let Some(reg) = &self.metrics {
                    reg.record_reactor(
                        ReactorMetric::WriteBufDepth,
                        nb.pending_write_bytes() as u64,
                    );
                    if let Some(ns) = nb.take_stall_ns() {
                        reg.record_reactor(ReactorMetric::WritableStallNs, ns);
                    }
                }
                r.err()
            }
            ConnLane::Mem(_) => None,
        };

        if let Some(s) = conn.session.as_mut() {
            conn.timer_gen += 1;
            // Engines poll on this thread, so installing the session's
            // scope here captures every protocol-phase span — and
            // because the scope carries (slot, epoch, seq), interleaved
            // sessions attribute their spans, trace lines, and trace-out
            // events to the right ConnId.
            let _collector = s.core.metrics().cloned().map(|reg| {
                ppcs_telemetry::install_scope(TraceScope::for_conn(reg, slot, epoch, s.seq))
            });
            let result = match s.core.step(&mut s.engine, &mut conn.lane) {
                Step::Parked { wake_at } => {
                    self.wheel.arm(wake_at, u64::from(slot), conn.timer_gen);
                    return;
                }
                Step::Finished(result) => result,
            };
            if let Some(rec) = &self.recorder {
                if s.core.tripped() {
                    let delivered = s.core.frames_delivered();
                    rec.record(FlightEventKind::BudgetTrip, slot, epoch, delivered);
                }
                let detail = if result.is_ok() {
                    DETAIL_SESSION_OK
                } else {
                    DETAIL_SESSION_ERR
                };
                rec.record(FlightEventKind::StateTransition, slot, epoch, detail);
            }
            let transcript = s.core.take_transcript();
            conn.session = None;
            self.active_sessions -= 1;
            // A frame may already wait: on a mem lane, always (its wake
            // may have been drained this very turn).
            if !matches!(&conn.lane, ConnLane::Tcp(nb) if !nb.has_buffered()) {
                self.ready_next.push(slot);
            }
            events.push(AsyncEvent::Finished {
                conn: id,
                result,
                transcript,
            });
            return;
        }

        // Pending connection: deliver at most one frame per turn so the
        // caller can react (admit / shed / close) before the next one.
        match conn.lane.try_recv(None) {
            Ok(Some(frame)) => {
                // The idle timer stays armed: a handler that leaves the
                // deadline alone (a health probe does) must not keep
                // the connection from being reaped on time.
                if !matches!(&conn.lane, ConnLane::Tcp(nb) if !nb.has_buffered()) {
                    self.ready_next.push(slot);
                }
                events.push(AsyncEvent::Opening { conn: id, frame });
            }
            Ok(None) => {
                if conn.idle_deadline.is_some_and(|d| Instant::now() >= d) {
                    conn.idle_deadline = None;
                    events.push(AsyncEvent::IdleExpired { conn: id });
                }
            }
            Err(TransportError::Disconnected) => {
                events.push(AsyncEvent::Closed { conn: id });
                self.close(id);
            }
            Err(e) => {
                let fatal = matches!(conn.lane, ConnLane::Tcp(_));
                if let Some(rec) = &self.recorder {
                    rec.record(FlightEventKind::Malformed, slot, epoch, 0);
                }
                events.push(AsyncEvent::Malformed {
                    conn: id,
                    error: fill_err.unwrap_or(e),
                });
                if fatal {
                    self.close(id);
                }
            }
        }
    }

    fn accept_metrics(&mut self) {
        use std::os::fd::AsRawFd;
        loop {
            let accepted = match &self.metrics_listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_metrics_token;
                    self.next_metrics_token += 1;
                    if self.reactor.register(stream.as_raw_fd(), token).is_err() {
                        continue;
                    }
                    self.metrics_conns.insert(
                        token,
                        MetricsConn {
                            stream,
                            req: Vec::new(),
                            resp: Vec::new(),
                            sent: 0,
                        },
                    );
                    // Service immediately: the request may already be
                    // buffered, and the sleep backend has no edges.
                    self.service_metrics(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Advances one scrape connection: drain the request, render once
    /// the headers are complete, drain the response, close when sent.
    fn service_metrics(&mut self, token: u64) {
        use std::io::{Read, Write};
        let Some(mut mc) = self.metrics_conns.remove(&token) else {
            return;
        };
        let mut dead = false;
        if mc.resp.is_empty() {
            let mut buf = [0u8; 1024];
            loop {
                match mc.stream.read(&mut buf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        mc.req.extend_from_slice(&buf[..n]);
                        if mc.req.len() > METRICS_REQ_CAP
                            || mc.req.windows(4).any(|w| w == b"\r\n\r\n")
                        {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                if mc.req.len() > METRICS_REQ_CAP {
                    mc.resp =
                        http_response(400, "text/plain; charset=utf-8", "request too large\n");
                } else if mc.req.windows(4).any(|w| w == b"\r\n\r\n") {
                    mc.resp = self.respond_http(&mc.req);
                }
            }
        }
        if !dead && !mc.resp.is_empty() {
            loop {
                if mc.sent >= mc.resp.len() {
                    // Fully sent: `Connection: close` semantics.
                    dead = true;
                    break;
                }
                match mc.stream.write(&mc.resp[mc.sent..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => mc.sent += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.reactor.deregister(token);
            // Dropping `mc` closes the stream.
        } else {
            self.metrics_conns.insert(token, mc);
        }
    }

    /// Routes one parsed HTTP-lite request to its response bytes.
    fn respond_http(&self, req: &[u8]) -> Vec<u8> {
        let head = String::from_utf8_lossy(req);
        let line = head.lines().next().unwrap_or("");
        let mut parts = line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        if method != "GET" {
            return http_response(405, "text/plain; charset=utf-8", "method not allowed\n");
        }
        match path.split('?').next().unwrap_or(path) {
            "/metrics" => http_response(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &self.render_metrics_page(),
            ),
            "/flightrecorder" => match &self.recorder {
                Some(rec) => http_response(200, "application/json", &rec.to_json()),
                None => http_response(
                    404,
                    "text/plain; charset=utf-8",
                    "no flight recorder attached\n",
                ),
            },
            _ => http_response(
                404,
                "text/plain; charset=utf-8",
                "not found; try /metrics or /flightrecorder\n",
            ),
        }
    }

    /// The `/metrics` body: the driver registry's exposition followed
    /// by the live connection table. Only sizes, counts, kinds, and
    /// timings — the privacy-cleanliness rule holds on this surface.
    fn render_metrics_page(&self) -> String {
        let mut out = match &self.metrics {
            Some(reg) => reg.render_prometheus(),
            None => String::new(),
        };
        let mut info = String::new();
        let mut rounds = String::new();
        let mut wire = String::new();
        let mut frames_left = String::new();
        let mut bytes_left = String::new();
        for (slot, s) in self.slots.iter().enumerate() {
            let Some(conn) = s.conn.as_ref() else {
                continue;
            };
            let label = format!("conn=\"{}.{}\"", slot, s.epoch);
            wire.push_str(&format!(
                "ppcs_conn_wire_bytes{{{label}}} {}\n",
                conn.lane.stats().total_bytes()
            ));
            match &conn.session {
                Some(sess) => {
                    let phase = sess
                        .core
                        .metrics()
                        .and_then(|r| r.current_phase())
                        .map_or("", |p| p.name());
                    info.push_str(&format!(
                        "ppcs_conn_info{{{label},state=\"active\",phase=\"{phase}\"}} 1\n"
                    ));
                    rounds.push_str(&format!(
                        "ppcs_conn_rounds{{{label}}} {}\n",
                        sess.engine.rounds()
                    ));
                    let (frames, bytes) = sess.core.budget_remaining(&conn.lane);
                    if let Some(left) = frames {
                        frames_left.push_str(&format!(
                            "ppcs_conn_budget_frames_remaining{{{label}}} {left}\n"
                        ));
                    }
                    if let Some(left) = bytes {
                        bytes_left.push_str(&format!(
                            "ppcs_conn_budget_wire_bytes_remaining{{{label}}} {left}\n"
                        ));
                    }
                }
                None => {
                    info.push_str(&format!(
                        "ppcs_conn_info{{{label},state=\"pending\",phase=\"\"}} 1\n"
                    ));
                }
            }
        }
        let sections: [(&str, &str, &String); 5] = [
            (
                "ppcs_conn_info",
                "Live connection table: state and current protocol phase.",
                &info,
            ),
            (
                "ppcs_conn_rounds",
                "Protocol rounds completed by each live session.",
                &rounds,
            ),
            (
                "ppcs_conn_wire_bytes",
                "Wire bytes moved on each open connection.",
                &wire,
            ),
            (
                "ppcs_conn_budget_frames_remaining",
                "Delivered frames left in each live session's budget.",
                &frames_left,
            ),
            (
                "ppcs_conn_budget_wire_bytes_remaining",
                "Wire bytes left in each live session's byte budget.",
                &bytes_left,
            ),
        ];
        for (name, help, body) in sections {
            if !body.is_empty() {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                out.push_str(body);
            }
        }
        out
    }
}

/// A minimal `HTTP/1.0` response with `Connection: close` semantics.
fn http_response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        405 => "Method Not Allowed",
        _ => "Not Found",
    };
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl<T, E> std::fmt::Debug for AsyncDriver<'_, T, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncDriver")
            .field("conns", &self.conns)
            .field("active_sessions", &self.active_sessions)
            .field("epoll", &self.reactor.is_epoll())
            .finish()
    }
}

/// The reactor's way of waiting: it doesn't. `try_recv` reports what
/// has already arrived, and deadlines are the timer wheel's job (see
/// the normalization notes in `tcp.rs`).
impl SessionIo for ConnLane<'_> {
    fn send(&mut self, out: &Outgoing) -> Result<(), TransportError> {
        match self {
            Self::Tcp(nb) => {
                match out {
                    Outgoing::Frame(f) => nb.queue(f)?,
                    Outgoing::Batch(fs) => nb.queue(&coalesce_frames(fs)?)?,
                }
                // Opportunistic flush: backpressure is not an error, the
                // remainder rides the next writable event.
                nb.flush().map(|_| ())
            }
            Self::Mem(l) => match out {
                Outgoing::Frame(f) => l.send(f.clone()),
                Outgoing::Batch(fs) => l.send_coalesced(fs),
            },
        }
    }

    fn try_recv(&mut self, _max_wait: Option<Duration>) -> Result<Option<Frame>, TransportError> {
        match self {
            Self::Tcp(nb) => {
                nb.fill()?;
                nb.try_recv()
            }
            Self::Mem(l) => {
                l.set_recv_timeout(Some(Duration::ZERO));
                match l.recv() {
                    Ok(f) => Ok(Some(f)),
                    Err(TransportError::Timeout) => Ok(None),
                    Err(e) => Err(e),
                }
            }
        }
    }

    fn stats(&self) -> TrafficStats {
        match self {
            Self::Tcp(nb) => nb.stats(),
            Self::Mem(l) => l.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::duplex;
    use crate::driver::{Driver, SessionLimits, KIND_BUSY};
    use crate::engine::FrameIo;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A toy echo protocol: the responder doubles `rounds` numbers, the
    /// requester checks them.
    async fn requester(io: FrameIo, rounds: u64) -> Result<u64, TransportError> {
        let mut acc = 0u64;
        for i in 0..rounds {
            io.send_msg(0x0100, &i)?;
            let doubled: u64 = io.recv_msg(0x0101).await?;
            if doubled != i * 2 {
                return Err(TransportError::Decode(format!(
                    "expected {} got {doubled}",
                    i * 2
                )));
            }
            acc += doubled;
        }
        Ok(acc)
    }

    async fn responder(io: FrameIo, rounds: u64) -> Result<u64, TransportError> {
        for _ in 0..rounds {
            let n: u64 = io.recv_msg(0x0100).await?;
            io.send_msg(0x0101, &(n * 2))?;
        }
        Ok(rounds)
    }

    #[test]
    fn async_matches_blocking_transcript_on_duplex() {
        // Blocking baseline.
        let (a1, b1) = duplex();
        let baseline = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut engine = ProtocolEngine::new(|io| responder(io, 5));
                Driver::new().drive(&b1, &mut engine).expect("responder")
            });
            let mut engine = ProtocolEngine::new(|io| requester(io, 5));
            let mut driver = Driver::new().with_recording();
            let result = driver.drive(&a1, &mut engine).expect("requester");
            (result, driver.take_transcript().expect("recorded"))
        });

        // Async run, same roles, same seeds.
        let (a2, b2) = duplex();
        let (result, transcript) = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut engine = ProtocolEngine::new(|io| responder(io, 5));
                Driver::new().drive(&b2, &mut engine).expect("responder")
            });
            let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
            let conn = ad.add_lane(&a2).expect("mem lane");
            ad.attach_engine(
                conn,
                ProtocolEngine::new(|io| requester(io, 5)),
                DriveOptions::new().with_recording(),
            );
            let mut done = ad.drive_all();
            assert_eq!(done.len(), 1);
            let (id, result, transcript) = done.pop().expect("one session");
            assert_eq!(id, conn);
            (result.expect("requester"), transcript.expect("recorded"))
        });

        assert_eq!(result, baseline.0);
        assert_eq!(transcript, baseline.1, "byte-identical transcripts");
        assert_eq!(transcript.to_bytes(), baseline.1.to_bytes());
    }

    #[test]
    fn async_multiplexes_many_duplex_sessions_on_one_thread() {
        const N: usize = 32;
        let pairs: Vec<_> = (0..N).map(|_| duplex()).collect();
        std::thread::scope(|scope| {
            for (_, b) in &pairs {
                scope.spawn(move || {
                    let mut engine = ProtocolEngine::new(|io| responder(io, 3));
                    Driver::new().drive(b, &mut engine).expect("responder")
                });
            }
            let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
            for (a, _) in &pairs {
                let conn = ad.add_lane(a).expect("mem lane");
                ad.attach_engine(
                    conn,
                    ProtocolEngine::new(|io| requester(io, 3)),
                    DriveOptions::new(),
                );
            }
            let done = ad.drive_all();
            assert_eq!(done.len(), N);
            for (_, result, _) in done {
                assert_eq!(result.expect("session"), 2 + 4);
            }
        });
    }

    #[test]
    fn async_tcp_session_against_blocking_peer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let ep = crate::tcp::tcp_accept(&listener).expect("accept");
                let mut engine = ProtocolEngine::new(|io| responder(io, 4));
                Driver::new().drive(&ep, &mut engine).expect("responder")
            });
            let stream = TcpStream::connect(addr).expect("connect");
            let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
            let conn = ad.add_tcp(stream).expect("add");
            ad.attach_engine(
                conn,
                ProtocolEngine::new(|io| requester(io, 4)),
                DriveOptions::new(),
            );
            let done = ad.drive_all();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1.as_ref().expect("result"), &(2 + 4 + 6));
        });
    }

    #[test]
    fn cancel_token_cuts_a_parked_session() {
        let (a, _b) = duplex();
        let cancel = Arc::new(AtomicBool::new(false));
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        let conn = ad.add_lane(&a).expect("mem lane");
        ad.attach_engine(
            conn,
            ProtocolEngine::new(|io| requester(io, 1)),
            DriveOptions::new().with_cancel(cancel.clone()),
        );
        // Let it park waiting for the reply that will never come.
        let _ = ad.poll(Duration::from_millis(5));
        cancel.store(true, Ordering::Release);
        let started = Instant::now();
        let done = loop {
            let mut finished = Vec::new();
            for ev in ad.poll(Duration::from_millis(20)) {
                if let AsyncEvent::Finished { result, .. } = ev {
                    finished.push(result);
                }
            }
            if !finished.is_empty() {
                break finished;
            }
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "cancel never observed"
            );
        };
        let err = done[0].as_ref().expect_err("cancelled");
        assert_eq!(
            err,
            &TransportError::Budget("session cancelled (drain cut)".into())
        );
    }

    #[test]
    fn per_recv_timeout_comes_from_the_timer_wheel() {
        let (a, _b) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        let conn = ad.add_lane(&a).expect("mem lane");
        ad.attach_engine(
            conn,
            ProtocolEngine::new(|io| requester(io, 1)),
            DriveOptions::new().with_timeout(Duration::from_millis(30)),
        );
        let started = Instant::now();
        let done = ad.drive_all();
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "deadline observed, not WouldBlock-as-Timeout"
        );
        let err = done[0].1.as_ref().expect_err("timed out");
        assert_eq!(err, &TransportError::Timeout);
    }

    #[test]
    fn busy_frame_translates_to_busy_error() {
        let (a, b) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        let conn = ad.add_lane(&a).expect("mem lane");
        ad.attach_engine(
            conn,
            ProtocolEngine::new(|io| requester(io, 1)),
            DriveOptions::new(),
        );
        b.send(Frame {
            kind: KIND_BUSY,
            payload: bytes::Bytes::new(),
        })
        .expect("send busy");
        let done = ad.drive_all();
        assert_eq!(
            done[0].1.as_ref().expect_err("shed"),
            &TransportError::Busy {
                retry_after_ms: None
            }
        );
    }

    #[test]
    fn pending_lane_surfaces_opening_frame_and_idle_expiry() {
        let (a, b) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        let conn = ad.add_lane(&a).expect("mem lane");
        ad.set_idle_deadline(conn, Some(Duration::from_millis(40)));
        b.send(Frame::encode(0x0500, &7u64)).expect("send hello");
        let started = Instant::now();
        let frame = 'outer: loop {
            for ev in ad.poll(Duration::from_millis(10)) {
                if let AsyncEvent::Opening { conn: c, frame } = ev {
                    assert_eq!(c, conn);
                    break 'outer frame;
                }
            }
            assert!(started.elapsed() < Duration::from_secs(5), "no opening");
        };
        assert_eq!(frame.kind, 0x0500);
        // No engine attached, no more frames: the idle deadline fires.
        ad.set_idle_deadline(conn, Some(Duration::from_millis(30)));
        let started = Instant::now();
        'idle: loop {
            for ev in ad.poll(Duration::from_millis(10)) {
                if let AsyncEvent::IdleExpired { conn: c } = ev {
                    assert_eq!(c, conn);
                    break 'idle;
                }
            }
            assert!(started.elapsed() < Duration::from_secs(5), "no idle event");
        }
    }

    #[test]
    fn metrics_endpoint_scrapes_from_the_reactor_thread() {
        use std::io::{Read, Write};
        let reg = MetricsRegistry::new(1, "async-driver");
        let recorder = FlightRecorder::new(64);
        let (a, _b) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        ad = ad.with_metrics(reg);
        ad.set_flight_recorder(recorder.clone());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        ad.listen_metrics(listener).expect("listen_metrics");
        let addr = ad.metrics_addr().expect("addr");
        let conn = ad.add_lane(&a).expect("mem lane");
        ad.attach_engine(
            conn,
            ProtocolEngine::new(|io| requester(io, 1)),
            DriveOptions::new().with_limits(SessionLimits::unlimited().with_max_frames(9)),
        );
        let _ = ad.poll(Duration::from_millis(5));

        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("req");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        let mut body = Vec::new();
        let started = Instant::now();
        loop {
            let _ = ad.poll(Duration::from_millis(5));
            let mut buf = [0u8; 4096];
            match stream.read(&mut buf) {
                Ok(0) => break, // Connection: close — response complete.
                Ok(n) => body.extend_from_slice(&buf[..n]),
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("scrape read failed: {e}"),
            }
            assert!(started.elapsed() < Duration::from_secs(5), "scrape hung");
        }
        let text = String::from_utf8(body).expect("utf8");
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.contains("ppcs_reactor_wakeups_total"), "{text}");
        assert!(
            text.contains("ppcs_conn_info{conn=\"0.0\",state=\"active\""),
            "live session table present: {text}"
        );
        assert!(
            text.contains("ppcs_conn_budget_frames_remaining{conn=\"0.0\"}"),
            "budget remaining present: {text}"
        );
        // The admission landed in the flight recorder too.
        let events = recorder.snapshot();
        assert!(
            events
                .iter()
                .any(|e| e.kind == FlightEventKind::Admitted && e.conn_slot == 0),
            "{events:?}"
        );
    }

    #[test]
    fn an_idle_mem_lane_lets_the_reactor_sleep() {
        let reg = MetricsRegistry::new(1, "async-driver");
        let (a, _b) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new()
            .expect("driver")
            .with_metrics(reg.clone());
        ad.add_lane(&a).expect("mem lane");
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(100) {
            assert!(ad.poll(Duration::from_millis(100)).is_empty());
        }
        // One turn probes the freshly added lane, the next sleeps out the
        // wait: nothing polls the lane on a clock of its own.
        let wakeups = reg.report().reactor_wakeups;
        if ad.is_epoll() {
            assert!(wakeups <= 2, "{wakeups} wake-ups for 100 ms of nothing");
        }
    }

    #[test]
    fn a_peer_send_ends_a_long_poll() {
        let (a, b) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        let conn = ad.add_lane(&a).expect("mem lane");
        assert!(ad.poll(Duration::ZERO).is_empty(), "nothing sent yet");
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                let sent = Instant::now();
                b.send(Frame::encode(0x0500, &7u64)).expect("send hello");
                sent
            });
            let events = ad.poll(Duration::from_secs(5));
            let woke = Instant::now();
            let sent = peer.join().expect("peer");
            assert!(
                matches!(&events[..], [AsyncEvent::Opening { conn: c, .. }] if *c == conn),
                "{events:?}"
            );
            let latency = woke.duration_since(sent);
            assert!(latency < Duration::from_millis(20), "woke {latency:?} late");
        });
    }

    #[test]
    fn a_lane_that_cannot_wake_the_reactor_is_refused() {
        // A TCP endpoint's peer lives in another process: it belongs on
        // `add_tcp`, where the socket itself raises readiness.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let ep = crate::tcp::tcp_connect(listener.local_addr().expect("addr")).expect("connect");
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        assert_eq!(ad.add_lane(&ep), Err(TransportError::CannotNotify));
        assert_eq!(ad.conns(), 0);
    }

    #[test]
    fn closed_conn_ids_are_not_reused_against_stale_handles() {
        let (a, b) = duplex();
        let (c, _d) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new().expect("driver");
        let first = ad.add_lane(&a).expect("mem lane");
        ad.close(first);
        let second = ad.add_lane(&c).expect("mem lane");
        assert_ne!(first, second, "epoch distinguishes the recycled slot");
        assert!(!ad.is_open(first));
        assert!(ad.is_open(second));
        drop(b);
    }
}
