//! [`AsyncDriver`]: one thread, one reactor, thousands of sessions.
//!
//! Where [`Driver`](crate::Driver) parks an OS thread on every blocking
//! receive, `AsyncDriver` parks a *session* — an engine, its transcript
//! recorder, and its budget state — on a readiness event from the
//! [`Reactor`] or on the connection's one deadline. The session itself
//! is the crate's one `SessionCore`, the same code
//! [`Driver`](crate::Driver) steps, and the socket is framed by the
//! same reader and writer an [`Endpoint`] holds, so transcripts,
//! [`KIND_BUSY`](crate::KIND_BUSY) translation, [`TransportError::Budget`]
//! trips and the bytes on the wire cannot differ between the two; this
//! module only adds the reactor's way of waiting.
//!
//! Every connection is one kind: a nonblocking framed socket registered
//! edge-triggered with the reactor, accepted from a listener
//! ([`AsyncDriver::listen`]), handed over as a TCP stream
//! ([`AsyncDriver::add_tcp`]), or adopted from an [`Endpoint`] — a TCP
//! one or one half of a [`duplex`](crate::duplex) socket pair
//! ([`AsyncDriver::add_endpoint`]). Reads drain to `WouldBlock`. A
//! session's sends only queue: once its step returns, the connection
//! writes everything the step queued with one `writev`, so the frames a
//! session emits between two waits wake its peer once. Writes queue
//! under backpressure and resume on writable events; control frames
//! ([`send_frame`](AsyncDriver::send_frame)) leave at once. A turn
//! services only the connections the reactor named or whose deadline
//! passed. Deadlines sit in one ordered set, at most one per
//! connection.
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

use crate::channel::{Endpoint, Frame};
use crate::driver::{busy_frame, Transcript};
use crate::engine::ProtocolEngine;
use crate::error::TransportError;
use crate::reactor::{Deadlines, Reactor, ReactorEvent};
use crate::session::{DriveOptions, SessionCore, SessionIo, Step, DEFAULT_PER_RECV};
use crate::tcp::{halves, NbConn, Stream};

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
    /// the codec itself rejected). The connection is closed: its stream
    /// is desynchronized.
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
    lane: NbConn,
    session: Option<Session<'d, T, E>>,
    /// Idle deadline while pending (no engine). One-shot.
    idle_deadline: Option<Instant>,
    /// The connection's one armed entry in the driver's [`Deadlines`]:
    /// the idle deadline while pending, the session's wake-up while it
    /// is parked.
    timer: Option<Instant>,
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
    deadlines: Deadlines,
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
    /// The one buffer every TCP connection reads into, allocated once.
    read_buf: Box<[u8]>,
}

impl<T, E: From<TransportError>> Default for AsyncDriver<'_, T, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'d, T, E: From<TransportError>> AsyncDriver<'d, T, E> {
    /// Opens a driver with its own reactor and deadline set.
    pub fn new() -> Self {
        Self {
            reactor: Reactor::new(),
            deadlines: Deadlines::default(),
            slots: Vec::new(),
            free: Vec::new(),
            listener: None,
            metrics: None,
            ready_next: Vec::new(),
            active_sessions: 0,
            conns: 0,
            metrics_listener: None,
            metrics_conns: HashMap::new(),
            next_metrics_token: METRICS_TOKEN_BASE,
            recorder: None,
            session_seq: 0,
            read_buf: vec![0; NbConn::READ_CHUNK].into_boxed_slice(),
        }
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
        let (reader, writer) = halves(Stream::tcp(stream)?, &Arc::default());
        self.add(NbConn::new(reader, writer)?)
    }

    /// Adds `endpoint` (a TCP one, or one half of a
    /// [`duplex`](crate::duplex) pair) as a pending connection. The
    /// driver takes over the endpoint's reader and writer as they are:
    /// whatever the reader had already read and not delivered is
    /// delivered here, and traffic keeps counting into the endpoint's
    /// counters.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on socket configuration or registration
    /// failure.
    pub fn add_endpoint(&mut self, endpoint: Endpoint) -> Result<ConnId, TransportError> {
        let (reader, writer) = endpoint.into_halves();
        self.add(NbConn::new(reader, writer)?)
    }

    fn add(&mut self, lane: NbConn) -> Result<ConnId, TransportError> {
        let fd = lane.fd();
        // Frames an endpoint already read out of its socket raise no edge.
        let buffered = lane.reader.recv_ready();
        let id = self.insert(Conn {
            lane,
            session: None,
            idle_deadline: None,
            timer: None,
        });
        self.reactor.register(fd, u64::from(id.slot))?;
        if buffered {
            self.ready_next.push(id.slot);
        }
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

    /// Arms (or clears) the pending-idle deadline: if no frame arrives
    /// on this pending connection within `after`, one
    /// [`AsyncEvent::IdleExpired`] fires.
    pub fn set_idle_deadline(&mut self, id: ConnId, after: Option<Duration>) {
        let Some(conn) = conn_mut(&mut self.slots, id) else {
            return;
        };
        conn.idle_deadline = after.map(|d| Instant::now() + d);
        match conn.idle_deadline {
            Some(at) => self.deadlines.arm(id.slot, &mut conn.timer, at),
            None => self.deadlines.cancel(id.slot, &mut conn.timer),
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
        // Peer input cannot reach either panic. A connection goes away
        // only through `close`: called by the caller, or by `poll` right
        // after it reports the id `Closed` or `Malformed`. A session is
        // attached only here and detached only by `poll`, which reports
        // it `Finished`. Both panics therefore mean that the caller
        // attached to an id it was told is gone, or attached twice.
        let conn = conn_mut(&mut self.slots, id).expect("attach_engine: unknown conn");
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
    /// It is written at once, not at the end of the turn.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] for an unknown connection, or
    /// any transport failure from the underlying lane.
    pub fn send_frame(&mut self, id: ConnId, frame: Frame) -> Result<(), TransportError> {
        let Some(conn) = conn_mut(&mut self.slots, id) else {
            return Err(TransportError::Disconnected);
        };
        conn.lane.writer.queue(&frame)?;
        conn.lane.flush().map(|_| ())
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
        let Some(mut conn) = s.conn.take() else {
            return;
        };
        s.epoch = s.epoch.wrapping_add(1);
        s.queued = false;
        self.free.push(id.slot);
        self.deadlines.cancel(id.slot, &mut conn.timer);
        self.conns -= 1;
        if conn.session.is_some() {
            self.active_sessions -= 1;
        }
        self.reactor.deregister(u64::from(id.slot));
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
    /// by the next deadline and pending work), services every ready
    /// connection, and returns what happened. An empty vector means the
    /// turn was quiet — poll again.
    pub fn poll(&mut self, max_wait: Duration) -> Vec<AsyncEvent<T, E>> {
        let mut events = Vec::new();
        let now = Instant::now();

        // Bound the wait by whichever comes first: the caller's cap,
        // the next deadline, or pending ready work (which needs a zero
        // wait).
        let mut wait = max_wait;
        if let Some(due) = self.deadlines.next_due(now) {
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

        // Collect the service set: explicit readiness, passed deadlines
        // and carried-over ready work.
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
        let fired_at = Instant::now();
        while let Some((deadline, slot)) = self.deadlines.pop_due(fired_at) {
            // A closed connection cancelled its deadline: the slot is live.
            let Some(s) = self.slots.get_mut(slot as usize) else {
                continue;
            };
            if let Some(conn) = s.conn.as_mut() {
                conn.timer = None;
            }
            let drift = fired_at.saturating_duration_since(deadline);
            if let Some(reg) = &self.metrics {
                reg.record_timer_fire();
                reg.record_reactor(ReactorMetric::TimerDriftNs, drift.as_nanos() as u64);
            }
            if let Some(rec) = &self.recorder {
                rec.record(
                    FlightEventKind::TimerFire,
                    slot,
                    s.epoch,
                    drift.as_nanos() as u64,
                );
            }
            enqueue(&mut self.slots, slot);
        }
        for slot in std::mem::take(&mut self.ready_next) {
            enqueue(&mut self.slots, slot);
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

    /// Services one connection: fills its reader, pumps its session (or
    /// delivers a pending frame), and writes what the step queued.
    fn service(&mut self, slot: u32, events: &mut Vec<AsyncEvent<T, E>>) {
        let epoch = self.slots[slot as usize].epoch;
        let id = ConnId { slot, epoch };
        let Some(conn) = self.slots[slot as usize].conn.as_mut() else {
            return;
        };

        // Pull everything the transport has, once per turn: the session
        // and the pending path below only pop parsed frames, and bytes
        // that arrive after this drain raise a new edge. Sticky failures
        // surface through try_recv.
        let fill_err = conn.lane.reader.fill(&mut self.read_buf).err();
        let step = conn.session.as_mut().map(|s| {
            // Engines poll on this thread, so installing the session's
            // scope here captures every protocol-phase span — and
            // because the scope carries (slot, epoch, seq), interleaved
            // sessions attribute their spans, trace lines, and trace-out
            // events to the right ConnId.
            let _collector = s.core.metrics().cloned().map(|reg| {
                ppcs_telemetry::install_scope(TraceScope::for_conn(reg, slot, epoch, s.seq))
            });
            s.core.step(&mut s.engine, &mut conn.lane)
        });
        // One write per flight: every frame the step queued leaves now,
        // in one write behind whatever backpressure held back, which
        // writable events otherwise resume.
        let unsent = conn.lane.writer.wants_write() && conn.lane.flush().is_err();
        if let Some(reg) = &self.metrics {
            reg.record_reactor(
                ReactorMetric::WriteBufDepth,
                conn.lane.writer.pending_write_bytes() as u64,
            );
            if let Some(ns) = conn.lane.writer.take_stall_ns() {
                reg.record_reactor(ReactorMetric::WritableStallNs, ns);
            }
        }

        match (step, conn.session.as_mut()) {
            (Some(Step::Parked { wake_at }), _) => {
                self.deadlines.arm(slot, &mut conn.timer, wake_at);
                // The failed write fails the session at its next step.
                if unsent {
                    self.ready_next.push(slot);
                }
                return;
            }
            (Some(Step::Finished(result)), Some(s)) => {
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
                self.deadlines.cancel(slot, &mut conn.timer);
                // A frame or the stream's end may already wait.
                if conn.lane.reader.recv_ready() {
                    self.ready_next.push(slot);
                }
                events.push(AsyncEvent::Finished {
                    conn: id,
                    result,
                    transcript,
                });
                return;
            }
            _ => {}
        }

        // Pending connection: deliver at most one frame per turn so the
        // caller can react (admit / shed / close) before the next one.
        match conn.lane.reader.try_recv() {
            Ok(Some(frame)) => {
                // The idle deadline stays armed: a handler that leaves
                // it alone (a health probe does) must not keep the
                // connection from being reaped on time.
                if conn.lane.reader.recv_ready() {
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
                if let Some(rec) = &self.recorder {
                    rec.record(FlightEventKind::Malformed, slot, epoch, 0);
                }
                events.push(AsyncEvent::Malformed {
                    conn: id,
                    error: fill_err.unwrap_or(e),
                });
                self.close(id);
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

/// The open connection `id` names in `slots`, if any.
fn conn_mut<'s, 'd, T, E>(
    slots: &'s mut [Slot<'d, T, E>],
    id: ConnId,
) -> Option<&'s mut Conn<'d, T, E>> {
    let s = slots.get_mut(id.slot as usize)?;
    if s.epoch != id.epoch {
        return None;
    }
    s.conn.as_mut()
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
            let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
            let conn = ad.add_endpoint(a2).expect("socket pair");
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
        let (ours, theirs): (Vec<_>, Vec<_>) = (0..N).map(|_| duplex()).unzip();
        std::thread::scope(|scope| {
            for b in &theirs {
                scope.spawn(move || {
                    let mut engine = ProtocolEngine::new(|io| responder(io, 3));
                    Driver::new().drive(b, &mut engine).expect("responder")
                });
            }
            let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
            for a in ours {
                let conn = ad.add_endpoint(a).expect("socket pair");
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
            let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
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
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad.add_endpoint(a).expect("socket pair");
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
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad.add_endpoint(a).expect("socket pair");
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
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad.add_endpoint(a).expect("socket pair");
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
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad.add_endpoint(a).expect("socket pair");
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
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        ad = ad.with_metrics(reg);
        ad.set_flight_recorder(recorder.clone());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        ad.listen_metrics(listener).expect("listen_metrics");
        let addr = ad.metrics_addr().expect("addr");
        let conn = ad.add_endpoint(a).expect("socket pair");
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
        let mut ad: AsyncDriver<'_, u64, TransportError> =
            AsyncDriver::new().with_metrics(reg.clone());
        ad.add_endpoint(a).expect("socket pair");
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(100) {
            assert!(ad.poll(Duration::from_millis(100)).is_empty());
        }
        // One turn services the freshly registered socket's first edge,
        // the next sleeps out the wait: nothing polls the lane on a
        // clock of its own.
        let wakeups = reg.report().reactor_wakeups;
        if ad.is_epoll() {
            assert!(wakeups <= 2, "{wakeups} wake-ups for 100 ms of nothing");
        }
    }

    #[test]
    fn a_peer_send_over_a_socket_pair_ends_a_long_poll() {
        let (a, b) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad.add_endpoint(a).expect("socket pair");
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
    fn a_step_writes_its_flight_once_and_control_frames_leave_at_once() {
        let (ours, peer) = duplex();
        peer.set_recv_timeout(Some(Duration::from_secs(5)));
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad.add_endpoint(ours).expect("socket pair");
        let writes = |ad: &AsyncDriver<'_, u64, TransportError>| {
            let open = ad.slots[conn.slot as usize].conn.as_ref();
            open.expect("open").lane.writer.writes
        };
        // A probe answer and a shed reply are written before the call
        // returns, without a turn.
        let health = crate::HealthStatus::default();
        ad.send_frame(conn, health.reply()).expect("health reply");
        assert_eq!(writes(&ad), 1);
        assert_eq!(peer.recv(), Ok(health.reply()));
        ad.send_busy(conn).expect("shed");
        assert_eq!(writes(&ad), 2);
        assert_eq!(peer.recv().map(|f| f.kind), Ok(KIND_BUSY));
        // A step that emits a ticket and an answer writes them once.
        peer.send_msg(1, &21u64).expect("hello");
        ad.attach_engine(
            conn,
            ProtocolEngine::new(|io| async move {
                let n: u64 = io.recv_msg(1).await?;
                io.send_msg(2, &n)?;
                io.send_msg(3, &(2 * n))?;
                Ok(n)
            }),
            DriveOptions::new(),
        );
        let done = ad.drive_all();
        assert_eq!(done[0].1, Ok(21));
        assert_eq!(writes(&ad), 3);
        assert_eq!(peer.recv_msg::<u64>(2), Ok(21));
        assert_eq!(peer.recv_msg::<u64>(3), Ok(42));
    }

    #[test]
    fn a_flight_that_cannot_leave_fails_its_session() {
        // The peer stops reading but keeps its end open: the flight's
        // write fails, and nothing arrives to wake the parked session.
        let (ours, peer) = std::os::unix::net::UnixStream::pair().expect("socket pair");
        peer.shutdown(std::net::Shutdown::Read).expect("shutdown");
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad
            .add_endpoint(Endpoint::from_stream(Stream::Unix(ours)))
            .expect("socket pair");
        let opts = DriveOptions::new().with_timeout(Duration::from_secs(10));
        ad.attach_engine(conn, ProtocolEngine::new(|io| requester(io, 1)), opts);
        let started = Instant::now();
        let done = ad.drive_all();
        assert_eq!(done[0].1, Err(TransportError::Disconnected));
        assert!(started.elapsed() < Duration::from_secs(5), "failed at once");
    }

    #[test]
    fn a_turn_services_only_the_busy_connection() {
        let reg = MetricsRegistry::new(1, "async-driver");
        let mut ad: AsyncDriver<'_, u64, TransportError> =
            AsyncDriver::new().with_metrics(reg.clone());
        let mut peers = Vec::new();
        for _ in 0..65 {
            let (ours, theirs) = duplex();
            ad.add_endpoint(ours).expect("socket pair");
            peers.push(theirs);
        }
        // Registration raises each socket's first (writable) edge, at
        // most 64 per wait; let them pass.
        for _ in 0..3 {
            assert!(ad.poll(Duration::ZERO).is_empty());
        }
        peers[64]
            .send(Frame::encode(0x0500, &7u64))
            .expect("send hello");
        // No timer and no carried-over work: the turn services exactly
        // the connections the reactor reports.
        assert!(ad.ready_next.is_empty() && ad.deadlines.len() == 0);
        let before = reg.report().reactor_events;
        let events = ad.poll(Duration::from_secs(5));
        assert!(
            matches!(&events[..], [AsyncEvent::Opening { conn, .. }] if conn.slot() == 64),
            "{events:?}"
        );
        if ad.is_epoll() {
            assert_eq!(
                reg.report().reactor_events - before,
                1,
                "64 idle lanes stay asleep"
            );
        }
    }

    #[test]
    fn a_frame_read_ahead_by_a_blocking_recv_is_not_lost() {
        let (a, b) = duplex();
        // One write carries a batch of two, then a plain frame: the first
        // blocking receive leaves a sub-frame of the batch and the plain
        // frame in the reader, which moves to the reactor as it is.
        let batch = [Frame::encode(0x0500, &1u64), Frame::encode(0x0500, &2u64)];
        b.send_coalesced(&batch).expect("batch");
        b.send(Frame::encode(0x0500, &3u64)).expect("plain");
        assert_eq!(a.recv().expect("first"), batch[0]);
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        ad.add_endpoint(a).expect("socket pair");
        let mut got = Vec::new();
        let started = Instant::now();
        while got.len() < 2 {
            for ev in ad.poll(Duration::from_millis(10)) {
                if let AsyncEvent::Opening { frame, .. } = ev {
                    got.push(frame.decode_as::<u64>(0x0500).expect("u64"));
                }
            }
            assert!(started.elapsed() < Duration::from_secs(5), "{got:?}");
        }
        assert_eq!(got, [2, 3]);
    }

    #[test]
    fn a_tcp_endpoint_is_adopted_like_a_socket_pair() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let ours = crate::tcp::tcp_connect(listener.local_addr().expect("addr")).expect("connect");
        let theirs = crate::tcp::tcp_accept(&listener).expect("accept");
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let conn = ad.add_endpoint(ours).expect("tcp endpoint");
        theirs
            .send(Frame::encode(0x0500, &7u64))
            .expect("send hello");
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
        assert_eq!(frame.decode_as::<u64>(0x0500), Ok(7));
        assert_eq!(ad.conns(), 1);
    }

    #[test]
    fn closed_conn_ids_are_not_reused_against_stale_handles() {
        let (a, b) = duplex();
        let (c, _d) = duplex();
        let mut ad: AsyncDriver<'_, u64, TransportError> = AsyncDriver::new();
        let first = ad.add_endpoint(a).expect("socket pair");
        ad.close(first);
        let second = ad.add_endpoint(c).expect("socket pair");
        assert_ne!(first, second, "epoch distinguishes the recycled slot");
        assert!(!ad.is_open(first));
        assert!(ad.is_open(second));
        drop(b);
    }

    /// What a serving loop saw, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Opening(Frame),
        Finished(Result<u64, TransportError>),
        Closed,
        IdleExpired,
        Malformed,
    }

    /// Runs `ad` as a serving loop until `done(&log)` holds: every
    /// accepted or released connection gets a 60 s idle deadline, and
    /// with `admit` every opening frame starts a `responder(io, rounds)`
    /// session. Fails after 5 s.
    fn serve_log(
        ad: &mut AsyncDriver<'_, u64, TransportError>,
        rounds: u64,
        admit: bool,
        done: impl Fn(&[Seen]) -> bool,
    ) -> Vec<Seen> {
        let idle = Some(Duration::from_secs(60));
        let mut log = Vec::new();
        let started = Instant::now();
        while !done(&log) {
            assert!(started.elapsed() < Duration::from_secs(5), "{log:?}");
            for ev in ad.poll(Duration::from_millis(10)) {
                match ev {
                    AsyncEvent::Accepted { conn } => ad.set_idle_deadline(conn, idle),
                    AsyncEvent::Opening { conn, frame } => {
                        if admit {
                            let mut engine = ProtocolEngine::new(move |io| responder(io, rounds));
                            engine.handle_input(frame.clone());
                            ad.attach_engine(conn, engine, DriveOptions::new());
                        }
                        log.push(Seen::Opening(frame));
                    }
                    AsyncEvent::Finished { conn, result, .. } => {
                        ad.set_idle_deadline(conn, idle);
                        log.push(Seen::Finished(result));
                    }
                    AsyncEvent::Closed { .. } => log.push(Seen::Closed),
                    AsyncEvent::IdleExpired { .. } => log.push(Seen::IdleExpired),
                    AsyncEvent::Malformed { .. } => log.push(Seen::Malformed),
                }
            }
        }
        log
    }

    /// `frame` as it crosses a TCP stream.
    fn wire(frame: &Frame) -> Vec<u8> {
        let mut out = frame.kind.to_le_bytes().to_vec();
        out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame.payload);
        out
    }

    /// Reads one `0x0101` reply off a blocking stream.
    fn read_reply(stream: &mut TcpStream) -> u64 {
        use std::io::Read;
        let mut buf = [0u8; Frame::HEADER_LEN + 8];
        stream.read_exact(&mut buf).expect("reply");
        let frame = Frame {
            kind: u16::from_le_bytes([buf[0], buf[1]]),
            payload: bytes::Bytes::copy_from_slice(&buf[Frame::HEADER_LEN..]),
        };
        frame.decode_as(0x0101).expect("a 0x0101 reply")
    }

    fn listening() -> (
        AsyncDriver<'static, u64, TransportError>,
        std::net::SocketAddr,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut ad = AsyncDriver::new();
        ad.listen(listener).expect("listen");
        (ad, addr)
    }

    #[test]
    fn frames_written_in_small_segments_arrive_whole() {
        use std::io::Write;
        let (mut ad, addr) = listening();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                // The opening frame, then one frame of the running
                // session, each in 3-byte segments with pauses between.
                for i in 1..=2u64 {
                    for segment in wire(&Frame::encode(0x0100, &i)).chunks(3) {
                        stream.write_all(segment).expect("segment");
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    assert_eq!(read_reply(&mut stream), 2 * i);
                }
            });
            let log = serve_log(&mut ad, 2, true, |log| {
                log.iter().any(|s| matches!(s, Seen::Finished(_)))
            });
            assert_eq!(
                log,
                [
                    Seen::Opening(Frame::encode(0x0100, &1u64)),
                    Seen::Finished(Ok(2))
                ]
            );
        });
    }

    #[test]
    fn a_frame_followed_at_once_by_close_surfaces_as_closed() {
        use std::io::Write;
        let (mut ad, addr) = listening();
        let opening = Frame::encode(0x0100, &1u64);
        let send_and_close = || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&wire(&opening)).expect("write");
        };
        // A pending connection: the frame, then the close, with no idle
        // expiry in between.
        send_and_close();
        let log = serve_log(&mut ad, 2, false, |log| log.contains(&Seen::Closed));
        assert_eq!(log, [Seen::Opening(opening.clone()), Seen::Closed]);
        // The frame opens a session that wants one more: the close ends
        // the session, then the connection.
        send_and_close();
        let log = serve_log(&mut ad, 2, true, |log| log.contains(&Seen::Closed));
        assert_eq!(
            log,
            [
                Seen::Opening(opening),
                Seen::Finished(Err(TransportError::Disconnected)),
                Seen::Closed
            ]
        );
        assert_eq!(ad.conns(), 0);
    }

    #[test]
    fn two_sessions_back_to_back_on_one_connection() {
        use std::io::Write;
        let (mut ad, addr) = listening();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                // Both sessions' frames in one write: the second opens
                // from the buffer the first one's fill left behind.
                let mut both = wire(&Frame::encode(0x0100, &1u64));
                both.extend(wire(&Frame::encode(0x0100, &2u64)));
                stream.write_all(&both).expect("write");
                assert_eq!(read_reply(&mut stream), 2);
                assert_eq!(read_reply(&mut stream), 4);
            });
            let log = serve_log(&mut ad, 1, true, |log| log.contains(&Seen::Closed));
            assert_eq!(
                log,
                [
                    Seen::Opening(Frame::encode(0x0100, &1u64)),
                    Seen::Finished(Ok(1)),
                    Seen::Opening(Frame::encode(0x0100, &2u64)),
                    Seen::Finished(Ok(1)),
                    Seen::Closed
                ]
            );
        });
    }

    #[test]
    fn sequential_tcp_sessions_leave_at_most_one_timer_per_connection() {
        const SESSIONS: usize = 2_000;
        let (mut ad, addr) = listening();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for _ in 0..SESSIONS {
                    let ep = crate::tcp::tcp_connect(addr).expect("connect");
                    let mut engine = ProtocolEngine::new(|io| requester(io, 2));
                    Driver::new().drive(&ep, &mut engine).expect("session");
                }
            });
            let idle = Some(Duration::from_secs(30));
            let cancel = Arc::new(AtomicBool::new(false));
            let (mut finished, mut closed) = (0, 0);
            while closed < SESSIONS {
                for ev in ad.poll(Duration::from_millis(50)) {
                    match ev {
                        AsyncEvent::Accepted { conn } => ad.set_idle_deadline(conn, idle),
                        AsyncEvent::Opening { conn, frame } => {
                            let mut engine = ProtocolEngine::new(|io| responder(io, 2));
                            engine.handle_input(frame);
                            // A cancel token parks the session under a
                            // 20 ms slice as well as its receive window.
                            let opts = DriveOptions::new().with_cancel(cancel.clone());
                            ad.attach_engine(conn, engine, opts);
                        }
                        AsyncEvent::Finished { conn, result, .. } => {
                            assert_eq!(result, Ok(2));
                            finished += 1;
                            ad.set_idle_deadline(conn, idle);
                        }
                        AsyncEvent::Closed { .. } => closed += 1,
                        other => panic!("{other:?}"),
                    }
                }
                assert!(
                    ad.deadlines.len() <= ad.conns(),
                    "{} timers for {} connections",
                    ad.deadlines.len(),
                    ad.conns()
                );
            }
            assert_eq!(finished, SESSIONS);
            assert_eq!((ad.conns(), ad.deadlines.len()), (0, 0));
        });
    }
}
