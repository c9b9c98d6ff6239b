//! Multi-client serving runtime for classification trainers.
//!
//! [`TrainerServer`] wraps a [`Trainer`] so it can face many concurrent
//! client connections from one reactor thread ([`AsyncDriver`]) while
//! staying healthy under load and abuse:
//!
//! * **Admission control** — at most `max_sessions` classification
//!   sessions run at once; a session arriving beyond capacity (or after
//!   a drain began) is answered with one
//!   [`KIND_BUSY`](ppcs_transport::KIND_BUSY) frame and shed, never
//!   silently dropped or queued unboundedly.
//! * **Session budgets** — every admitted session is driven under the
//!   configured [`SessionLimits`] (wall-clock deadline, frame count,
//!   wire bytes), so a slow-loris or flooding peer is cut with a typed
//!   [`TransportError::Budget`](ppcs_transport::TransportError) inside
//!   its budget instead of holding a slot forever.
//! * **Graceful drain** — [`SessionSupervisor::drain`] stops admission
//!   immediately, lets in-flight sessions finish inside the drain
//!   deadline, then cuts the stragglers through the sessions' shared
//!   cancel token.
//!
//! Every hostile-session outcome is counted ([`ServeSummary`]) and, when
//! a [`MetricsRegistry`] is attached, surfaces through the standard
//! telemetry report (`sessions_admitted`, `sessions_shed`,
//! `budget_exceeded`, `malformed_rejected`).

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ppcs_math::Algebra;
use ppcs_ot::{ObliviousTransfer, OtSelect};
use ppcs_telemetry::{
    FlightEventKind, FlightRecorder, MetricsRegistry, DETAIL_DRAIN_BEGAN, DETAIL_DRAIN_CUT,
};
use ppcs_transport::{
    AsyncDriver, AsyncEvent, ConnId, DriveOptions, Endpoint, Frame, HealthStatus, ProtocolEngine,
    SessionLimits, TransportError, KIND_HEALTH,
};

use crate::classify::{transport_cause, Trainer, KIND_CLS_HELLO, KIND_CLS_WARM_HELLO};
use crate::error::PpcsError;
use crate::precompute::PrecomputePool;

/// How long a sessionless connection stays open once a drain begins,
/// and the longest reactor wait while a drain's grace period runs.
const POLL_SLICE: Duration = Duration::from_millis(20);

/// Configuration for a [`TrainerServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum classification sessions served concurrently; arrivals
    /// beyond this are shed with a `KIND_BUSY` frame.
    pub max_sessions: usize,
    /// Budgets every admitted session is driven under.
    pub limits: SessionLimits,
    /// How long an idle connection (connected, but no session opening)
    /// is kept before the reactor closes it.
    pub idle_timeout: Duration,
    /// Grace period between [`SessionSupervisor::drain`] and the forced
    /// cut of still-running sessions.
    pub drain_deadline: Duration,
    /// How many precomputed offline packs the serving run keeps ready
    /// (filled from idle time, drained on
    /// [`SessionSupervisor::drain`]). `0` disables precomputation
    /// entirely — every session then runs monolithically.
    pub precompute_capacity: usize,
    /// Masking polynomials per precomputed pack — one is consumed per
    /// sample, so size this near the expected batch size. A session
    /// whose batch outgrows its pack refreshes the remainder inline.
    pub precompute_masks: usize,
    /// Retry-after hint carried in `KIND_BUSY` shed replies: how long a
    /// shed client should wait before redialing. `None` sheds without a
    /// hint (the client falls back to its own backoff).
    pub retry_after: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            limits: SessionLimits::unlimited()
                .with_deadline(Duration::from_secs(30))
                .with_max_frames(1 << 16)
                .with_max_wire_bytes(64 << 20),
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(1),
            precompute_capacity: 8,
            precompute_masks: 16,
            retry_after: Some(Duration::from_millis(100)),
        }
    }
}

#[derive(Debug, Default)]
struct SupervisorInner {
    max_sessions: usize,
    active: AtomicUsize,
    draining: AtomicBool,
    /// Shared with every session through [`DriveOptions::with_cancel`]:
    /// set once the drain deadline passes to cut in-flight sessions.
    cut: Arc<AtomicBool>,
    admitted: AtomicU64,
    shed: AtomicU64,
    budget_exceeded: AtomicU64,
    malformed_rejected: AtomicU64,
}

/// Cloneable control/observation handle over a serving run: admission
/// state, drain control, and the hostile-session counters.
///
/// Obtain one with [`TrainerServer::supervisor`] before calling
/// [`TrainerServer::serve`], hand it to another thread, and use it to
/// watch or drain the run.
#[derive(Clone, Debug)]
pub struct SessionSupervisor {
    inner: Arc<SupervisorInner>,
}

impl SessionSupervisor {
    fn new(max_sessions: usize) -> Self {
        Self {
            inner: Arc::new(SupervisorInner {
                max_sessions,
                ..SupervisorInner::default()
            }),
        }
    }

    /// Sessions currently being served.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::Acquire)
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Begins a graceful drain: admission stops immediately, in-flight
    /// sessions get the configured drain deadline to finish, then the
    /// cut token terminates whatever remains.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Whether the forced cut (post-drain-deadline) has fired.
    pub fn cut(&self) -> bool {
        self.inner.cut.load(Ordering::Acquire)
    }

    fn force_cut(&self) {
        self.inner.cut.store(true, Ordering::Release);
    }

    /// Tries to claim a session slot; `None` when at capacity or
    /// draining. The slot is released when the permit drops.
    fn try_admit(&self) -> Option<SessionPermit> {
        if self.draining() {
            return None;
        }
        let mut current = self.inner.active.load(Ordering::Acquire);
        loop {
            if current >= self.inner.max_sessions {
                return None;
            }
            match self.inner.active.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Some(SessionPermit {
                        supervisor: self.clone(),
                    })
                }
                Err(seen) => current = seen,
            }
        }
    }

    fn summary(&self, served_samples: usize) -> ServeSummary {
        ServeSummary {
            served_samples,
            sessions_admitted: self.inner.admitted.load(Ordering::Relaxed),
            sessions_shed: self.inner.shed.load(Ordering::Relaxed),
            budget_exceeded: self.inner.budget_exceeded.load(Ordering::Relaxed),
            malformed_rejected: self.inner.malformed_rejected.load(Ordering::Relaxed),
        }
    }
}

/// RAII admission slot: dropping it frees capacity for the next session.
#[derive(Debug)]
struct SessionPermit {
    supervisor: SessionSupervisor,
}

/// Per-connection serving state: the stable lane index and session
/// counter feeding the per-session seed formula, plus the held
/// admission permit while a session is in flight.
#[derive(Debug)]
struct ConnMeta {
    lane_idx: u64,
    sessions: u64,
    permit: Option<SessionPermit>,
}

impl ConnMeta {
    fn new(lane_idx: u64) -> Self {
        Self {
            lane_idx,
            sessions: 0,
            permit: None,
        }
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.supervisor.inner.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What one serving run shares across its connections.
struct Run<A: Algebra> {
    sel: OtSelect,
    seed: u64,
    pool: Option<PrecomputePool<A>>,
}

/// What the first frame on a sessionless connection asks for, decided
/// by [`TrainerServer::open_session`]; the event loop only has to
/// carry it out.
enum Opening<'s> {
    /// A liveness/readiness probe: send the reply. Answered before (and
    /// instead of) admission, even at capacity or mid-drain, and never a
    /// reason to keep an otherwise-idle connection alive.
    Health(Frame),
    /// Not a session opening: stale or hostile traffic, already counted.
    Malformed,
    /// At capacity or draining, already counted: answer with a
    /// `KIND_BUSY` carrying the configured retry-after hint. A shed warm
    /// hello closes its connection: the client's first flight follows
    /// the hello unasked, and read as an opening it would count an
    /// honest client as malformed.
    Shed { warm: bool },
    /// Admitted: drive the engine (the opening frame is already in it)
    /// under these options, then [`TrainerServer::settle`] the result.
    Admit(ProtocolEngine<'s, usize, PpcsError>, DriveOptions),
}

/// What a finished session means for its connection.
enum Settled {
    /// Completed: this many samples were classified.
    Served(usize),
    /// The peer is gone; so is the connection.
    Hangup,
    /// Cut for exhausting a budget (drain cuts included).
    BudgetCut,
    /// Failed on its own account; the connection can serve another.
    Failed,
}

/// Outcome counters for one [`TrainerServer::serve`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Samples classified across every successfully completed session.
    pub served_samples: usize,
    /// Sessions admitted (whether or not they later completed).
    pub sessions_admitted: u64,
    /// Sessions shed at admission with a `KIND_BUSY` reply.
    pub sessions_shed: u64,
    /// Admitted sessions terminated for exhausting a budget (including
    /// drain cuts).
    pub budget_exceeded: u64,
    /// Sessions terminated for malformed or protocol-violating input.
    pub malformed_rejected: u64,
}

/// A hardened multi-client front for a [`Trainer`]: admission control,
/// per-session budgets, and graceful drain over [`Endpoint`]s (socket
/// pairs or TCP) or a TCP listener, all on one reactor thread. To use more cores, run one server
/// per thread.
///
/// # Examples
///
/// ```
/// use ppcs_core::{ProtocolConfig, ServerConfig, Trainer, TrainerServer};
/// use ppcs_math::FixedFpAlgebra;
/// use ppcs_ot::TrustedSimOt;
/// use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
/// use ppcs_transport::duplex_pool;
///
/// let mut dataset = Dataset::new(2);
/// dataset.push(vec![1.0, 1.0], Label::Positive);
/// dataset.push(vec![-1.0, -1.0], Label::Negative);
/// let model = SvmModel::train(&dataset, Kernel::Linear, &SmoParams::default());
/// let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, ProtocolConfig::default()).unwrap();
///
/// let server = TrainerServer::new(&trainer, ServerConfig::default());
/// let (server_lanes, client_lanes) = duplex_pool(2);
/// let ot = TrustedSimOt;
/// std::thread::scope(|scope| {
///     scope.spawn(|| {
///         // Clients classify on `client_lanes` concurrently...
///         drop(client_lanes); // (here: nobody calls, lanes just close)
///     });
///     let summary = server.serve(server_lanes, &ot, 7).unwrap();
///     assert_eq!(summary.sessions_shed, 0);
/// });
/// ```
pub struct TrainerServer<'a, A: Algebra> {
    trainer: &'a Trainer<A>,
    config: ServerConfig,
    supervisor: SessionSupervisor,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Post-mortem flight recorder shared with the reactor.
    recorder: Option<Arc<FlightRecorder>>,
    /// A `/metrics` endpoint listener handed to the next serving run.
    /// Interior mutability because the serve entry points take `&self`
    /// but the driver consumes the listener.
    metrics_endpoint: Mutex<Option<TcpListener>>,
}

impl<'a, A: Algebra> TrainerServer<'a, A> {
    /// Wraps `trainer` for multi-client serving under `config`.
    pub fn new(trainer: &'a Trainer<A>, config: ServerConfig) -> Self {
        let supervisor = SessionSupervisor::new(config.max_sessions);
        Self {
            trainer,
            config,
            supervisor,
            metrics: None,
            recorder: None,
            metrics_endpoint: Mutex::new(None),
        }
    }

    /// Attaches a telemetry registry: admission decisions and session
    /// outcomes are counted there, and every session driver reports its
    /// wire traffic and budget trips through it.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a post-mortem flight recorder: admission, shedding,
    /// budget trips, malformed input, timer fires, and drain state
    /// transitions land in its fixed-size ring. At the end of a run the
    /// ring is dumped to the path in `PPCS_FLIGHT_OUT` (when
    /// set); it can also be scraped live through
    /// [`with_metrics_endpoint`](TrainerServer::with_metrics_endpoint)
    /// at `GET /flightrecorder`.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Serves a live `/metrics` (Prometheus text exposition plus live
    /// session table) and `/flightrecorder` endpoint on `listener`
    /// during the **next** serving run, multiplexed on the same
    /// reactor thread as the protocol traffic. Bind to loopback unless
    /// the scrape network is trusted: the surface never carries
    /// payloads, but it is unauthenticated.
    #[must_use]
    pub fn with_metrics_endpoint(mut self, listener: TcpListener) -> Self {
        // No code panics while holding this lock, so a poisoned one
        // still holds a consistent `Option`.
        let endpoint = self.metrics_endpoint.get_mut();
        *endpoint.unwrap_or_else(PoisonError::into_inner) = Some(listener);
        self
    }

    /// A handle for watching or draining the run from another thread.
    pub fn supervisor(&self) -> SessionSupervisor {
        self.supervisor.clone()
    }

    /// Opens a serving run: its OT engine, its seed, and its precompute
    /// pool (when enabled) bound to this trainer's spec, with one pack
    /// ready before the first client arrives.
    fn begin_run(&self, ot: &dyn ObliviousTransfer, seed: u64) -> Run<A> {
        let sel = ot.select();
        let pool = (self.config.precompute_capacity > 0).then(|| {
            let mut pool = PrecomputePool::new(
                self.trainer.alg().clone(),
                sel,
                self.trainer.spec().ompe,
                self.config.precompute_capacity,
                self.config.precompute_masks,
                // Domain-separated from the session seeds so offline
                // draws never overlap an online session's randomness.
                seed ^ 0x0FF1_CE0F_F1CE_0FF1,
            );
            if let Some(reg) = &self.metrics {
                pool = pool.with_metrics(reg.clone());
            }
            pool.fill_one();
            pool
        });
        Run { sel, seed, pool }
    }

    /// The per-session policy: triages the first frame on a sessionless
    /// connection and, for a session opening, admits or sheds it. An
    /// admitted session comes back as an engine (seeded from the run
    /// seed, the lane index and the lane's session count, fed from the
    /// pool when it has a pack) with the options to drive it under; its
    /// permit rides in `meta` until [`settle`](Self::settle).
    fn open_session(&self, run: &Run<A>, meta: &mut ConnMeta, first: Frame) -> Opening<'_> {
        let sup = &self.supervisor;
        if first.kind == KIND_HEALTH {
            return Opening::Health(self.health_status(run.pool.as_ref()).reply());
        }
        if first.kind != KIND_CLS_HELLO && first.kind != KIND_CLS_WARM_HELLO {
            // A session must open with a (cold or warm) HELLO.
            self.note_malformed();
            return Opening::Malformed;
        }
        let warm = first.kind == KIND_CLS_WARM_HELLO;
        let Some(permit) = sup.try_admit() else {
            // An explicit reject, not a hang.
            sup.inner.shed.fetch_add(1, Ordering::Relaxed);
            if let Some(reg) = &self.metrics {
                reg.record_session_shed();
            }
            return Opening::Shed { warm };
        };
        sup.inner.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = &self.metrics {
            reg.record_session_admitted();
        }
        meta.permit = Some(permit);
        meta.sessions += 1;
        let session_seed = run
            .seed
            .wrapping_add(meta.lane_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(meta.sessions);
        // A dry pool is a miss, not a failure: the session serves
        // monolithically. `begin_run` built the pool from this trainer's
        // spec and the run's OT, so `take` has no mismatch to report;
        // were it to, serving monolithically would still be correct.
        let material = run
            .pool
            .as_ref()
            .and_then(|p| p.take(run.sel, &self.trainer.spec().ompe).ok().flatten());
        let mut engine = self
            .trainer
            .serve_session_engine(run.sel, session_seed, warm, material);
        engine.handle_input(first);
        let mut opts = DriveOptions::new()
            .with_limits(self.config.limits.clone())
            .with_cancel(sup.inner.cut.clone());
        if let Some(reg) = &self.metrics {
            opts = opts.with_metrics(reg.clone());
        }
        Opening::Admit(engine, opts)
    }

    /// Releases a finished session's permit and triages its outcome
    /// into the run's counters. On a hostile network a peer failure is
    /// an expected outcome, not a server fault.
    fn settle(&self, meta: &mut ConnMeta, result: Result<usize, PpcsError>) -> Settled {
        meta.permit = None;
        let e = match result {
            Ok(n) => return Settled::Served(n),
            Err(e) => e,
        };
        match transport_cause(&e) {
            Some(TransportError::Disconnected) => Settled::Hangup,
            Some(TransportError::Budget(_)) => {
                // The driver already counted it in the metrics.
                let budget_exceeded = &self.supervisor.inner.budget_exceeded;
                budget_exceeded.fetch_add(1, Ordering::Relaxed);
                Settled::BudgetCut
            }
            Some(TransportError::Timeout) => Settled::Failed,
            // Codec garbage mid-session, or a protocol-layer violation
            // (bad spec, oversized batch, wrong counts, …): the peer
            // deviated.
            Some(_) | None => {
                self.note_malformed();
                Settled::Failed
            }
        }
    }

    /// Serves classification sessions on every lane from **one thread**,
    /// multiplexed through an [`AsyncDriver`] event loop, until each lane
    /// closes (the client closes its end, or the idle timeout) or a drain
    /// completes. One lane serves many back-to-back sessions; a hostile
    /// or failed session terminates with a structured error and costs
    /// only itself. Parked sessions cost no thread while they wait for
    /// the peer: its send makes the socket readable, which wakes the
    /// reactor.
    ///
    /// Per-session failures are triaged into the [`ServeSummary`] (and
    /// the attached metrics), because on a hostile network a peer
    /// failure is an expected outcome, not a server fault. Per-session
    /// randomness derives from `seed`, the lane index, and a per-lane
    /// session counter, so runs are reproducible.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if a lane's socket cannot be registered.
    pub fn serve(
        &self,
        lanes: Vec<Endpoint>,
        ot: &dyn ObliviousTransfer,
        seed: u64,
    ) -> Result<ServeSummary, TransportError> {
        let mut driver = self.reactor_driver()?;
        let mut meta: HashMap<ConnId, ConnMeta> = HashMap::new();
        for (i, lane) in lanes.into_iter().enumerate() {
            let id = driver.add_endpoint(lane)?;
            driver.set_idle_deadline(id, Some(self.config.idle_timeout));
            meta.insert(id, ConnMeta::new(i as u64));
        }
        let run = self.begin_run(ot, seed);
        let served = self.pump_async(&mut driver, &mut meta, &run, false);
        Ok(self.supervisor.summary(served))
    }

    /// Serves classification sessions over TCP from one reactor thread:
    /// accepts on `listener`, multiplexes every connection through one
    /// [`AsyncDriver`], and runs until a drain completes (admission
    /// semantics as in [`serve`](TrainerServer::serve)).
    ///
    /// Unlike the lane-based entry points this cannot end by "all lanes
    /// closed" — new clients may always connect — so the run ends when
    /// [`SessionSupervisor::drain`] has been requested *and* every
    /// connection has finished or been cut.
    ///
    /// Per-connection seeds use the accept order as the lane index, so a
    /// run with a deterministic arrival order is reproducible.
    pub fn serve_async_tcp(
        &self,
        listener: TcpListener,
        ot: &dyn ObliviousTransfer,
        seed: u64,
    ) -> Result<ServeSummary, TransportError> {
        let mut driver = self.reactor_driver()?;
        driver.listen(listener)?;
        let run = self.begin_run(ot, seed);
        let served = self.pump_async(&mut driver, &mut HashMap::new(), &run, true);
        Ok(self.supervisor.summary(served))
    }

    /// A reactor driver carrying this server's registry, flight recorder
    /// and `/metrics` listener.
    fn reactor_driver(&self) -> Result<AsyncDriver<'_, usize, PpcsError>, TransportError> {
        let mut driver = AsyncDriver::new();
        if let Some(reg) = &self.metrics {
            driver = driver.with_metrics(reg.clone());
        }
        if let Some(rec) = &self.recorder {
            driver.set_flight_recorder(rec.clone());
        }
        let endpoint = self
            .metrics_endpoint
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(listener) = endpoint {
            driver.listen_metrics(listener)?;
        }
        Ok(driver)
    }

    /// The event loop behind both entry points.
    ///
    /// `accepting` selects the termination rule: lane-based runs end when
    /// every connection closes; accepting (TCP) runs end when a drain has
    /// been requested and every connection closed. Drain timing is
    /// enforced inline — pending connections close the moment a drain is
    /// observed, in-flight sessions get `drain_deadline`, then the cut
    /// token (checked by parked sessions within one cancel slice)
    /// terminates the stragglers.
    fn pump_async<'s>(
        &'s self,
        driver: &mut AsyncDriver<'s, usize, PpcsError>,
        meta: &mut HashMap<ConnId, ConnMeta>,
        run: &Run<A>,
        accepting: bool,
    ) -> usize {
        let sup = &self.supervisor;
        let pool = run.pool.as_ref();
        let mut served = 0usize;
        let mut next_lane_idx = meta.len() as u64;
        let mut drain_started: Option<Instant> = None;
        loop {
            // Observe a drain before the idle exit below, so a run whose
            // last connection closed ahead of the drain still records
            // the transition and drops its pool.
            if sup.draining() && drain_started.is_none() {
                drain_started = Some(Instant::now());
                self.record_run_transition(DETAIL_DRAIN_BEGAN);
                // No precomputed material outlives the run that
                // drew it.
                if let Some(p) = pool {
                    p.clear();
                }
                // Admission is over. Pending (sessionless) connections
                // get one short slice so a HELLO already in flight is
                // still answered with `KIND_BUSY`, then close; in-flight
                // sessions get the grace period.
                for id in driver.conn_ids() {
                    if driver.is_pending(id) {
                        driver.set_idle_deadline(id, Some(POLL_SLICE));
                    }
                }
                continue;
            }
            let idle_now = driver.conns() == 0;
            if idle_now && (!accepting || sup.draining()) {
                break;
            }
            if sup.draining()
                && !sup.cut()
                && drain_started.is_some_and(|t0| t0.elapsed() >= self.config.drain_deadline)
            {
                sup.force_cut();
                self.record_run_transition(DETAIL_DRAIN_CUT);
            }
            // While a drain grace period runs, wake at its deadline (or
            // sooner); otherwise a coarse slice — every actual event
            // (readiness, timer, waker) interrupts the wait anyway.
            let max_wait = match drain_started {
                Some(t0) if !sup.cut() => self
                    .config
                    .drain_deadline
                    .saturating_sub(t0.elapsed())
                    .clamp(Duration::from_millis(1), POLL_SLICE),
                _ => Duration::from_millis(50),
            };
            let events = driver.poll(max_wait);
            if events.is_empty() && !sup.draining() {
                // A poll that returned nothing is reactor idle time:
                // spend it on one budgeted offline pack, then get back
                // to the event loop.
                if let Some(p) = pool {
                    p.fill_one();
                }
            }
            for event in events {
                match event {
                    AsyncEvent::Accepted { conn } => {
                        if sup.draining() {
                            driver.close(conn);
                            continue;
                        }
                        driver.set_idle_deadline(conn, Some(self.config.idle_timeout));
                        meta.insert(conn, ConnMeta::new(next_lane_idx));
                        next_lane_idx += 1;
                    }
                    AsyncEvent::Opening { conn, frame } => {
                        if !driver.is_open(conn) {
                            continue;
                        }
                        // Every connection gets its meta when it is added
                        // or accepted; one without could not be seeded.
                        let Some(state) = meta.get_mut(&conn) else {
                            driver.close(conn);
                            continue;
                        };
                        let hangup = match self.open_session(run, state, frame) {
                            // Deliberately leaves the idle deadline
                            // as it is.
                            Opening::Health(reply) => {
                                let _ = driver.send_frame(conn, reply);
                                continue;
                            }
                            Opening::Admit(engine, opts) => {
                                driver.attach_engine(conn, engine, opts);
                                continue;
                            }
                            // Refused: mid-drain (or after a warm
                            // hello) the connection closes, otherwise it
                            // may try again.
                            Opening::Malformed => sup.draining(),
                            Opening::Shed { warm } => {
                                let _ = driver.send_busy_after(conn, self.config.retry_after);
                                warm || sup.draining()
                            }
                        };
                        self.release(driver, meta, conn, hangup);
                    }
                    AsyncEvent::Finished { conn, result, .. } => {
                        let Some(state) = meta.get_mut(&conn) else {
                            driver.close(conn);
                            continue;
                        };
                        let hangup = match self.settle(state, result) {
                            Settled::Served(n) => {
                                served += n;
                                false
                            }
                            Settled::Hangup => true,
                            Settled::BudgetCut | Settled::Failed => false,
                        };
                        self.release(driver, meta, conn, hangup || sup.draining());
                    }
                    AsyncEvent::Malformed { conn, .. } => {
                        self.note_malformed();
                        if driver.is_open(conn) {
                            driver.set_idle_deadline(conn, Some(self.config.idle_timeout));
                        } else {
                            meta.remove(&conn);
                        }
                    }
                    AsyncEvent::IdleExpired { conn } => self.release(driver, meta, conn, true),
                    AsyncEvent::Closed { conn } => {
                        meta.remove(&conn);
                    }
                }
            }
        }
        // Post-mortem artifacts: dump the flight ring to
        // `PPCS_FLIGHT_OUT` (when set) and flush any Chrome trace-out
        // buffer (`PPCS_TRACE_OUT`). Both are no-ops when unset.
        if let Some(rec) = &self.recorder {
            if let Ok(path) = std::env::var("PPCS_FLIGHT_OUT") {
                if !path.is_empty() {
                    rec.dump_to_file(&path);
                }
            }
        }
        ppcs_telemetry::flush_trace_out();
        served
    }

    /// Returns a connection to pending for a follow-up session, or
    /// closes it.
    fn release(
        &self,
        driver: &mut AsyncDriver<'_, usize, PpcsError>,
        meta: &mut HashMap<ConnId, ConnMeta>,
        conn: ConnId,
        hangup: bool,
    ) {
        if hangup {
            driver.close(conn);
            meta.remove(&conn);
        } else {
            driver.set_idle_deadline(conn, Some(self.config.idle_timeout));
        }
    }

    /// Records a run-level (not per-connection) state transition; the
    /// sentinel slot `u32::MAX` marks events that belong to the serving
    /// run itself, like drain begin/cut.
    fn record_run_transition(&self, detail: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(FlightEventKind::StateTransition, u32::MAX, 0, detail);
        }
    }

    /// The snapshot answered to a [`KIND_HEALTH`] probe: this trainer's
    /// serving epoch, the drain flag, the current precompute-pool depth,
    /// and the live session count. Probes are answered before admission,
    /// so a fleet router can triage a replica even when it is at
    /// capacity or draining.
    fn health_status(&self, pool: Option<&PrecomputePool<A>>) -> HealthStatus {
        HealthStatus {
            epoch: self.trainer.epoch(),
            draining: self.supervisor.draining(),
            pool_depth: pool.map_or(0, |p| p.depth() as u64),
            active_sessions: self.supervisor.active() as u64,
        }
    }

    fn note_malformed(&self) {
        self.supervisor
            .inner
            .malformed_rejected
            .fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = &self.metrics {
            reg.record_malformed_rejected();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use ppcs_math::FixedFpAlgebra;
    use ppcs_ot::TrustedSimOt;
    use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
    use ppcs_transport::duplex_pool;

    fn tiny_trainer() -> Trainer<FixedFpAlgebra> {
        let mut dataset = Dataset::new(2);
        dataset.push(vec![1.0, 1.0], Label::Positive);
        dataset.push(vec![-1.0, -1.0], Label::Negative);
        let model = SvmModel::train(&dataset, Kernel::Linear, &SmoParams::default());
        Trainer::new(FixedFpAlgebra::new(16), &model, ProtocolConfig::default()).unwrap()
    }

    #[test]
    fn admission_permits_enforce_capacity() {
        let sup = SessionSupervisor::new(2);
        let p1 = sup.try_admit().expect("slot 1");
        let _p2 = sup.try_admit().expect("slot 2");
        assert!(sup.try_admit().is_none(), "capacity reached");
        assert_eq!(sup.active(), 2);
        drop(p1);
        assert!(sup.try_admit().is_some(), "slot freed on drop");
    }

    #[test]
    fn draining_stops_admission() {
        let sup = SessionSupervisor::new(8);
        assert!(sup.try_admit().is_some());
        sup.drain();
        assert!(sup.try_admit().is_none());
    }

    #[test]
    fn honest_clients_are_served_over_the_runtime() {
        let trainer = tiny_trainer();
        let server = TrainerServer::new(&trainer, ServerConfig::default());
        let (server_lanes, client_lanes) = duplex_pool(2);
        let ot = TrustedSimOt;
        let samples = [vec![0.9f64, 1.1], vec![-1.0, -0.8]];
        std::thread::scope(|scope| {
            let clients: Vec<_> = client_lanes
                .into_iter()
                .zip(&samples)
                .enumerate()
                .map(|(i, (lane, s))| {
                    scope.spawn(move || {
                        use rand::SeedableRng;
                        let client =
                            crate::Client::new(FixedFpAlgebra::new(16), ProtocolConfig::default());
                        let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
                        // The lane closes as the thread returns.
                        client
                            .classify_batch(&lane, &TrustedSimOt, &mut rng, std::slice::from_ref(s))
                            .expect("honest session")
                    })
                })
                .collect();
            let summary = server.serve(server_lanes, &ot, 99).expect("reactor");
            let labels: Vec<_> = clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            assert_eq!(labels[0], vec![Label::Positive]);
            assert_eq!(labels[1], vec![Label::Negative]);
            assert_eq!(summary.sessions_admitted, 2);
            assert_eq!(summary.sessions_shed, 0);
            assert_eq!(summary.served_samples, 2);
        });
    }

    #[test]
    fn the_server_has_one_session_loop() {
        // Outside its tests this module waits on the reactor and nothing
        // else: no thread of its own, no blocking `Driver`.
        let source = include_str!("server.rs");
        let code = source.split("#[cfg(test)]").next().unwrap_or_default();
        for (n, line) in code.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for word in line.split(|c: char| !c.is_alphanumeric() && c != '_') {
                assert!(
                    word != "thread" && word != "Driver",
                    "server.rs:{}: `{word}` in {line:?}",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn async_tcp_run_drains_to_completion() {
        let trainer = tiny_trainer();
        let server = TrainerServer::new(&trainer, ServerConfig::default());
        let sup = server.supervisor();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let client = scope.spawn(move || {
                use rand::SeedableRng;
                let lane = ppcs_transport::tcp_connect(addr).expect("connect");
                let client = crate::Client::new(FixedFpAlgebra::new(16), ProtocolConfig::default());
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                client
                    .classify_batch(&lane, &TrustedSimOt, &mut rng, &[vec![0.9f64, 1.1]])
                    .expect("honest session")
            });
            let drainer = scope.spawn(move || {
                // Let the one client finish, then end the accepting run.
                std::thread::sleep(Duration::from_millis(300));
                sup.drain();
            });
            let summary = server
                .serve_async_tcp(listener, &TrustedSimOt, 99)
                .expect("reactor");
            assert_eq!(client.join().expect("client"), vec![Label::Positive]);
            drainer.join().expect("drainer");
            assert_eq!(summary.sessions_admitted, 1);
            assert_eq!(summary.served_samples, 1);
        });
    }
}
