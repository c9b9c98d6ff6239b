//! The fleet resilience layer: health-checked routing of classification
//! sessions across N replica trainers.
//!
//! A single hardened [`TrainerServer`](crate::TrainerServer) survives
//! hostile *sessions*; this module survives hostile *replicas*. A
//! [`FleetClient`] owns a set of replica connectors and routes each
//! classification session through three cooperating mechanisms:
//!
//! * **Circuit breakers** ([`CircuitBreaker`]) — every replica carries a
//!   closed → open → half-open breaker. Consecutive transport failures
//!   trip it open; an open breaker rejects dispatch until its cooldown
//!   elapses, then admits exactly one half-open probe whose outcome
//!   closes or re-arms it. A probe whose attempt ends without a verdict
//!   (a busy shed, a client-side deadline expiry, a cancelled hedge
//!   loser) releases its slot back to open rather than wedging the
//!   breaker half-open. Time comes from a seedable [`FleetClock`], so
//!   the whole cycle is deterministic under [`ManualClock`] in tests.
//! * **Hedged failover** — when a hedge delay is configured and the
//!   primary attempt has not answered within it, a backup attempt is
//!   dispatched to the next healthy replica and the first success wins
//!   (the loser is cut through its driver's cancel token). Failures are
//!   triaged by [`transport_cause`]: deterministic protocol errors
//!   propagate immediately (replaying the same bytes elsewhere would
//!   fail the same way), transport errors count against the breaker and
//!   fail over.
//! * **End-to-end deadlines** — one wall-clock budget spans every
//!   redial, probe, and failover of a logical session: each attempt is
//!   driven under the *remaining* budget, not a fresh one.
//!
//! **Crash-restart recovery** rides the serving epoch: a restarted
//! trainer advertises a fresh epoch in its
//! [`KIND_HEALTH`](ppcs_transport::KIND_HEALTH) reply and its warm
//! ticket, so a client holding warm state from the previous incarnation
//! falls back to a cold handshake instead of resuming into a process
//! that no longer remembers it (see
//! [`WarmSessionCache`]).
//!
//! Every breaker transition, hedge fire, and failover is surfaced
//! through the attached [`MetricsRegistry`] (`ppcs_replica_state`,
//! `ppcs_hedges_fired_total`, `ppcs_failovers_total`,
//! `ppcs_breaker_opens_total`) and [`FlightRecorder`] (the
//! `DETAIL_BREAKER_*` / `DETAIL_FAILOVER` / `DETAIL_HEDGE_FIRED`
//! codes, with the replica index in the event's slot field).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ppcs_math::Algebra;
use ppcs_ot::ObliviousTransfer;
use ppcs_svm::Label;
use ppcs_telemetry::{
    FlightEventKind, FlightRecorder, MetricsRegistry, DETAIL_BREAKER_CLOSED,
    DETAIL_BREAKER_HALF_OPEN, DETAIL_BREAKER_OPEN, DETAIL_FAILOVER, DETAIL_HEDGE_FIRED,
};
use ppcs_transport::{
    probe_health, probe_health_cancellable, Driver, HealthStatus, Lane, SessionLimits,
    TransportError,
};

use crate::classify::{shard_evenly, transport_cause, Client, WarmSessionCache};
use crate::error::PpcsError;

/// A deterministic-friendly millisecond clock for breaker timing.
///
/// Production uses [`SystemClock`]; tests drive the breaker cycle
/// step-by-step with a [`ManualClock`], so open/half-open transitions
/// happen at exact, asserted instants instead of racing wall time.
pub trait FleetClock: Send + Sync {
    /// Milliseconds since an arbitrary (per-clock) origin. Must be
    /// monotone non-decreasing.
    fn now_ms(&self) -> u64;
}

/// Wall-clock [`FleetClock`], anchored at its creation instant.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetClock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

/// A hand-cranked [`FleetClock`] for deterministic breaker tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ms: AtomicU64,
}

impl ManualClock {
    /// A clock reading `now_ms`.
    pub fn new(now_ms: u64) -> Self {
        Self {
            now_ms: AtomicU64::new(now_ms),
        }
    }

    /// Advances the clock by `ms`.
    pub fn advance(&self, ms: u64) {
        self.now_ms.fetch_add(ms, Ordering::Release);
    }

    /// Jumps the clock to an absolute reading.
    pub fn set(&self, ms: u64) {
        self.now_ms.store(ms, Ordering::Release);
    }
}

impl FleetClock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::Acquire)
    }
}

/// Circuit-breaker tuning for one replica.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive transport failures that trip a closed breaker open.
    pub failure_threshold: u32,
    /// Milliseconds an open breaker rejects dispatch before admitting a
    /// half-open probe.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown_ms: 250,
        }
    }
}

/// The three breaker states; [`gauge`](BreakerState::gauge) gives the
/// stable numeric encoding used by the `ppcs_replica_state` metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Dispatch flows normally; consecutive failures are counted.
    Closed,
    /// Dispatch is rejected until the cooldown elapses.
    Open,
    /// One probe is admitted; its outcome closes or re-arms the breaker.
    HalfOpen,
}

impl BreakerState {
    /// The numeric gauge value (0 closed, 1 open, 2 half-open).
    pub fn gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// The stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What [`CircuitBreaker::allow`] decided for one dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerDecision {
    /// The breaker is closed; dispatch normally.
    Allow,
    /// The breaker is half-open and this dispatch claimed the single
    /// probe slot: its outcome decides the breaker's fate.
    Probe,
    /// The breaker is open (or the probe slot is taken); do not
    /// dispatch.
    Reject,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ms: u64,
    probe_inflight: bool,
}

/// A per-replica closed → open → half-open circuit breaker.
///
/// All timing is expressed in caller-supplied `now_ms` readings from a
/// [`FleetClock`], so the full state cycle is deterministic under a
/// [`ManualClock`].
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker under `cfg`.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at_ms: 0,
                probe_inflight: false,
            }),
        }
    }

    /// Locks the breaker's state. No code panics while holding this
    /// lock, so a poisoned one still holds a consistent state.
    fn lock(&self) -> MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current state (open breakers stay "open" until an `allow`
    /// call observes the elapsed cooldown and moves them to half-open).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Decides whether a dispatch may proceed at `now_ms`. An open
    /// breaker whose cooldown has elapsed transitions to half-open here
    /// and admits the caller as its single probe.
    pub fn allow(&self, now_ms: u64) -> BreakerDecision {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => BreakerDecision::Allow,
            BreakerState::Open => {
                if now_ms.saturating_sub(inner.opened_at_ms) >= self.cfg.cooldown_ms {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_inflight = true;
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Reject
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_inflight {
                    BreakerDecision::Reject
                } else {
                    inner.probe_inflight = true;
                    BreakerDecision::Probe
                }
            }
        }
    }

    /// Records a successful attempt. Returns `true` when this closed a
    /// non-closed breaker (i.e. a state transition happened).
    pub fn record_success(&self) -> bool {
        let mut inner = self.lock();
        let transitioned = inner.state != BreakerState::Closed;
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.probe_inflight = false;
        transitioned
    }

    /// Records a failed attempt at `now_ms`. Returns `true` when this
    /// tripped the breaker open (from closed past the threshold, or a
    /// failed half-open probe re-arming the cooldown).
    pub fn record_failure(&self, now_ms: u64) -> bool {
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        match inner.state {
            BreakerState::Closed => {
                if inner.consecutive_failures >= self.cfg.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at_ms = now_ms;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at_ms = now_ms;
                inner.probe_inflight = false;
                true
            }
            // Already open (e.g. a hedged loser reporting late): keep
            // the original cooldown origin.
            BreakerState::Open => false,
        }
    }

    /// Releases an unconsumed half-open probe slot: the admitted probe
    /// attempt ended without a breaker verdict — a busy/draining shed,
    /// a client-side deadline expiry, a deterministic protocol error,
    /// or a cancelled hedge loser whose result was discarded. The
    /// breaker returns to open, keeping its original cooldown origin
    /// (already elapsed), so the next `allow` can admit a fresh probe
    /// instead of rejecting forever behind a slot nobody will settle.
    /// Returns `true` when this moved the breaker back to open.
    pub fn release_probe(&self) -> bool {
        let mut inner = self.lock();
        if inner.state == BreakerState::HalfOpen && inner.probe_inflight {
            inner.state = BreakerState::Open;
            inner.probe_inflight = false;
            true
        } else {
            false
        }
    }
}

/// Fleet-wide routing configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Per-replica breaker tuning.
    pub breaker: BreakerConfig,
    /// When set, a backup attempt is dispatched to the next healthy
    /// replica if the primary has not answered within this delay.
    /// `None` disables hedging (pure sequential failover).
    pub hedge_delay: Option<Duration>,
    /// End-to-end wall-clock budget for one logical session, spanning
    /// every probe, redial, and failover. `None` leaves attempts
    /// unbounded.
    pub deadline: Option<Duration>,
    /// Whether each attempt opens with a
    /// [`KIND_HEALTH`](ppcs_transport::KIND_HEALTH) probe on the freshly dialed lane
    /// before the session: a draining replica is then skipped without a
    /// breaker penalty, and a dead one fails fast inside
    /// [`probe_window`](FleetConfig::probe_window).
    pub probe: bool,
    /// Reply window for the pre-session health probe.
    pub probe_window: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            breaker: BreakerConfig::default(),
            hedge_delay: None,
            deadline: Some(Duration::from_secs(30)),
            probe: true,
            probe_window: Duration::from_millis(200),
        }
    }
}

/// Dials a fresh [`Lane`] to one replica. Called once per attempt, so a
/// restarted replica is reached at its new address as soon as the
/// connector resolves it.
pub type Connector = Box<dyn Fn() -> Result<Box<dyn Lane>, TransportError> + Send + Sync>;

struct Replica {
    connector: Connector,
    breaker: CircuitBreaker,
}

/// A classification client spread over N replica trainers: per-replica
/// circuit breakers, hedged failover, end-to-end deadlines, and
/// epoch-aware warm sessions (see the module comment of `fleet.rs`).
///
/// The replica set is fixed after construction; per-attempt lanes are
/// dialed fresh through each replica's [`Connector`].
pub struct FleetClient<A: Algebra> {
    client: Client<A>,
    replicas: Vec<Replica>,
    clock: Arc<dyn FleetClock>,
    config: FleetConfig,
    metrics: Option<Arc<MetricsRegistry>>,
    recorder: Option<Arc<FlightRecorder>>,
    cache: WarmSessionCache,
}

impl<A: Algebra> FleetClient<A> {
    /// A fleet client around `client` with no replicas yet.
    pub fn new(client: Client<A>, config: FleetConfig) -> Self {
        Self {
            client,
            replicas: Vec::new(),
            clock: Arc::new(SystemClock::new()),
            config,
            metrics: None,
            recorder: None,
            cache: WarmSessionCache::new(),
        }
    }

    /// Replaces the breaker clock (tests pass a [`ManualClock`]).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn FleetClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a telemetry registry: hedge fires, failovers, breaker
    /// opens, and the per-replica state gauge land there, and every
    /// session driver reports its wire traffic through it.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a flight recorder: breaker transitions, hedge fires,
    /// and failovers are recorded with the replica index as the slot.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Adds a replica and returns its index. The index keys the warm
    /// cache, the breaker, and every metric/recorder label for this
    /// replica.
    pub fn add_replica(&mut self, connector: Connector) -> usize {
        let idx = self.replicas.len();
        self.replicas.push(Replica {
            connector,
            breaker: CircuitBreaker::new(self.config.breaker),
        });
        if let Some(reg) = &self.metrics {
            reg.set_replica_state(idx as u32, BreakerState::Closed.gauge());
        }
        idx
    }

    /// Replicas currently registered.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The breaker state of replica `idx`.
    pub fn replica_state(&self, idx: usize) -> BreakerState {
        self.replicas[idx].breaker.state()
    }

    /// The warm-session cache shared by every attempt (keyed by replica
    /// index), exposed for staleness inspection in tests.
    pub fn warm_cache(&self) -> &WarmSessionCache {
        &self.cache
    }

    /// Probes replica `idx` on a fresh lane: liveness, drain state,
    /// serving epoch, and precompute-pool depth.
    ///
    /// # Errors
    ///
    /// Any dial or probe failure, unchanged; probing does not touch the
    /// replica's breaker.
    pub fn probe(&self, idx: usize) -> Result<HealthStatus, TransportError> {
        let lane = (self.replicas[idx].connector)()?;
        probe_health(lane.as_ref(), self.config.probe_window)
    }

    /// Classifies a batch in one logical session, failing over across
    /// replicas (and hedging, when configured) under one end-to-end
    /// deadline. Labels are exactly what a single-trainer
    /// [`Client::classify_batch`] would return for the same model.
    ///
    /// # Errors
    ///
    /// Any deterministic protocol error immediately; otherwise the last
    /// transport error once no replica can serve the session within the
    /// deadline.
    pub fn classify_batch(
        &self,
        ot: &dyn ObliviousTransfer,
        seed: u64,
        samples: &[Vec<f64>],
    ) -> Result<Vec<Label>, PpcsError> {
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        self.classify_failover(ot, seed, samples, deadline, false)
    }

    /// Classifies a batch scattered across every currently healthy
    /// replica, one chunk per replica; a chunk whose replica fails
    /// mid-session is requeued onto the survivors. Chunks are
    /// contiguous and reassembled in order, so the labels are exactly
    /// what a single-trainer session would return.
    ///
    /// # Errors
    ///
    /// Any deterministic protocol error immediately; the last transport
    /// error if a chunk exhausts every healthy replica; a protocol
    /// error when no replica is dispatchable at all.
    pub fn classify_batch_parallel(
        &self,
        ot: &dyn ObliviousTransfer,
        seed: u64,
        samples: &[Vec<f64>],
    ) -> Result<Vec<Label>, PpcsError> {
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        let now = self.clock.now_ms();
        // Each target remembers whether its dispatch claimed a breaker's
        // half-open probe slot, so the chunk's outcome can settle it.
        let mut targets: Vec<(usize, bool)> = Vec::new();
        for idx in 0..self.replicas.len() {
            match self.replicas[idx].breaker.allow(now) {
                BreakerDecision::Reject => {}
                BreakerDecision::Allow => targets.push((idx, false)),
                BreakerDecision::Probe => {
                    self.record_breaker_transition(idx, BreakerState::HalfOpen);
                    targets.push((idx, true));
                }
            }
        }
        if targets.is_empty() {
            return Err(PpcsError::Protocol(
                "no healthy replica available for dispatch".into(),
            ));
        }
        let chunks = shard_evenly(samples, targets.len());
        let results: Vec<Result<Vec<Label>, PpcsError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = targets
                .iter()
                .zip(&chunks)
                .enumerate()
                .map(|(i, (&(idx, _), chunk))| {
                    scope.spawn(move || {
                        self.attempt_session(
                            idx,
                            ot,
                            seed.wrapping_add(i as u64),
                            chunk,
                            deadline,
                            None,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        // Settle every chunk before returning, so a deterministic
        // failure in one chunk does not leave another chunk's probe
        // slot claimed-but-unsettled.
        let mut out: Vec<Option<Vec<Label>>> = Vec::with_capacity(chunks.len());
        let mut deterministic_err: Option<PpcsError> = None;
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(labels) => out.push(Some(labels)),
                Err(e) => {
                    let (idx, probing) = targets[i];
                    self.settle_attempt_failure(idx, &e, probing);
                    if transport_cause(&e).is_none() && deterministic_err.is_none() {
                        deterministic_err = Some(e);
                    }
                    out.push(None);
                }
            }
        }
        if let Some(e) = deterministic_err {
            // Deterministic failure: no replica can do better.
            return Err(e);
        }

        // Requeue failed chunks through the failover path, sequentially:
        // rescue latency matters less than completing the batch. The
        // failed replica's breaker (tripped above) keeps it out of the
        // rescue rotation until its cooldown elapses.
        let mut labels = Vec::with_capacity(samples.len());
        for (i, slot) in out.into_iter().enumerate() {
            let chunk_labels = match slot {
                Some(chunk_labels) => chunk_labels,
                None => {
                    let rescue_seed = seed ^ 0xF1EE_7C0D_E5CA_1A7Eu64.wrapping_mul(i as u64 + 1);
                    self.classify_failover(ot, rescue_seed, chunks[i], deadline, true)?
                }
            };
            labels.extend(chunk_labels);
        }
        Ok(labels)
    }

    /// The failover engine behind both entry points: walks the fleet
    /// (two passes, so breakers opened in the first pass can half-open
    /// under a manual clock), dispatching at most one logical session.
    /// `prior_failure` marks a dispatch that is already a rescue, so
    /// its first re-dispatch counts as a failover.
    fn classify_failover(
        &self,
        ot: &dyn ObliviousTransfer,
        seed: u64,
        samples: &[Vec<f64>],
        deadline: Option<Instant>,
        prior_failure: bool,
    ) -> Result<Vec<Label>, PpcsError> {
        if self.replicas.is_empty() {
            return Err(PpcsError::Protocol("fleet has no replicas".into()));
        }
        let mut last_err: Option<PpcsError> = None;
        let mut failed_over = prior_failure;
        for pass in 0..2u64 {
            for idx in 0..self.replicas.len() {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(last_err.unwrap_or_else(|| {
                            PpcsError::Transport(TransportError::Budget(
                                "fleet deadline elapsed before dispatch".into(),
                            ))
                        }));
                    }
                }
                let decision = self.replicas[idx].breaker.allow(self.clock.now_ms());
                if decision == BreakerDecision::Reject {
                    continue;
                }
                let probing = decision == BreakerDecision::Probe;
                if probing {
                    self.record_breaker_transition(idx, BreakerState::HalfOpen);
                }
                if failed_over {
                    self.record_failover(idx);
                }
                let attempt_seed = seed
                    .wrapping_add(pass.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(idx as u64);
                let backup = self.hedge_backup(idx);
                let result = match backup {
                    Some(backup) => self.attempt_hedged(
                        idx,
                        backup,
                        ot,
                        attempt_seed,
                        samples,
                        deadline,
                        probing,
                    ),
                    None => self.attempt_session(idx, ot, attempt_seed, samples, deadline, None),
                };
                match result {
                    Ok(labels) => return Ok(labels),
                    Err(e) => {
                        // attempt_hedged settles both of its attempts
                        // (breaker charges and probe release) itself;
                        // charging here again would double-count one
                        // failure and misattribute the backup's.
                        if backup.is_none() {
                            self.settle_attempt_failure(idx, &e, probing);
                        }
                        if transport_cause(&e).is_none() {
                            return Err(e);
                        }
                        failed_over = true;
                        last_err = Some(e);
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            PpcsError::Protocol("no healthy replica available for dispatch".into())
        }))
    }

    /// The next healthy replica after `primary` to hedge onto, with the
    /// hedge delay, when hedging is configured.
    fn hedge_backup(&self, primary: usize) -> Option<(usize, Duration)> {
        let delay = self.config.hedge_delay?;
        let n = self.replicas.len();
        (1..n)
            .map(|step| (primary + step) % n)
            .find(|&idx| self.replicas[idx].breaker.state() == BreakerState::Closed)
            .map(|idx| (idx, delay))
    }

    /// Dispatches the primary attempt, then a backup attempt on
    /// `backup` if no answer arrives within `hedge_delay`; first
    /// success wins and the loser is cut through its cancel token.
    ///
    /// Owns *all* breaker bookkeeping for both attempts: each failure
    /// is charged exactly once, to the replica that produced it, and
    /// when `probing` (the primary holds its breaker's half-open probe
    /// slot) the slot is released on every path where the primary's
    /// outcome goes unrecorded — including a cancelled loser whose
    /// result is discarded. The caller must not charge the returned
    /// error again.
    #[allow(clippy::too_many_arguments)]
    fn attempt_hedged(
        &self,
        primary: usize,
        (backup, hedge_delay): (usize, Duration),
        ot: &dyn ObliviousTransfer,
        seed: u64,
        samples: &[Vec<f64>],
        deadline: Option<Instant>,
        probing: bool,
    ) -> Result<Vec<Label>, PpcsError> {
        let cancel_primary = Arc::new(AtomicBool::new(false));
        let cancel_backup = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<Label>, PpcsError>)>();
        std::thread::scope(|scope| {
            let tx_primary = tx.clone();
            let cancel_p = cancel_primary.clone();
            scope.spawn(move || {
                let r = self.attempt_session(primary, ot, seed, samples, deadline, Some(cancel_p));
                let _ = tx_primary.send((primary, r));
            });
            let mut outstanding = 1usize;
            // `tx` is still held here, so the wait ends in an answer or
            // a timeout, never a disconnect.
            let mut first_answer = rx.recv_timeout(hedge_delay).ok();
            if first_answer.is_none() {
                // The primary is slow: fire the hedge.
                self.record_hedge_fired(backup);
                let tx_backup = tx.clone();
                let cancel_b = cancel_backup.clone();
                // Domain-separate the backup's randomness from the
                // still-running primary's.
                let backup_seed = seed ^ 0x4EDB_E57A_11E1_D0ED;
                scope.spawn(move || {
                    let r = self.attempt_session(
                        backup,
                        ot,
                        backup_seed,
                        samples,
                        deadline,
                        Some(cancel_b),
                    );
                    let _ = tx_backup.send((backup, r));
                });
                outstanding += 1;
            }
            drop(tx);
            let mut last_err: Option<PpcsError> = None;
            // Set once the primary's own outcome has been settled (or
            // consumed as the winning success); any return path where
            // it is still false discards the primary's result, so a
            // probing primary must have its probe slot released there.
            let mut primary_settled = false;
            loop {
                let (from, result) = match first_answer.take() {
                    Some(answer) => answer,
                    None => match rx.recv() {
                        Ok(answer) => answer,
                        Err(_) => break,
                    },
                };
                outstanding -= 1;
                let from_primary = from == primary;
                match result {
                    Ok(labels) => {
                        // Cut the loser; the scope joins it on exit.
                        cancel_primary.store(true, Ordering::Release);
                        cancel_backup.store(true, Ordering::Release);
                        if !from_primary && probing && !primary_settled {
                            self.release_probe_slot(primary);
                        }
                        return Ok(labels);
                    }
                    Err(e) => {
                        if transport_cause(&e).is_none() {
                            cancel_primary.store(true, Ordering::Release);
                            cancel_backup.store(true, Ordering::Release);
                            self.settle_attempt_failure(from, &e, probing && from_primary);
                            if !from_primary && probing && !primary_settled {
                                self.release_probe_slot(primary);
                            }
                            return Err(e);
                        }
                        // The coordinator owns breaker bookkeeping for
                        // the losing side too: a genuine failure (not a
                        // cancel cut) counts, exactly once, against the
                        // replica that produced it.
                        self.settle_attempt_failure(from, &e, probing && from_primary);
                        if from_primary {
                            primary_settled = true;
                        }
                        last_err = Some(e);
                        if outstanding == 0 {
                            break;
                        }
                    }
                }
            }
            // Every attempt sends its outcome before its thread ends, so
            // the loop only leaves with a failure in hand; a panicked
            // attempt is re-raised when the scope joins it.
            Err(last_err.unwrap_or_else(|| {
                PpcsError::Protocol("hedged attempts ended without an outcome".into())
            }))
        })
    }

    /// One attempt against one replica: dial, optional health probe,
    /// then an epoch-aware warm session driven under the remaining
    /// deadline. Records breaker success internally; failures are
    /// triaged by the caller.
    fn attempt_session(
        &self,
        idx: usize,
        ot: &dyn ObliviousTransfer,
        seed: u64,
        samples: &[Vec<f64>],
        deadline: Option<Instant>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<Vec<Label>, PpcsError> {
        let replica = &self.replicas[idx];
        let lane = (replica.connector)().map_err(PpcsError::from)?;
        let lane = lane.as_ref();
        if self.config.probe {
            let window = match remaining(deadline)? {
                Some(rem) => rem.min(self.config.probe_window),
                None => self.config.probe_window,
            };
            let status = probe_health_cancellable(lane, window, cancel.as_deref())
                .map_err(PpcsError::from)?;
            if status.draining {
                // An orderly drain is routing information, not a fault:
                // surface it as a busy shed so the caller fails over
                // without a breaker penalty.
                return Err(PpcsError::from(TransportError::Busy {
                    retry_after_ms: None,
                }));
            }
            if let Some((_, cached_epoch)) = self.cache.get(idx as u64) {
                if cached_epoch != status.epoch {
                    // The replica restarted since we last spoke: the
                    // warm ticket would be re-announced anyway, but
                    // dropping it here saves the stale round.
                    self.cache.remove(idx as u64);
                }
            }
        }
        let mut limits = SessionLimits::unlimited();
        if let Some(rem) = remaining(deadline)? {
            limits = limits.with_deadline(rem.max(Duration::from_millis(1)));
        }
        let mut driver = Driver::new().with_limits(limits);
        if let Some(c) = cancel {
            driver = driver.with_cancel(c);
        }
        if let Some(reg) = &self.metrics {
            driver = driver.with_metrics(reg.clone());
        }
        let sel = ot.select();
        let mut engine =
            self.client
                .classify_warm_engine(sel, seed, samples, &self.cache, idx as u64, None);
        // The lane is dropped right after the call: the replica's
        // reactor ends it on the disconnect, so no `FIN` is sent.
        let values = driver.drive(lane, &mut engine)?;
        if replica.breaker.record_success() {
            self.record_breaker_transition(idx, BreakerState::Closed);
        }
        Ok(values.into_iter().map(|(label, _)| label).collect())
    }

    /// Breaker bookkeeping for one consumed transport failure: a busy
    /// shed (orderly backpressure) and a budget expiry (the *client's*
    /// fleet deadline ran out — every attempt here is driven under the
    /// remaining fleet budget, so a tight deadline says nothing about
    /// the replica's health) never count, anything else does. Returns
    /// whether the failure was charged to the replica's breaker.
    fn note_attempt_failure(&self, idx: usize, err: &PpcsError) -> bool {
        if matches!(
            transport_cause(err),
            Some(TransportError::Busy { .. }) | Some(TransportError::Budget(_)) | None
        ) {
            return false;
        }
        let now = self.clock.now_ms();
        if self.replicas[idx].breaker.record_failure(now) {
            if let Some(reg) = &self.metrics {
                reg.record_breaker_open();
            }
            self.record_breaker_transition(idx, BreakerState::Open);
        }
        true
    }

    /// Settles one failed attempt against replica `idx`: charges the
    /// breaker when the failure is genuine, and otherwise — when
    /// `probing` says the attempt held the breaker's half-open probe
    /// slot — releases the slot, so an uncharged outcome (busy shed,
    /// deadline expiry, deterministic protocol error) cannot wedge the
    /// breaker half-open forever.
    fn settle_attempt_failure(&self, idx: usize, err: &PpcsError, probing: bool) {
        let charged = self.note_attempt_failure(idx, err);
        if probing && !charged {
            self.release_probe_slot(idx);
        }
    }

    /// Releases replica `idx`'s half-open probe slot and mirrors the
    /// half-open → open move in the gauge and flight recorder. The
    /// breaker-opens counter is untouched: a released probe is not a
    /// fresh trip.
    fn release_probe_slot(&self, idx: usize) {
        if self.replicas[idx].breaker.release_probe() {
            self.record_breaker_transition(idx, BreakerState::Open);
        }
    }

    fn record_breaker_transition(&self, idx: usize, state: BreakerState) {
        if let Some(reg) = &self.metrics {
            reg.set_replica_state(idx as u32, state.gauge());
        }
        if let Some(rec) = &self.recorder {
            let detail = match state {
                BreakerState::Open => DETAIL_BREAKER_OPEN,
                BreakerState::HalfOpen => DETAIL_BREAKER_HALF_OPEN,
                BreakerState::Closed => DETAIL_BREAKER_CLOSED,
            };
            rec.record(FlightEventKind::StateTransition, idx as u32, 0, detail);
        }
    }

    fn record_failover(&self, to_idx: usize) {
        if let Some(reg) = &self.metrics {
            reg.record_failover();
        }
        if let Some(rec) = &self.recorder {
            rec.record(
                FlightEventKind::StateTransition,
                to_idx as u32,
                0,
                DETAIL_FAILOVER,
            );
        }
    }

    fn record_hedge_fired(&self, backup_idx: usize) {
        if let Some(reg) = &self.metrics {
            reg.record_hedge_fired();
        }
        if let Some(rec) = &self.recorder {
            rec.record(
                FlightEventKind::StateTransition,
                backup_idx as u32,
                0,
                DETAIL_HEDGE_FIRED,
            );
        }
    }
}

/// The budget left before `deadline`, or an error once it has elapsed.
fn remaining(deadline: Option<Instant>) -> Result<Option<Duration>, PpcsError> {
    match deadline {
        None => Ok(None),
        Some(d) => {
            let rem = d.saturating_duration_since(Instant::now());
            if rem.is_zero() {
                Err(PpcsError::Transport(TransportError::Budget(
                    "fleet deadline elapsed before dispatch".into(),
                )))
            } else {
                Ok(Some(rem))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown_ms,
        })
    }

    #[test]
    fn breaker_full_cycle_is_deterministic_under_a_manual_clock() {
        let clock = ManualClock::new(0);
        let b = breaker(2, 100);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Allow);

        // Closed → Open at the threshold, not before.
        assert!(!b.record_failure(clock.now_ms()));
        assert_eq!(b.state(), BreakerState::Closed);
        clock.advance(5);
        assert!(b.record_failure(clock.now_ms()));
        assert_eq!(b.state(), BreakerState::Open);

        // Open rejects until the cooldown elapses...
        clock.set(104);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Reject);
        // ...then admits exactly one half-open probe.
        clock.set(105);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Reject);

        // The probe's success closes the breaker.
        assert!(b.record_success());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Allow);
    }

    #[test]
    fn failed_half_open_probe_rearms_the_cooldown() {
        let clock = ManualClock::new(0);
        let b = breaker(1, 50);
        assert!(b.record_failure(clock.now_ms()));
        clock.set(50);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Probe);
        clock.set(60);
        assert!(b.record_failure(clock.now_ms()), "probe failure re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown restarts from the probe failure, not the first trip.
        clock.set(105);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Reject);
        clock.set(110);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Probe);
    }

    #[test]
    fn late_failures_against_an_open_breaker_keep_its_cooldown_origin() {
        let clock = ManualClock::new(0);
        let b = breaker(1, 100);
        assert!(b.record_failure(clock.now_ms()));
        // A hedged loser reporting late must not extend the cooldown.
        clock.set(90);
        assert!(!b.record_failure(clock.now_ms()));
        clock.set(100);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Probe);
    }

    #[test]
    fn released_probe_slot_reopens_and_admits_a_fresh_probe() {
        let clock = ManualClock::new(0);
        let b = breaker(1, 100);
        assert!(b.record_failure(clock.now_ms()));
        clock.set(100);
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Probe);
        assert_eq!(
            b.allow(clock.now_ms()),
            BreakerDecision::Reject,
            "slot taken"
        );

        // The probe ended with no verdict (busy shed / cancelled
        // loser): releasing the slot re-opens instead of wedging.
        assert!(b.release_probe());
        assert_eq!(b.state(), BreakerState::Open);
        // The cooldown origin is unchanged (already elapsed), so a
        // fresh probe is admitted immediately.
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Probe);

        // Releasing is a no-op once the probe's outcome was recorded.
        assert!(b.record_success());
        assert!(!b.release_probe(), "closed breaker holds no slot");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn busy_and_budget_failures_are_not_charged_to_the_breaker() {
        use crate::ProtocolConfig;
        use ppcs_math::FixedFpAlgebra;

        let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
        let mut fleet = FleetClient::new(
            client,
            FleetConfig {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown_ms: 100,
                },
                ..FleetConfig::default()
            },
        );
        fleet.add_replica(Box::new(|| Err(TransportError::Disconnected)));

        // Orderly backpressure and the client's own deadline expiring
        // say nothing about the replica: threshold 1, still closed.
        fleet.note_attempt_failure(
            0,
            &PpcsError::Transport(TransportError::Busy {
                retry_after_ms: Some(5),
            }),
        );
        assert_eq!(fleet.replica_state(0), BreakerState::Closed);
        fleet.note_attempt_failure(
            0,
            &PpcsError::Transport(TransportError::Budget(
                "fleet deadline elapsed before dispatch".into(),
            )),
        );
        assert_eq!(fleet.replica_state(0), BreakerState::Closed);

        // A genuine transport failure still trips it.
        fleet.note_attempt_failure(0, &PpcsError::Transport(TransportError::Disconnected));
        assert_eq!(fleet.replica_state(0), BreakerState::Open);
    }

    #[test]
    fn settling_an_uncharged_probe_failure_releases_the_slot() {
        use crate::ProtocolConfig;
        use ppcs_math::FixedFpAlgebra;

        let clock = Arc::new(ManualClock::new(0));
        let client = Client::new(FixedFpAlgebra::new(16), ProtocolConfig::functional());
        let mut fleet = FleetClient::new(
            client,
            FleetConfig {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown_ms: 100,
                },
                ..FleetConfig::default()
            },
        )
        .with_clock(clock.clone());
        fleet.add_replica(Box::new(|| Err(TransportError::Disconnected)));

        // Trip open, elapse the cooldown, claim the probe slot.
        fleet.note_attempt_failure(0, &PpcsError::Transport(TransportError::Disconnected));
        clock.set(100);
        let b = &fleet.replicas[0].breaker;
        assert_eq!(b.allow(clock.now_ms()), BreakerDecision::Probe);

        // The probe's attempt was shed busy: the slot must come back.
        fleet.settle_attempt_failure(
            0,
            &PpcsError::Transport(TransportError::Busy {
                retry_after_ms: None,
            }),
            true,
        );
        assert_eq!(fleet.replica_state(0), BreakerState::Open);
        assert_eq!(
            fleet.replicas[0].breaker.allow(clock.now_ms()),
            BreakerDecision::Probe,
            "a fresh probe is admitted instead of rejecting forever"
        );
    }

    #[test]
    fn a_poisoned_breaker_still_admits_and_records() {
        let b = Arc::new(breaker(1, 100));
        let holder = b.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = holder.inner.lock().unwrap();
            panic!("poison the breaker lock");
        });
        assert!(poisoner.join().is_err());
        assert!(b.inner.is_poisoned());

        assert_eq!(b.allow(0), BreakerDecision::Allow);
        assert!(b.record_failure(0), "threshold 1 trips open");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.allow(100), BreakerDecision::Probe);
        assert!(b.release_probe());
        assert_eq!(b.allow(100), BreakerDecision::Probe);
        assert!(b.record_success());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let clock = ManualClock::new(0);
        let b = breaker(3, 100);
        assert!(!b.record_failure(clock.now_ms()));
        assert!(!b.record_failure(clock.now_ms()));
        assert!(!b.record_success(), "closed stays closed");
        assert!(!b.record_failure(clock.now_ms()));
        assert!(!b.record_failure(clock.now_ms()));
        assert!(b.record_failure(clock.now_ms()), "threshold counts fresh");
    }

    #[test]
    fn manual_clock_advances_and_jumps() {
        let clock = ManualClock::new(7);
        assert_eq!(clock.now_ms(), 7);
        clock.advance(3);
        assert_eq!(clock.now_ms(), 10);
        clock.set(2);
        assert_eq!(clock.now_ms(), 2);
    }

    #[test]
    fn system_clock_is_monotone() {
        let clock = SystemClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn breaker_state_gauges_are_stable() {
        assert_eq!(BreakerState::Closed.gauge(), 0);
        assert_eq!(BreakerState::Open.gauge(), 1);
        assert_eq!(BreakerState::HalfOpen.gauge(), 2);
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }
}
