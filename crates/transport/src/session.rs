//! [`SessionCore`]: everything one protocol session needs except a way
//! to wait.
//!
//! The core steps a [`ProtocolEngine`], transmits its output, records
//! the [`Transcript`], feeds the per-session metrics, enforces
//! [`SessionLimits`] and the cancel token, keeps the per-receive window,
//! and translates [`KIND_BUSY`]. A session lives on one lane from its
//! first frame to its result: any lane failure is injected into the
//! engine, so the role ends with its own typed error, and surviving a dead
//! lane is the caller's business (`FleetClient` fails over to another
//! replica). The core reaches the lane through [`SessionIo`] and never
//! blocks on its own: [`SessionCore::step`] runs until the session
//! finishes or has nothing to read, and then says when it next needs
//! attention. [`Driver`](crate::Driver) is the `SessionIo`
//! that waits inside `try_recv` and steps again;
//! [`AsyncDriver`](crate::AsyncDriver) is the one that never waits and
//! arms the connection's one deadline instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppcs_telemetry::{MetricsRegistry, WireDir};

use crate::channel::{Frame, TrafficStats};
use crate::driver::{busy_retry_after, Direction, SessionLimits, Transcript, KIND_BUSY};
use crate::engine::{Outgoing, ProtocolEngine};
use crate::error::TransportError;

/// Longest single wait of a budgeted session: a cancel token has no
/// readiness event, so it is observed within one slice.
const SLICE: Duration = Duration::from_millis(20);

/// Per-receive window of a session that owns its lane's deadline and was
/// given no [`DriveOptions::timeout`], matching the 30 s default of
/// blocking endpoints.
pub(crate) const DEFAULT_PER_RECV: Duration = Duration::from_secs(30);

/// Per-session drive configuration, shared by [`Driver`](crate::Driver)
/// (whose builder methods forward here) and
/// [`AsyncDriver::attach_engine`](crate::AsyncDriver::attach_engine).
#[derive(Clone, Debug, Default)]
pub struct DriveOptions {
    /// Record a [`Transcript`].
    pub recording: bool,
    /// Telemetry registry for this session's spans, wire deltas, frame
    /// sizes, polls, rounds, timeouts, and budget trips.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Per-receive deadline. Unset, a reactor session uses 30 s; an
    /// unbudgeted blocking drive leaves the lane's own deadline alone.
    pub timeout: Option<Duration>,
    /// Session budgets; a trip fails the session with
    /// [`TransportError::Budget`] naming the exhausted budget.
    pub limits: Option<SessionLimits>,
    /// Cancellation token, observed within 20 ms while the session
    /// waits — the drain-cut mechanism of the serving runtime.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl DriveOptions {
    /// Options with everything off: no recording, no metrics, default
    /// per-receive deadline, no budgets, no cancel token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables transcript recording.
    #[must_use]
    pub fn with_recording(mut self) -> Self {
        self.recording = true;
        self
    }

    /// Attaches a telemetry registry.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Sets the per-receive deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches session budgets.
    #[must_use]
    pub fn with_limits(mut self, limits: SessionLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// The lane as the core sees it. The two implementations differ only in
/// whether `try_recv` waits.
pub(crate) trait SessionIo {
    /// Transmits one engine output; a batch goes out coalesced.
    fn send(&mut self, out: &Outgoing) -> Result<(), TransportError>;

    /// The next frame, or `Ok(None)` when none arrived. A blocking
    /// implementation may wait up to `max_wait` (`None`: the lane's own
    /// receive deadline); a reactor one never waits.
    fn try_recv(&mut self, max_wait: Option<Duration>) -> Result<Option<Frame>, TransportError>;

    /// Snapshot of the lane's traffic counters.
    fn stats(&self) -> TrafficStats;
}

/// Where [`SessionCore::step`] left the session.
pub(crate) enum Step<T, E> {
    /// Nothing to read: step again on readiness or at `wake_at`,
    /// whichever comes first.
    Parked { wake_at: Instant },
    /// The session completed, successfully or with the role's error.
    Finished(Result<T, E>),
}

/// One session's drive state. See the module docs.
pub(crate) struct SessionCore {
    transcript: Option<Transcript>,
    /// The session's registry, with the lane counters its wire deltas
    /// are taken against.
    metrics: Option<(Arc<MetricsRegistry>, TrafficStats)>,
    limits: SessionLimits,
    cancel: Option<Arc<AtomicBool>>,
    budgeted: bool,
    /// `None` leaves the lane's own receive deadline in charge.
    per_recv: Option<Duration>,
    /// The wall clock of the session budget starts here.
    started: Instant,
    /// When the wait for the current frame began; `None` once it has
    /// been delivered.
    recv_started: Option<Instant>,
    lane_bytes_before: u64,
    rounds_before: u64,
    frames_delivered: u64,
    /// The frame kind most recently sent or delivered: locates a
    /// timeout or budget trip within the session for the warn event.
    last_kind: Option<u16>,
    tripped: bool,
}

impl SessionCore {
    /// A session under `opts` on the lane behind `io`, whose engine has
    /// handled `engine_rounds` frames so far. The session clock starts
    /// now, and the lane's counters are snapshotted for the deltas the
    /// budgets and the registry take.
    pub(crate) fn new(opts: &DriveOptions, io: &impl SessionIo, engine_rounds: u64) -> Self {
        let budgeted = opts.limits.is_some() || opts.cancel.is_some();
        let stats = (budgeted || opts.metrics.is_some()).then(|| io.stats());
        Self {
            transcript: opts.recording.then(Transcript::new),
            lane_bytes_before: stats.as_ref().map_or(0, TrafficStats::total_bytes),
            metrics: opts.metrics.clone().zip(stats),
            limits: opts.limits.clone().unwrap_or_default(),
            cancel: opts.cancel.clone(),
            budgeted,
            per_recv: opts
                .timeout
                .or_else(|| budgeted.then_some(DEFAULT_PER_RECV)),
            started: Instant::now(),
            recv_started: None,
            rounds_before: engine_rounds,
            frames_delivered: 0,
            last_kind: None,
            tripped: false,
        }
    }

    /// Closes the books on the lane: its traffic and rounds go to the
    /// registry.
    fn close_books(&self, io: &impl SessionIo, engine_rounds: u64) {
        if let Some((reg, before)) = &self.metrics {
            merge_wire_delta(reg, before, &io.stats());
            reg.record_rounds(engine_rounds - self.rounds_before);
        }
    }

    /// The recorded transcript, when [`DriveOptions::recording`] was set.
    pub(crate) fn take_transcript(&mut self) -> Option<Transcript> {
        self.transcript.take()
    }

    /// The session's registry, for the waiter's span collector.
    pub(crate) fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(|(reg, _)| reg)
    }

    /// Whether a budget (or the cancel token) ended this session.
    pub(crate) fn tripped(&self) -> bool {
        self.tripped
    }

    /// Logical frames delivered to the engine so far.
    pub(crate) fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// What is left of the frame and wire-byte budgets, for the live
    /// session table; `None` where no such budget is set.
    pub(crate) fn budget_remaining(&self, io: &impl SessionIo) -> (Option<u64>, Option<u64>) {
        let frames = self.limits.max_frames;
        let bytes = self.limits.max_wire_bytes;
        (
            frames.map(|max| max.saturating_sub(self.frames_delivered)),
            bytes.map(|max| max.saturating_sub(self.wire_moved(io))),
        )
    }

    fn wire_moved(&self, io: &impl SessionIo) -> u64 {
        io.stats().total_bytes() - self.lane_bytes_before
    }

    /// Runs the session until it finishes, fails, or has nothing to
    /// read. Transport failures are injected into the engine so the role
    /// surfaces the same typed error whichever way the caller waits.
    pub(crate) fn step<T, E: From<TransportError>>(
        &mut self,
        engine: &mut ProtocolEngine<'_, T, E>,
        io: &mut impl SessionIo,
    ) -> Step<T, E> {
        let outcome = match self.advance(engine, io) {
            Ok(Step::Parked { wake_at }) => return Step::Parked { wake_at },
            Ok(Step::Finished(result)) => Ok(result),
            Err(e) => Err(e),
        };
        if outcome.as_ref().err() == Some(&TransportError::Timeout) {
            if let Some(reg) = self.metrics() {
                reg.record_timeout();
            }
            ppcs_telemetry::warn_event("recv timeout", self.last_kind, Some(engine.rounds()));
        }
        self.close_books(io, engine.rounds());
        Step::Finished(outcome.unwrap_or_else(|e| fail_engine(engine, e)))
    }

    /// The pump: `Finished` with the role's result once the engine is
    /// done, `Parked` when there is nothing to read, `Err` on any
    /// transport failure.
    fn advance<T, E>(
        &mut self,
        engine: &mut ProtocolEngine<'_, T, E>,
        io: &mut impl SessionIo,
    ) -> Result<Step<T, E>, TransportError> {
        loop {
            if let Some(reg) = self.metrics() {
                reg.record_polls(1);
            }
            while let Some(out) = engine.poll_output() {
                if let Some(t) = &mut self.transcript {
                    t.record(Direction::Sent, &out);
                }
                if let Some(reg) = self.metrics() {
                    for f in out.frames() {
                        reg.record_frame_size(f.payload.len() as u64);
                    }
                }
                self.last_kind = out.frames().last().map(|f| f.kind);
                io.send(&out)?;
            }
            if let Some(result) = engine.take_result() {
                return Ok(Step::Finished(result));
            }
            let now = Instant::now();
            if self.budgeted {
                let wire = self.wire_moved(io);
                self.check_budgets(now, wire, engine.rounds())?;
            }
            let window = self.per_recv;
            // The window has run out only on a later visit: the first
            // one always gets its receive, however short the window.
            let since = match self.recv_started {
                Some(since) if window.is_some_and(|w| now - since >= w) => {
                    return Err(TransportError::Timeout)
                }
                Some(since) => since,
                None => *self.recv_started.insert(now),
            };
            let max_wait = window.map(|w| {
                let mut wait = w.saturating_sub(now - since);
                if self.budgeted {
                    if let Some(deadline) = self.limits.deadline {
                        wait = wait.min(deadline.saturating_sub(now - self.started));
                    }
                    wait = wait.min(SLICE).max(Duration::from_millis(1));
                }
                wait
            });
            let Some(frame) = io.try_recv(max_wait)? else {
                // A lane deadline the core does not own has expired.
                let Some(window) = window else {
                    return Err(TransportError::Timeout);
                };
                let mut wake = since + window;
                if let Some(deadline) = self.limits.deadline {
                    wake = wake.min(self.started + deadline);
                }
                if self.cancel.is_some() {
                    wake = wake.min(Instant::now() + SLICE);
                }
                return Ok(Step::Parked { wake_at: wake });
            };
            if frame.kind == KIND_BUSY {
                // The peer shed this session before admission.
                return Err(TransportError::Busy {
                    retry_after_ms: busy_retry_after(&frame.payload),
                });
            }
            if let Some(t) = &mut self.transcript {
                t.record_received(&frame);
            }
            if let Some(reg) = self.metrics() {
                reg.record_frame_size(frame.payload.len() as u64);
            }
            self.frames_delivered += 1;
            self.last_kind = Some(frame.kind);
            self.recv_started = None;
            engine.handle_input(frame);
        }
    }

    /// Fails with the budget that has tripped, if any, counting and
    /// warning about it once.
    fn check_budgets(
        &mut self,
        now: Instant,
        wire: u64,
        rounds: u64,
    ) -> Result<(), TransportError> {
        match self.budget_trip(now, wire) {
            Some(e) => {
                self.note_budget(&e, rounds);
                Err(e)
            }
            None => Ok(()),
        }
    }

    /// The budget that has tripped, if any. The cancel token is checked
    /// first (a drain cut overrides any remaining allowance), then wall
    /// clock, frames, wire bytes.
    fn budget_trip(&self, now: Instant, wire_bytes: u64) -> Option<TransportError> {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(TransportError::Budget(
                    "session cancelled (drain cut)".into(),
                ));
            }
        }
        if let Some(deadline) = self.limits.deadline {
            if now - self.started >= deadline {
                return Some(TransportError::Budget(format!(
                    "wall-clock deadline {deadline:?} elapsed"
                )));
            }
        }
        if let Some(max) = self.limits.max_frames {
            if self.frames_delivered >= max {
                return Some(TransportError::Budget(format!(
                    "frame budget {max} exhausted"
                )));
            }
        }
        if let Some(max) = self.limits.max_wire_bytes {
            if wire_bytes > max {
                return Some(TransportError::Budget(format!(
                    "wire-byte budget {max} exceeded ({wire_bytes} bytes moved)"
                )));
            }
        }
        None
    }

    fn note_budget(&mut self, e: &TransportError, rounds: u64) {
        self.tripped = true;
        if let Some(reg) = self.metrics() {
            reg.record_budget_exceeded();
        }
        ppcs_telemetry::warn_event(&e.to_string(), self.last_kind, Some(rounds));
    }

    /// Drives the session the blocking way: `io` waits inside
    /// `try_recv`, so a parked session is simply stepped again.
    pub(crate) fn drive_lane<T, E: From<TransportError>>(
        &mut self,
        engine: &mut ProtocolEngine<'_, T, E>,
        io: &mut impl SessionIo,
    ) -> Result<T, E> {
        loop {
            if let Step::Finished(result) = self.step(engine, io) {
                return result;
            }
        }
    }
}

/// Feeds the change in a lane's traffic counters across one drive into
/// a registry, kind by kind. Deltas (not absolutes) make repeated
/// drives and concurrent lanes over shared registries compose.
fn merge_wire_delta(reg: &MetricsRegistry, before: &TrafficStats, after: &TrafficStats) {
    for k in &after.by_kind {
        let (fs0, bs0, fr0, br0) = match before.kind(k.kind) {
            Some(b) => (
                b.frames_sent,
                b.bytes_sent,
                b.frames_received,
                b.bytes_received,
            ),
            None => (0, 0, 0, 0),
        };
        reg.record_wire(
            k.kind,
            WireDir::Sent,
            k.frames_sent - fs0,
            k.bytes_sent - bs0,
        );
        reg.record_wire(
            k.kind,
            WireDir::Received,
            k.frames_received - fr0,
            k.bytes_received - br0,
        );
    }
}

/// Terminates a session on an unrecoverable transport error: the failure
/// is injected so the role surfaces its own typed error if it can, with
/// the raw transport error as the fallback.
fn fail_engine<T, E>(engine: &mut ProtocolEngine<'_, T, E>, e: TransportError) -> Result<T, E>
where
    E: From<TransportError>,
{
    engine.inject_failure(e.clone());
    match engine.take_result() {
        Some(r) => r,
        None => Err(E::from(e)),
    }
}

#[cfg(test)]
mod tests {
    //! The core driven by a scripted lane: no threads, no sockets, no
    //! waiting — whatever either driver observes starts here.

    use super::*;
    use crate::driver::busy_frame;
    use crate::engine::FrameIo;
    use std::collections::VecDeque;

    /// A lane that plays back `inbox` and remembers what was sent.
    #[derive(Default)]
    struct Script {
        inbox: VecDeque<Frame>,
        sent: Vec<Frame>,
        /// Sends from this index on fail with `Disconnected`.
        dead_after: Option<usize>,
    }

    impl Script {
        fn playing(frames: impl IntoIterator<Item = Frame>) -> Self {
            Self {
                inbox: frames.into_iter().collect(),
                ..Self::default()
            }
        }
    }

    impl SessionIo for Script {
        fn send(&mut self, out: &Outgoing) -> Result<(), TransportError> {
            if self.dead_after.is_some_and(|n| self.sent.len() >= n) {
                return Err(TransportError::Disconnected);
            }
            self.sent.extend(out.frames().iter().cloned());
            Ok(())
        }

        fn try_recv(&mut self, _: Option<Duration>) -> Result<Option<Frame>, TransportError> {
            Ok(self.inbox.pop_front())
        }

        fn stats(&self) -> TrafficStats {
            TrafficStats {
                bytes_sent: self.sent.iter().map(|f| f.wire_len() as u64).sum(),
                ..TrafficStats::default()
            }
        }
    }

    type Engine = ProtocolEngine<'static, u64, TransportError>;

    /// Sends kind 1, then wants kind 2.
    fn pinger() -> Engine {
        ProtocolEngine::new(|io: FrameIo| async move {
            io.send_msg(1, &7u64)?;
            io.recv_msg::<u64>(2).await
        })
    }

    fn start(opts: &DriveOptions, io: &Script) -> SessionCore {
        SessionCore::new(opts, io, 0)
    }

    fn finished(step: Step<u64, TransportError>) -> Result<u64, TransportError> {
        match step {
            Step::Finished(result) => result,
            Step::Parked { .. } => panic!("parked"),
        }
    }

    #[test]
    fn a_scripted_session_completes_and_parks_when_the_lane_is_quiet() {
        let mut io = Script::default();
        let opts = DriveOptions::new()
            .with_recording()
            .with_timeout(Duration::from_secs(30));
        let mut core = start(&opts, &io);
        let mut eng = pinger();
        assert!(matches!(core.step(&mut eng, &mut io), Step::Parked { .. }));
        io.inbox.push_back(Frame::encode(2, &21u64));
        assert_eq!(finished(core.step(&mut eng, &mut io)), Ok(21));
        assert_eq!(core.frames_delivered(), 1);
        assert_eq!(core.take_transcript().expect("recorded").total_frames(), 2);
    }

    #[test]
    fn budgets_trip_in_order_cancel_deadline_frames_bytes() {
        // Every budget is already exhausted when the session first
        // looks; peel them off one at a time.
        let everything = DriveOptions::new()
            .with_cancel(Arc::new(AtomicBool::new(true)))
            .with_limits(SessionLimits {
                deadline: Some(Duration::ZERO),
                max_frames: Some(0),
                max_wire_bytes: Some(0),
            });
        let mut opts = everything.clone();
        let expect = |opts: &DriveOptions, message: &str| {
            let reg = MetricsRegistry::new(1, "core");
            let mut io = Script::default();
            let mut core = start(&opts.clone().with_metrics(reg.clone()), &io);
            let got = finished(core.step(&mut pinger(), &mut io));
            assert_eq!(got, Err(TransportError::Budget(message.into())));
            assert!(core.tripped());
            assert_eq!(reg.report().budget_exceeded, 1, "{message}");
        };
        expect(&opts, "session cancelled (drain cut)");
        opts.cancel = Some(Arc::new(AtomicBool::new(false)));
        expect(&opts, "wall-clock deadline 0ns elapsed");
        opts.limits.as_mut().unwrap().deadline = None;
        expect(&opts, "frame budget 0 exhausted");
        opts.limits.as_mut().unwrap().max_frames = None;
        let moved = Frame::encode(1, &7u64).wire_len();
        expect(
            &opts,
            &format!("wire-byte budget 0 exceeded ({moved} bytes moved)"),
        );
    }

    #[test]
    fn a_shed_reply_fails_the_session_with_or_without_a_hint() {
        for (reply, hint) in [
            (busy_frame(None), None),
            (busy_frame(Some(Duration::from_millis(40))), Some(40)),
        ] {
            let mut io = Script::playing([reply]);
            let mut core = start(&DriveOptions::new(), &io);
            assert_eq!(
                finished(core.step(&mut pinger(), &mut io)),
                Err(TransportError::Busy {
                    retry_after_ms: hint
                })
            );
            assert_eq!(core.frames_delivered(), 0, "protocols never see KIND_BUSY");
        }
    }

    #[test]
    fn a_send_failure_is_injected_into_the_engine() {
        let mut io = Script {
            dead_after: Some(0),
            ..Script::default()
        };
        let mut core = start(&DriveOptions::new(), &io);
        assert_eq!(
            finished(core.step(&mut pinger(), &mut io)),
            Err(TransportError::Disconnected)
        );
    }

    #[test]
    fn the_receive_window_expires_on_a_quiet_lane() {
        let reg = MetricsRegistry::new(2, "core");
        let opts = DriveOptions::new()
            .with_timeout(Duration::ZERO)
            .with_metrics(reg.clone());
        let mut io = Script::default();
        let mut core = start(&opts, &io);
        let mut eng = pinger();
        // Even an empty window gets its one receive.
        assert!(matches!(core.step(&mut eng, &mut io), Step::Parked { .. }));
        assert_eq!(
            finished(core.step(&mut eng, &mut io)),
            Err(TransportError::Timeout)
        );
        assert_eq!(reg.report().timeouts, 1);
    }
}
