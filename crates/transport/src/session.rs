//! [`SessionCore`]: everything one protocol session needs except a way
//! to wait.
//!
//! The core steps a [`ProtocolEngine`], transmits its output, records
//! the [`Transcript`], feeds the per-session metrics, enforces
//! [`SessionLimits`] and the cancel token, keeps the per-receive window,
//! translates [`KIND_BUSY`], and speaks the [`KIND_RESUME`] handshake
//! with its send log and redial backoff. It reaches the lane through
//! [`SessionIo`] and never blocks on its own: [`SessionCore::step`] runs
//! until the session finishes or has nothing to read, and then says when
//! it next needs attention. [`Driver`](crate::Driver) is the `SessionIo`
//! that waits inside `try_recv` and steps again;
//! [`AsyncDriver`](crate::AsyncDriver) is the one that never waits and
//! arms its timer wheel instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppcs_telemetry::{MetricsRegistry, WireDir};

use crate::channel::{Frame, TrafficStats};
use crate::driver::{
    busy_retry_after, Direction, RetryPolicy, SessionLimits, Transcript, KIND_BUSY, KIND_RESUME,
};
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
    /// Resumable sessions only: the lane failed with the engine still
    /// suspended; [`SessionCore::drive_resumable`] decides on a redial.
    NeedsRedial(TransportError),
}

/// Where a resumable session stands on its current lane.
#[derive(PartialEq)]
enum ResumePhase {
    /// Fresh lane: our delivered count has not been announced yet.
    Announce,
    /// Announced; session traffic waits for the peer's count.
    AwaitAck,
    /// Handshake done (the unacknowledged tail has been replayed).
    Live,
}

struct Resume {
    policy: RetryPolicy,
    /// Every logical frame the engine emitted, in order, for replay
    /// after a reconnect.
    sent_log: Vec<Frame>,
    phase: ResumePhase,
}

/// One session's drive state. See the module docs.
pub(crate) struct SessionCore {
    transcript: Option<Transcript>,
    metrics: Option<Arc<MetricsRegistry>>,
    limits: SessionLimits,
    cancel: Option<Arc<AtomicBool>>,
    budgeted: bool,
    /// `None` leaves the lane's own receive deadline in charge.
    per_recv: Option<Duration>,
    /// Budgets are session-logical: the wall clock starts here, at the
    /// first dial, and a redial never resets it.
    started: Instant,
    /// When the wait for the current frame began; `None` once it has
    /// been delivered.
    recv_started: Option<Instant>,
    /// Wire bytes moved on lanes already abandoned.
    wire_spent: u64,
    lane_bytes_before: u64,
    stats_before: Option<TrafficStats>,
    rounds_before: u64,
    frames_delivered: u64,
    /// The frame kind most recently sent or delivered: locates a
    /// timeout or budget trip within the session for the warn event.
    last_kind: Option<u16>,
    tripped: bool,
    resume: Option<Resume>,
}

impl SessionCore {
    /// A session under `opts`, resumable across lanes when `retry` is
    /// given. The session clock starts now.
    pub(crate) fn new(opts: &DriveOptions, retry: Option<RetryPolicy>) -> Self {
        let budgeted = opts.limits.is_some() || opts.cancel.is_some();
        let owns_deadline = budgeted || retry.is_some();
        Self {
            transcript: opts.recording.then(Transcript::new),
            metrics: opts.metrics.clone(),
            limits: opts.limits.clone().unwrap_or_default(),
            cancel: opts.cancel.clone(),
            budgeted,
            per_recv: opts
                .timeout
                .or_else(|| owns_deadline.then_some(DEFAULT_PER_RECV)),
            started: Instant::now(),
            recv_started: None,
            wire_spent: 0,
            lane_bytes_before: 0,
            stats_before: None,
            rounds_before: 0,
            frames_delivered: 0,
            last_kind: None,
            tripped: false,
            resume: retry.map(|policy| Resume {
                policy,
                sent_log: Vec::new(),
                phase: ResumePhase::Announce,
            }),
        }
    }

    /// Points the session at a (fresh) lane: snapshots the counters its
    /// deltas are taken against and restarts the resume handshake.
    pub(crate) fn begin_lane(&mut self, io: &impl SessionIo, engine_rounds: u64) {
        if self.budgeted || self.metrics.is_some() || self.resume.is_some() {
            let stats = io.stats();
            self.lane_bytes_before = stats.total_bytes();
            self.stats_before = self.metrics.is_some().then_some(stats);
        }
        self.rounds_before = engine_rounds;
        self.recv_started = None;
        if let Some(r) = &mut self.resume {
            r.phase = ResumePhase::Announce;
        }
    }

    /// Closes the books on the current lane: its traffic and rounds go
    /// to the registry, its bytes to the session's running total (which
    /// only a redial reads).
    fn end_lane(&mut self, io: &impl SessionIo, engine_rounds: u64) {
        if self.metrics.is_none() && self.resume.is_none() {
            return;
        }
        let stats = io.stats();
        self.wire_spent += stats.total_bytes() - self.lane_bytes_before;
        self.lane_bytes_before = stats.total_bytes();
        if let Some(reg) = &self.metrics {
            let before = self.stats_before.take().expect("begin_lane snapshotted");
            merge_wire_delta(reg, &before, &stats);
            reg.record_rounds(engine_rounds - self.rounds_before);
        }
    }

    /// The recorded transcript, when [`DriveOptions::recording`] was set.
    pub(crate) fn take_transcript(&mut self) -> Option<Transcript> {
        self.transcript.take()
    }

    /// The session's registry, for the waiter's span collector.
    pub(crate) fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
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
        self.wire_spent + io.stats().total_bytes() - self.lane_bytes_before
    }

    /// Runs the session until it finishes, fails, or has nothing to
    /// read. Transport failures are injected into the engine so the role
    /// surfaces the same typed error whichever way the caller waits.
    pub(crate) fn step<T, E: From<TransportError>>(
        &mut self,
        engine: &mut ProtocolEngine<'_, T, E>,
        io: &mut impl SessionIo,
    ) -> Step<T, E> {
        let failure = match self.advance(engine, io) {
            Ok(Some(wake_at)) => return Step::Parked { wake_at },
            Ok(None) => None,
            Err(e) => Some(e),
        };
        if failure == Some(TransportError::Timeout) {
            if let Some(reg) = &self.metrics {
                reg.record_timeout();
            }
            ppcs_telemetry::warn_event("recv timeout", self.last_kind, Some(engine.rounds()));
        }
        self.end_lane(io, engine.rounds());
        match failure {
            None => Step::Finished(engine.take_result().expect("engine reported done")),
            Some(e) if self.resume.is_some() => Step::NeedsRedial(e),
            Some(e) => Step::Finished(fail_engine(engine, e)),
        }
    }

    /// The pump: `Ok(None)` once the engine is done, `Ok(Some(wake_at))`
    /// when there is nothing to read, `Err` on any failure.
    fn advance<T, E>(
        &mut self,
        engine: &mut ProtocolEngine<'_, T, E>,
        io: &mut impl SessionIo,
    ) -> Result<Option<Instant>, TransportError> {
        loop {
            let live = self
                .resume
                .as_ref()
                .is_none_or(|r| r.phase == ResumePhase::Live);
            if live {
                if let Some(reg) = &self.metrics {
                    reg.record_polls(1);
                }
                while let Some(out) = engine.poll_output() {
                    if let Some(t) = &mut self.transcript {
                        t.record(Direction::Sent, &out);
                    }
                    if let Some(reg) = &self.metrics {
                        for f in out.frames() {
                            reg.record_frame_size(f.payload.len() as u64);
                        }
                    }
                    self.last_kind = out.frames().last().map(|f| f.kind);
                    if let Some(r) = &mut self.resume {
                        // Log before transmitting: a frame lost inside
                        // the transport is still replayable.
                        r.sent_log.extend(out.frames().iter().cloned());
                    }
                    io.send(&out)?;
                }
                if engine.is_done() {
                    return Ok(None);
                }
            }
            let now = Instant::now();
            if self.budgeted {
                let wire = self.wire_moved(io);
                self.check_budgets(now, wire, engine.rounds())?;
            }
            let window = match &mut self.resume {
                Some(r) if r.phase == ResumePhase::Announce => {
                    io.send(&Outgoing::Frame(Frame::encode(
                        KIND_RESUME,
                        &self.frames_delivered,
                    )))?;
                    r.phase = ResumePhase::AwaitAck;
                    Some(r.policy.resume_window)
                }
                Some(r) if r.phase == ResumePhase::AwaitAck => Some(r.policy.resume_window),
                _ => self.per_recv,
            };
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
                return Ok(Some(wake));
            };
            if frame.kind == KIND_BUSY {
                // The peer shed this session before admission.
                return Err(TransportError::Busy {
                    retry_after_ms: busy_retry_after(&frame.payload),
                });
            }
            if self.resume.is_some() && (!live || frame.kind == KIND_RESUME) {
                self.resume_handshake(io, &frame)?;
                continue;
            }
            if let Some(t) = &mut self.transcript {
                t.record_received(&frame);
            }
            if let Some(reg) = &self.metrics {
                reg.record_frame_size(frame.payload.len() as u64);
            }
            self.frames_delivered += 1;
            self.last_kind = Some(frame.kind);
            self.recv_started = None;
            engine.handle_input(frame);
        }
    }

    /// Handles a frame that is handshake traffic rather than session
    /// traffic. While the ack is awaited, the peer's [`KIND_RESUME`]
    /// count selects the tail of the send log to replay and takes the
    /// session live; anything else is a stale frame from before the
    /// reconnect and is dropped (whatever we have not acknowledged, the
    /// peer replays). Once live, a second `KIND_RESUME` is a duplicate
    /// (e.g. from a faulty lane) and is dropped too.
    fn resume_handshake(
        &mut self,
        io: &mut impl SessionIo,
        frame: &Frame,
    ) -> Result<(), TransportError> {
        let r = self.resume.as_mut().expect("resumable session");
        if r.phase == ResumePhase::Live || frame.kind != KIND_RESUME {
            return Ok(());
        }
        let ack = frame.decode_as::<u64>(KIND_RESUME)?;
        let tail = usize::try_from(ack)
            .ok()
            .and_then(|n| r.sent_log.get(n..))
            .ok_or_else(|| {
                TransportError::Decode(format!(
                    "resume ack {ack} exceeds {} sent frames",
                    r.sent_log.len()
                ))
            })?;
        for f in tail {
            io.send(&Outgoing::Frame(f.clone()))?;
        }
        r.phase = ResumePhase::Live;
        self.recv_started = None;
        Ok(())
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
        if let Some(reg) = &self.metrics {
            reg.record_budget_exceeded();
        }
        ppcs_telemetry::warn_event(&e.to_string(), self.last_kind, Some(rounds));
    }

    /// Drives one lane the blocking way: `io` waits inside `try_recv`,
    /// so a parked session is simply stepped again. `Err` hands a
    /// resumable session's lane failure to the redial loop.
    pub(crate) fn drive_lane<T, E: From<TransportError>>(
        &mut self,
        engine: &mut ProtocolEngine<'_, T, E>,
        io: &mut impl SessionIo,
    ) -> Result<Result<T, E>, TransportError> {
        self.begin_lane(io, engine.rounds());
        loop {
            match self.step(engine, io) {
                Step::Parked { .. } => {}
                Step::Finished(result) => return Ok(result),
                Step::NeedsRedial(e) => return Err(e),
            }
        }
    }

    /// The redial loop of a resumable session: dial, drive the lane,
    /// and on a retryable failure back off and dial again, until the
    /// engine completes, the failure is not retryable, or the attempts
    /// run out. A failed lane is dropped before the backoff so the peer
    /// observes the disconnect promptly instead of waiting out its own
    /// deadline.
    pub(crate) fn drive_resumable<IO: SessionIo, T, E: From<TransportError>>(
        &mut self,
        engine: &mut ProtocolEngine<'_, T, E>,
        mut dial: impl FnMut(u32) -> Result<IO, TransportError>,
    ) -> Result<T, E> {
        let policy = self
            .resume
            .as_ref()
            .expect("resumable session")
            .policy
            .clone();
        let mut jitter = policy.jitter_seed;
        let mut attempt: u32 = 0;
        loop {
            let err = match dial(attempt) {
                Ok(mut io) => {
                    if attempt > 0 {
                        if let Some(reg) = &self.metrics {
                            reg.record_reconnect();
                        }
                    }
                    match self.drive_lane(engine, &mut io) {
                        Ok(result) => return result,
                        Err(e) => e,
                    }
                }
                Err(e) => e,
            };
            if !policy.is_retryable(&err) || attempt + 1 >= policy.max_attempts {
                return fail_engine(engine, err);
            }
            if let Some(reg) = &self.metrics {
                reg.record_retry();
            }
            let delay = policy.delay_for(&err, attempt, &mut jitter);
            if let Err(e) = self.back_off(delay, engine.rounds()) {
                return fail_engine(engine, e);
            }
            attempt += 1;
        }
    }

    /// Sleeps out a redial backoff without outliving the session: the
    /// nap is clamped to what is left of the deadline, and every budget
    /// (cancel first) is checked before and after it.
    fn back_off(&mut self, delay: Duration, rounds: u64) -> Result<(), TransportError> {
        let now = Instant::now();
        self.check_budgets(now, self.wire_spent, rounds)?;
        let nap = match self.limits.deadline {
            Some(deadline) => delay.min(deadline.saturating_sub(now - self.started)),
            None => delay,
        };
        std::thread::sleep(nap);
        self.check_budgets(Instant::now(), self.wire_spent, rounds)
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
pub(crate) fn fail_engine<T, E>(
    engine: &mut ProtocolEngine<'_, T, E>,
    e: TransportError,
) -> Result<T, E>
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

    fn start(opts: &DriveOptions, retry: Option<RetryPolicy>, io: &Script) -> SessionCore {
        let mut core = SessionCore::new(opts, retry);
        core.begin_lane(io, 0);
        core
    }

    fn finished(step: Step<u64, TransportError>) -> Result<u64, TransportError> {
        match step {
            Step::Finished(result) => result,
            Step::Parked { .. } => panic!("parked"),
            Step::NeedsRedial(e) => panic!("needs redial: {e:?}"),
        }
    }

    fn needs_redial(step: Step<u64, TransportError>) -> TransportError {
        match step {
            Step::NeedsRedial(e) => e,
            Step::Parked { .. } => panic!("parked"),
            Step::Finished(r) => panic!("finished: {r:?}"),
        }
    }

    fn resume_frame(delivered: u64) -> Frame {
        Frame::encode(KIND_RESUME, &delivered)
    }

    #[test]
    fn a_scripted_session_completes_and_parks_when_the_lane_is_quiet() {
        let mut io = Script::default();
        let opts = DriveOptions::new()
            .with_recording()
            .with_timeout(Duration::from_secs(30));
        let mut core = start(&opts, None, &io);
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
            let mut core = start(&opts.clone().with_metrics(reg.clone()), None, &io);
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
            let mut core = start(&DriveOptions::new(), None, &io);
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
    fn the_handshake_announces_replays_and_drops_a_duplicate_resume() {
        let retry = Some(RetryPolicy::default());
        let mut eng = pinger();

        // First lane: handshake, the ping goes out, then nothing.
        let mut io = Script::playing([resume_frame(0)]);
        let mut core = start(&DriveOptions::new(), retry, &io);
        assert!(matches!(core.step(&mut eng, &mut io), Step::Parked { .. }));
        assert_eq!(io.sent, [resume_frame(0), Frame::encode(1, &7u64)]);

        // Second lane: the peer never got the ping (ack 0), so it is
        // replayed; a stale frame ahead of the ack and a duplicate ack
        // behind it are both dropped, not delivered.
        let stale = Frame::encode(2, &99u64);
        let reply = Frame::encode(2, &21u64);
        let mut io = Script::playing([stale, resume_frame(0), resume_frame(0), reply]);
        core.begin_lane(&io, eng.rounds());
        assert_eq!(finished(core.step(&mut eng, &mut io)), Ok(21));
        assert_eq!(io.sent, [resume_frame(0), Frame::encode(1, &7u64)]);
        assert_eq!(core.frames_delivered(), 1);
    }

    #[test]
    fn a_resume_ack_beyond_the_send_log_is_a_decode_error() {
        let mut io = Script::playing([resume_frame(5)]);
        let mut core = start(&DriveOptions::new(), Some(RetryPolicy::default()), &io);
        assert_eq!(
            needs_redial(core.step(&mut pinger(), &mut io)),
            TransportError::Decode("resume ack 5 exceeds 0 sent frames".into())
        );
    }

    #[test]
    fn a_send_failure_is_injected_or_handed_to_the_redial_loop() {
        let dead = || Script {
            dead_after: Some(0),
            ..Script::default()
        };
        let mut io = dead();
        let mut core = start(&DriveOptions::new(), None, &io);
        assert_eq!(
            finished(core.step(&mut pinger(), &mut io)),
            Err(TransportError::Disconnected)
        );

        let mut io = dead();
        let mut core = start(&DriveOptions::new(), Some(RetryPolicy::default()), &io);
        let mut eng = pinger();
        assert_eq!(
            needs_redial(core.step(&mut eng, &mut io)),
            TransportError::Disconnected
        );
        assert!(!eng.is_done(), "the engine stays suspended for the redial");
    }

    #[test]
    fn the_receive_window_expires_on_a_quiet_lane() {
        let reg = MetricsRegistry::new(2, "core");
        let opts = DriveOptions::new()
            .with_timeout(Duration::ZERO)
            .with_metrics(reg.clone());
        let mut io = Script::default();
        let mut core = start(&opts, None, &io);
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
