//! Drivers and transcripts: everything that moves engine frames.
//!
//! [`Driver`] pumps one [`ProtocolEngine`] over any [`Endpoint`](crate::Endpoint) backend
//! (in-memory duplex, coalesced lanes, TCP) — the blocking protocol entry
//! points across the workspace are thin wrappers over it.
//! [`run_engine_pair`] pumps two engines against each other with no
//! threads and no transport at all, deterministically, with deadlock
//! detection. [`Transcript`] records a session's logical frames and
//! [`replay`] re-drives an engine from the recording, asserting it emits
//! byte-identical output.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use ppcs_telemetry::MetricsRegistry;

use crate::channel::{Frame, Lane, TrafficStats};
use crate::engine::{Outgoing, ProtocolEngine};
use crate::error::{ProtocolError, TransportError};
use crate::session::{DriveOptions, SessionCore, SessionIo};
use crate::wire::{decode_seq, encode_seq, Encodable};

/// Frame kind for admission-control rejection: a serving peer at
/// capacity answers a new session's opening frame with one `KIND_BUSY`
/// frame and hangs up, instead of silently dropping the connection. The
/// driver translates a received `KIND_BUSY` into
/// [`TransportError::Busy`] and fails the engine with it — protocols
/// never see the kind itself. Reserved in the transport's control range
/// with [`KIND_COALESCED`](crate::KIND_COALESCED).
///
/// The payload is either empty (no guidance) or eight little-endian
/// bytes carrying a retry-after hint in milliseconds; see [`busy_frame`]
/// and [`busy_retry_after`].
pub const KIND_BUSY: u16 = 0x00FD;

/// Builds a [`KIND_BUSY`] shed reply, optionally carrying a retry-after
/// hint (rounded to whole milliseconds) for the shed client's backoff.
pub fn busy_frame(retry_after: Option<Duration>) -> Frame {
    let payload = match retry_after {
        Some(d) => {
            Bytes::copy_from_slice(&(d.as_millis().min(u128::from(u64::MAX)) as u64).to_le_bytes())
        }
        None => Bytes::new(),
    };
    Frame {
        kind: KIND_BUSY,
        payload,
    }
}

/// Extracts the retry-after hint from a received [`KIND_BUSY`] payload.
/// An empty payload means the server gave no guidance; any other
/// malformed payload is treated the same way — a shed reply must never
/// turn into a decode failure.
pub fn busy_retry_after(payload: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Per-session resource budgets enforced by [`Driver::drive`].
///
/// Each limit is independent and optional; `None` means unlimited. When
/// any budget trips, the drive fails the engine with
/// [`TransportError::Budget`] naming the exhausted budget, and an
/// attached [`MetricsRegistry`] counts
/// one `budget_exceeded`.
#[derive(Clone, Debug, Default)]
pub struct SessionLimits {
    /// Total wall-clock budget for the whole session, distinct from the
    /// per-receive deadline: a peer trickling one frame per recv window
    /// (a "slow loris") passes every per-recv deadline but not this one.
    pub deadline: Option<Duration>,
    /// Maximum logical frames delivered to the engine.
    pub max_frames: Option<u64>,
    /// Maximum wire bytes moved (sent + received) during the drive.
    pub max_wire_bytes: Option<u64>,
}

impl SessionLimits {
    /// No limits: every budget unlimited.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the total wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the delivered-frame budget.
    #[must_use]
    pub fn with_max_frames(mut self, max_frames: u64) -> Self {
        self.max_frames = Some(max_frames);
        self
    }

    /// Sets the wire-byte budget (sent + received).
    #[must_use]
    pub fn with_max_wire_bytes(mut self, max_wire_bytes: u64) -> Self {
        self.max_wire_bytes = Some(max_wire_bytes);
        self
    }
}

/// Which way a transcript frame traveled, from the recorded party's
/// perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Emitted by the recorded engine.
    Sent,
    /// Delivered to the recorded engine.
    Received,
}

/// One transcript step: a direction plus the logical frames that moved.
///
/// A sent batch keeps its batch boundary (`coalesced = true`) so replay
/// and byte accounting reproduce the exact wire behavior.
#[derive(Clone, Debug, PartialEq)]
pub struct TranscriptEntry {
    /// Travel direction relative to the recorded engine.
    pub direction: Direction,
    /// Whether the frames were coalesced into one wire frame.
    pub coalesced: bool,
    /// The logical frames, in order.
    pub frames: Vec<Frame>,
}

impl TranscriptEntry {
    /// Bytes this step put on the wire.
    pub fn wire_len(&self) -> usize {
        if self.coalesced {
            Outgoing::Batch(self.frames.clone()).wire_len()
        } else {
            self.frames.iter().map(Frame::wire_len).sum()
        }
    }
}

impl Encodable for TranscriptEntry {
    fn encode(&self, out: &mut BytesMut) {
        let dir: u8 = match self.direction {
            Direction::Sent => 0,
            Direction::Received => 1,
        };
        dir.encode(out);
        self.coalesced.encode(out);
        encode_seq(&self.frames, out);
    }

    fn decode(input: &mut Bytes) -> Result<Self, TransportError> {
        let direction = match u8::decode(input)? {
            0 => Direction::Sent,
            1 => Direction::Received,
            other => {
                return Err(TransportError::Decode(format!(
                    "unknown transcript direction tag {other}"
                )))
            }
        };
        let coalesced = bool::decode(input)?;
        let frames = decode_seq(input)?;
        Ok(Self {
            direction,
            coalesced,
            frames,
        })
    }
}

/// A recorded protocol session: every logical frame one party sent or
/// received, in order, with batch boundaries preserved.
///
/// Transcripts serialize to bytes (they implement [`Encodable`]) so a
/// captured session can be stored and re-driven later with [`replay`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Transcript {
    /// The recorded steps, in session order.
    pub entries: Vec<TranscriptEntry>,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, direction: Direction, out: &Outgoing) {
        let (coalesced, frames) = match out {
            Outgoing::Frame(f) => (false, vec![f.clone()]),
            Outgoing::Batch(fs) => (true, fs.clone()),
        };
        self.entries.push(TranscriptEntry {
            direction,
            coalesced,
            frames,
        });
    }

    pub(crate) fn record_received(&mut self, frame: &Frame) {
        self.entries.push(TranscriptEntry {
            direction: Direction::Received,
            coalesced: false,
            frames: vec![frame.clone()],
        });
    }

    /// Total bytes the session moved on the wire, both directions,
    /// accounting coalesced batches at their true (shared-header) size.
    pub fn total_wire_bytes(&self) -> usize {
        self.entries.iter().map(TranscriptEntry::wire_len).sum()
    }

    /// Number of logical frames recorded, both directions.
    pub fn total_frames(&self) -> usize {
        self.entries.iter().map(|e| e.frames.len()).sum()
    }

    /// Serializes the transcript.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        self.encode(&mut out);
        out.to_vec()
    }

    /// Deserializes a transcript previously captured with
    /// [`Transcript::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Decode`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TransportError> {
        let mut input = Bytes::copy_from_slice(bytes);
        let t = Self::decode(&mut input)?;
        if !input.is_empty() {
            return Err(TransportError::Decode(format!(
                "{} trailing bytes after transcript",
                input.len()
            )));
        }
        Ok(t)
    }
}

impl Encodable for Transcript {
    fn encode(&self, out: &mut BytesMut) {
        encode_seq(&self.entries, out);
    }

    fn decode(input: &mut Bytes) -> Result<Self, TransportError> {
        Ok(Self {
            entries: decode_seq(input)?,
        })
    }
}

/// Pumps a [`ProtocolEngine`] over any [`Lane`] until the role
/// completes, parking the calling thread in `lane.recv()` whenever the
/// engine stalls. The session itself — outputs, transcript, metrics,
/// budgets — is the crate's one `SessionCore`,
/// shared with [`AsyncDriver`](crate::AsyncDriver); this type only adds
/// the blocking way of waiting. Transport failures are injected into the
/// engine so the role surfaces its own typed error.
///
/// One driver serves one session; enable recording before driving to
/// capture a [`Transcript`], attach a
/// [`MetricsRegistry`] to collect
/// telemetry.
#[derive(Debug, Default)]
pub struct Driver {
    opts: DriveOptions,
    transcript: Option<Transcript>,
}

impl Driver {
    /// A driver with recording disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables transcript recording for the next [`drive`](Self::drive).
    #[must_use]
    pub fn with_recording(mut self) -> Self {
        self.opts.recording = true;
        self
    }

    /// Attaches a telemetry registry: every [`drive`](Self::drive)
    /// installs it as the thread's span collector (so protocol-phase
    /// spans inside the role logic land in it) and merges the drive's
    /// wire-traffic deltas, poll count, and round count into it.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.opts.metrics = Some(metrics);
        self
    }

    /// Sets the receive deadline every [`drive`](Self::drive) applies to
    /// its endpoint. Configure the drivers on **both** parties with the
    /// same value to get a symmetric deadline on a TCP connection pair;
    /// a [`TransportError::Timeout`] during the drive is counted in the
    /// attached registry and emits a `warn` trace event carrying the
    /// frame kind last seen and the engine round.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.opts.timeout = Some(timeout);
        self
    }

    /// Attaches per-session resource budgets enforced on every
    /// [`drive`](Self::drive): wall-clock deadline, delivered-frame
    /// count, and wire-byte count. See [`SessionLimits`]. Budgeted
    /// drives slice their blocking receives into short waits so the
    /// deadline is observed promptly; they therefore reconfigure the
    /// lane's recv deadline as they go and should own their lane.
    #[must_use]
    pub fn with_limits(mut self, limits: SessionLimits) -> Self {
        self.opts.limits = Some(limits);
        self
    }

    /// Attaches a cancellation token checked on every loop iteration and
    /// while waiting for input: once set, the drive fails the engine
    /// with [`TransportError::Budget`]. The serving runtime uses this to
    /// cut in-flight sessions at the drain deadline.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.opts.cancel = Some(cancel);
        self
    }

    /// Takes the transcript of the last drive, if recording was enabled.
    pub fn take_transcript(&mut self) -> Option<Transcript> {
        self.transcript.take()
    }

    /// Drives `engine` over `ep` to completion.
    ///
    /// # Errors
    ///
    /// The role's own error on protocol failure; transport failures are
    /// reported through the role (injected into its pending receive) so
    /// the error type and variant match the blocking code path exactly.
    pub fn drive<L, T, E>(&mut self, ep: &L, engine: &mut ProtocolEngine<'_, T, E>) -> Result<T, E>
    where
        L: Lane + ?Sized,
        E: From<TransportError>,
    {
        // Role futures poll on this thread, so installing the collector
        // here covers every span in the protocol stack — blocking
        // wrappers and TCP paths get telemetry for free.
        let _collector = self.opts.metrics.clone().map(ppcs_telemetry::install);
        let mut io = Waiting::on(ep);
        let mut core = SessionCore::new(&self.opts, &io, engine.rounds());
        let result = core.drive_lane(engine, &mut io);
        self.transcript = core.take_transcript();
        result
    }
}

/// The blocking way of waiting: `try_recv` parks the thread in
/// `lane.recv()` for up to the wait the core allows.
struct Waiting<L> {
    lane: L,
    /// The receive deadline last set on the lane, so a steady wait sets
    /// it once per drive rather than once per frame.
    armed: Option<Duration>,
}

impl<L: Lane> Waiting<L> {
    fn on(lane: L) -> Self {
        Self { lane, armed: None }
    }
}

impl<L: Lane> SessionIo for Waiting<L> {
    fn send(&mut self, out: &Outgoing) -> Result<(), TransportError> {
        match out {
            Outgoing::Frame(f) => self.lane.send(f.clone()),
            Outgoing::Batch(fs) => self.lane.send_coalesced(fs),
        }
    }

    fn try_recv(&mut self, max_wait: Option<Duration>) -> Result<Option<Frame>, TransportError> {
        if max_wait.is_some() && max_wait != self.armed {
            self.lane.set_recv_timeout(max_wait);
            self.armed = max_wait;
        }
        match self.lane.recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TransportError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn stats(&self) -> TrafficStats {
        self.lane.stats()
    }
}

/// Drives an engine over a lane with a throwaway [`Driver`] — the
/// one-liner the blocking protocol wrappers use.
///
/// # Errors
///
/// See [`Driver::drive`].
pub fn drive_blocking<L, T, E>(ep: &L, engine: &mut ProtocolEngine<'_, T, E>) -> Result<T, E>
where
    L: Lane + ?Sized,
    E: From<TransportError>,
{
    Driver::new().drive(ep, engine)
}

/// Pumps two engines directly against each other — no threads, no
/// transport, fully deterministic. Batched outputs are unpacked into
/// logical frames for the peer, mirroring what
/// [`Endpoint::recv`](crate::Endpoint::recv) does on a real connection.
///
/// Returns both role results once both engines complete.
///
/// # Errors
///
/// Returns a [`ProtocolError`] if both engines stall before completing
/// (a protocol deadlock, which on a real transport would be a timeout).
/// Role-level failures are reported inside the returned `Result`s, not
/// here, so callers can assert on exact error variants.
#[allow(clippy::type_complexity)]
pub fn run_engine_pair<TA, EA, TB, EB>(
    a: &mut ProtocolEngine<'_, TA, EA>,
    b: &mut ProtocolEngine<'_, TB, EB>,
) -> Result<(Result<TA, EA>, Result<TB, EB>), ProtocolError> {
    loop {
        let mut progressed = false;
        while let Some(out) = a.poll_output() {
            progressed = true;
            for f in out.frames() {
                b.handle_input(f.clone());
            }
        }
        while let Some(out) = b.poll_output() {
            progressed = true;
            for f in out.frames() {
                a.handle_input(f.clone());
            }
        }
        if a.is_done() && b.is_done() {
            let ra = a.take_result().expect("engine a done");
            let rb = b.take_result().expect("engine b done");
            return Ok((ra, rb));
        }
        if !progressed {
            // One side finished (or wedged) while the other still waits:
            // surface the stall as the timeout a real transport would hit.
            if !a.is_done() {
                a.inject_failure(TransportError::Timeout);
            }
            if !b.is_done() {
                b.inject_failure(TransportError::Timeout);
            }
            if !(a.is_done() && b.is_done()) {
                return Err(ProtocolError::violation(
                    "engine pair deadlocked: both engines idle before completion",
                ));
            }
        }
    }
}

/// Re-drives `engine` from a recorded session: `Received` frames are fed
/// in order, and every output the engine produces is checked
/// byte-for-byte against the recorded `Sent` frames.
///
/// With deterministic role logic (same inputs, same RNG seed) a replay
/// reproduces the original session exactly — the recorded party's result
/// is recomputed without its peer being present.
///
/// # Errors
///
/// A [`ProtocolError`] if the engine diverges from the recording (wrong
/// frame, missing output, early/late completion) or if the role itself
/// fails.
pub fn replay<T, E>(
    transcript: &Transcript,
    engine: &mut ProtocolEngine<'_, T, E>,
) -> Result<T, ProtocolError>
where
    E: Into<ProtocolError>,
{
    let mut pending: Vec<Frame> = Vec::new();
    let next_out = |eng: &mut ProtocolEngine<'_, T, E>, pending: &mut Vec<Frame>| {
        if pending.is_empty() {
            if let Some(out) = eng.poll_output() {
                pending.extend(out.frames().iter().cloned());
            }
        }
        if pending.is_empty() {
            None
        } else {
            Some(pending.remove(0))
        }
    };
    for (step, entry) in transcript.entries.iter().enumerate() {
        match entry.direction {
            Direction::Received => {
                for f in &entry.frames {
                    engine.handle_input(f.clone());
                }
            }
            Direction::Sent => {
                for want in &entry.frames {
                    match next_out(engine, &mut pending) {
                        Some(got) if &got == want => {}
                        Some(got) => {
                            return Err(ProtocolError::violation(format!(
                                "replay diverged at step {step}: engine emitted kind \
                                 0x{:04x} ({} bytes), transcript has kind 0x{:04x} ({} bytes)",
                                got.kind,
                                got.payload.len(),
                                want.kind,
                                want.payload.len()
                            ))
                            .with_frame_kind(want.kind));
                        }
                        None => {
                            return Err(ProtocolError::violation(format!(
                                "replay diverged at step {step}: engine produced no output, \
                                 transcript expects kind 0x{:04x}",
                                want.kind
                            ))
                            .with_frame_kind(want.kind));
                        }
                    }
                }
            }
        }
    }
    if let Some(extra) = next_out(engine, &mut pending) {
        return Err(ProtocolError::violation(format!(
            "replay diverged after the transcript: engine emitted extra frame kind 0x{:04x}",
            extra.kind
        ))
        .with_frame_kind(extra.kind));
    }
    match engine.take_result() {
        Some(Ok(v)) => Ok(v),
        Some(Err(e)) => Err(e.into()),
        None => Err(ProtocolError::violation(
            "transcript exhausted but the engine is not done",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::duplex;
    use crate::engine::FrameIo;
    use std::sync::atomic::Ordering;

    async fn pinger(io: FrameIo) -> Result<u64, TransportError> {
        io.send_msg(1, &7u64)?;
        io.recv_msg::<u64>(2).await
    }

    async fn ponger(io: FrameIo) -> Result<u64, TransportError> {
        let v = io.recv_msg::<u64>(1).await?;
        io.send_msg(2, &(v * 3))?;
        Ok(v)
    }

    #[test]
    fn driver_pumps_over_duplex() {
        let (ea, eb) = duplex();
        let (ra, rb) = crate::run_pair(
            move |ep| {
                let mut eng = ProtocolEngine::new(pinger);
                drive_blocking(&ep, &mut eng)
            },
            move |ep| {
                let mut eng = ProtocolEngine::new(ponger);
                drive_blocking(&ep, &mut eng)
            },
        );
        let _ = (ea, eb);
        assert_eq!(ra, Ok(21));
        assert_eq!(rb, Ok(7));
    }

    #[test]
    fn engine_pair_runs_without_transport() {
        let mut a = ProtocolEngine::new(pinger);
        let mut b = ProtocolEngine::new(ponger);
        let (ra, rb) = run_engine_pair(&mut a, &mut b).expect("no deadlock");
        assert_eq!(ra, Ok(21));
        assert_eq!(rb, Ok(7));
    }

    #[test]
    fn engine_pair_detects_deadlock() {
        // Both roles immediately wait: nobody ever sends.
        let mut a: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io| async move { io.recv_msg::<u64>(1).await });
        let mut b: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io| async move { io.recv_msg::<u64>(1).await });
        let (ra, rb) = run_engine_pair(&mut a, &mut b).expect("stall resolves via injection");
        assert_eq!(ra, Err(TransportError::Timeout));
        assert_eq!(rb, Err(TransportError::Timeout));
    }

    #[test]
    fn transcript_records_and_replays() {
        let (ep_a, ep_b) = duplex();
        let handle = std::thread::spawn(move || {
            let mut eng = ProtocolEngine::new(ponger);
            drive_blocking(&ep_b, &mut eng)
        });
        let mut driver = Driver::new().with_recording();
        let mut eng = ProtocolEngine::new(pinger);
        let result = driver.drive(&ep_a, &mut eng).expect("session");
        assert_eq!(result, 21);
        handle.join().expect("peer").expect("peer result");

        let transcript = driver.take_transcript().expect("recording enabled");
        assert_eq!(transcript.total_frames(), 2);
        assert!(transcript.total_wire_bytes() > 0);

        // Serialize, deserialize, replay against a fresh engine.
        let bytes = transcript.to_bytes();
        let restored = Transcript::from_bytes(&bytes).expect("decode");
        assert_eq!(restored, transcript);
        let mut fresh = ProtocolEngine::new(pinger);
        let replayed = replay(&restored, &mut fresh).expect("replay");
        assert_eq!(replayed, 21);
    }

    #[test]
    fn replay_detects_divergence() {
        let mut driver_transcript = Transcript::new();
        driver_transcript.entries.push(TranscriptEntry {
            direction: Direction::Sent,
            coalesced: false,
            frames: vec![Frame::encode(99, &0u64)],
        });
        let mut eng = ProtocolEngine::new(pinger);
        let err = replay(&driver_transcript, &mut eng).unwrap_err();
        assert_eq!(err.frame_kind(), Some(99));
    }

    #[test]
    fn driver_injects_transport_failures() {
        let (ep_a, ep_b) = duplex();
        drop(ep_b);
        let mut eng = ProtocolEngine::new(|io: FrameIo| async move { io.recv_msg::<u64>(1).await });
        let err = drive_blocking(&ep_a, &mut eng).unwrap_err();
        assert_eq!(err, TransportError::Disconnected);
    }

    #[test]
    fn driver_metrics_match_endpoint_stats() {
        let (ep_a, ep_b) = duplex();
        let handle = std::thread::spawn(move || {
            let mut eng = ProtocolEngine::new(ponger);
            drive_blocking(&ep_b, &mut eng)
        });
        let reg = ppcs_telemetry::MetricsRegistry::new(1, "pinger");
        let mut driver = Driver::new().with_metrics(reg.clone());
        let mut eng = ProtocolEngine::new(pinger);
        assert_eq!(driver.drive(&ep_a, &mut eng), Ok(21));
        handle.join().expect("peer").expect("peer result");

        let stats = ep_a.stats();
        let report = reg.report();
        assert_eq!(report.bytes_sent(), stats.bytes_sent);
        assert_eq!(report.bytes_received(), stats.bytes_received);
        assert_eq!(report.frames_sent(), stats.frames_sent);
        assert_eq!(report.frames_received(), stats.frames_received);
        assert_eq!(report.rounds, 1, "pinger handles one frame");
        assert!(report.polls > 0);
        assert_eq!(report.frame_sizes.count, 2, "one sent + one received");
    }

    #[test]
    fn repeated_drives_accumulate_metric_deltas() {
        let reg = ppcs_telemetry::MetricsRegistry::new(2, "pinger");
        let mut total = 0;
        for _ in 0..3 {
            let (ep_a, ep_b) = duplex();
            let handle = std::thread::spawn(move || {
                let mut eng = ProtocolEngine::new(ponger);
                drive_blocking(&ep_b, &mut eng)
            });
            let mut driver = Driver::new().with_metrics(reg.clone());
            let mut eng = ProtocolEngine::new(pinger);
            driver.drive(&ep_a, &mut eng).expect("session");
            handle.join().expect("peer").expect("peer result");
            total += ep_a.stats().total_bytes();
        }
        assert_eq!(reg.report().total_wire_bytes(), total);
        assert_eq!(reg.report().rounds, 3);
    }

    #[test]
    fn driver_timeout_is_counted_and_warned() {
        let (ep_a, _ep_b) = duplex();
        let reg = ppcs_telemetry::MetricsRegistry::new(3, "waiter");
        let mut driver = Driver::new()
            .with_metrics(reg.clone())
            .with_timeout(std::time::Duration::from_millis(10));
        let mut eng: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io: FrameIo| async move {
                io.send_msg(5, &1u64)?;
                io.recv_msg::<u64>(1).await
            });
        let err = driver.drive(&ep_a, &mut eng).unwrap_err();
        assert_eq!(err, TransportError::Timeout);
        let report = reg.report();
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.warns, 1);
    }

    #[test]
    fn budget_deadline_cuts_a_silent_peer() {
        // The peer endpoint stays alive but never sends: the per-recv
        // timeout (30 s default) would hold the session for ages, the
        // wall-clock budget cuts it in tens of milliseconds.
        let (ep_a, _keep_alive) = duplex();
        let reg = ppcs_telemetry::MetricsRegistry::new(11, "budgeted");
        let mut driver = Driver::new()
            .with_metrics(reg.clone())
            .with_limits(SessionLimits::unlimited().with_deadline(Duration::from_millis(50)));
        let mut eng: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io: FrameIo| async move { io.recv_msg::<u64>(1).await });
        let t0 = std::time::Instant::now();
        let err = driver.drive(&ep_a, &mut eng).unwrap_err();
        assert!(matches!(err, TransportError::Budget(_)), "got {err:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "deadline observed promptly"
        );
        assert_eq!(reg.report().budget_exceeded, 1);
    }

    #[test]
    fn budget_max_frames_trips_on_a_flooding_peer() {
        let (ep_a, ep_b) = duplex();
        for i in 0..8u64 {
            ep_b.send_msg(1, &i).unwrap();
        }
        let mut driver = Driver::new().with_limits(SessionLimits::unlimited().with_max_frames(3));
        // The engine wants more frames than the budget allows.
        let mut eng: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io: FrameIo| async move {
                let mut sum = 0;
                for _ in 0..8 {
                    sum += io.recv_msg::<u64>(1).await?;
                }
                Ok(sum)
            });
        let err = driver.drive(&ep_a, &mut eng).unwrap_err();
        match err {
            TransportError::Budget(msg) => assert!(msg.contains("frame budget"), "{msg}"),
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn budget_max_wire_bytes_trips_after_oversized_traffic() {
        let (ep_a, ep_b) = duplex();
        ep_b.send_msg(1, &vec![0u8; 4096]).unwrap();
        let mut driver =
            Driver::new().with_limits(SessionLimits::unlimited().with_max_wire_bytes(256));
        let mut eng: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io: FrameIo| async move {
                let _big = io.recv_msg::<Vec<u8>>(1).await?;
                io.recv_msg::<u64>(2).await
            });
        let err = driver.drive(&ep_a, &mut eng).unwrap_err();
        match err {
            TransportError::Budget(msg) => assert!(msg.contains("wire-byte"), "{msg}"),
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn sessions_within_budget_complete_normally() {
        let (ep_a, ep_b) = duplex();
        let handle = std::thread::spawn(move || {
            let mut eng = ProtocolEngine::new(ponger);
            drive_blocking(&ep_b, &mut eng)
        });
        let mut driver = Driver::new().with_limits(
            SessionLimits::unlimited()
                .with_deadline(Duration::from_secs(10))
                .with_max_frames(16)
                .with_max_wire_bytes(1 << 20),
        );
        let mut eng = ProtocolEngine::new(pinger);
        assert_eq!(driver.drive(&ep_a, &mut eng), Ok(21));
        handle.join().expect("peer").expect("peer result");
    }

    #[test]
    fn cancel_token_cuts_an_in_flight_session() {
        let (ep_a, _keep_alive) = duplex();
        let cancel = Arc::new(AtomicBool::new(false));
        let mut driver = Driver::new().with_cancel(cancel.clone());
        let mut eng: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io: FrameIo| async move { io.recv_msg::<u64>(1).await });
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                cancel.store(true, Ordering::Relaxed);
            });
            let err = driver.drive(&ep_a, &mut eng).unwrap_err();
            match err {
                TransportError::Budget(msg) => assert!(msg.contains("cancelled"), "{msg}"),
                other => panic!("expected Budget, got {other:?}"),
            }
        });
    }

    #[test]
    fn busy_frame_surfaces_as_busy_error() {
        let (ep_a, ep_b) = duplex();
        ep_b.send(Frame {
            kind: KIND_BUSY,
            payload: Bytes::new(),
        })
        .unwrap();
        let mut eng: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io: FrameIo| async move { io.recv_msg::<u64>(1).await });
        let err = drive_blocking(&ep_a, &mut eng).unwrap_err();
        assert_eq!(
            err,
            TransportError::Busy {
                retry_after_ms: None
            }
        );
    }

    #[test]
    fn busy_frame_round_trips_its_retry_after_hint() {
        let hinted = busy_frame(Some(Duration::from_millis(250)));
        assert_eq!(hinted.kind, KIND_BUSY);
        assert_eq!(busy_retry_after(&hinted.payload), Some(250));
        let bare = busy_frame(None);
        assert_eq!(busy_retry_after(&bare.payload), None);
        // Garbage payloads degrade to "no guidance", never a decode error.
        assert_eq!(busy_retry_after(&[1, 2, 3]), None);
    }

    #[test]
    fn busy_with_hint_surfaces_the_hint_through_the_driver() {
        let (ep_a, ep_b) = duplex();
        ep_b.send(busy_frame(Some(Duration::from_millis(40))))
            .unwrap();
        let mut eng: ProtocolEngine<'_, u64, TransportError> =
            ProtocolEngine::new(|io: FrameIo| async move { io.recv_msg::<u64>(1).await });
        let err = drive_blocking(&ep_a, &mut eng).unwrap_err();
        assert_eq!(
            err,
            TransportError::Busy {
                retry_after_ms: Some(40)
            }
        );
    }

    #[test]
    fn transcript_accounts_coalesced_batches_at_wire_size() {
        let frames: Vec<Frame> = (0..16u64).map(|i| Frame::encode(1, &i)).collect();
        let batch = TranscriptEntry {
            direction: Direction::Sent,
            coalesced: true,
            frames: frames.clone(),
        };
        let singles = TranscriptEntry {
            direction: Direction::Sent,
            coalesced: false,
            frames,
        };
        assert!(batch.wire_len() < singles.wire_len());
    }
}
