//! Endpoints with traffic accounting.
//!
//! Each protocol session runs over a pair of [`Endpoint`]s. The endpoints
//! count frames and payload bytes in both directions, which is how the
//! benchmark harness reports the communication cost of each protocol —
//! the paper's Fig. 9/10 discussion attributes most private-protocol cost
//! to the random-polynomial traffic, and these counters make that visible.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use crate::error::TransportError;
use crate::tcp::{halves, FrameReader, FrameWriter, Stream};
use crate::wire::Encodable;

/// Frame kind reserved for coalesced batches: the payload of such a frame
/// carries many logical sub-frames, and [`Endpoint::recv`] transparently
/// unpacks them, so protocols never see this kind directly.
pub const KIND_COALESCED: u16 = 0x00FF;

/// Hard cap on the number of sub-frames one coalesced batch may carry.
///
/// A uniform batch of zero-length payloads encodes an arbitrary count in
/// 11 bytes, so no payload-size check can bound the allocation — this cap
/// is the backstop. The largest legitimate batches (full point clouds for
/// a large classification batch) are orders of magnitude below it.
pub const MAX_COALESCED_FRAMES: usize = 1 << 20;

/// A tagged message: a `kind` discriminant plus an opaque payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Protocol-defined discriminant for the message type.
    pub kind: u16,
    /// Encoded message body.
    pub payload: Bytes,
}

impl Frame {
    /// Frame header overhead charged to the traffic counters, matching a
    /// minimal length-prefixed TCP framing (2-byte kind + 4-byte length).
    pub const HEADER_LEN: usize = 6;

    /// Builds a frame by encoding `body` with the wire codec.
    pub fn encode<T: Encodable>(kind: u16, body: &T) -> Self {
        let mut out = BytesMut::new();
        body.encode(&mut out);
        Self {
            kind,
            payload: out.freeze(),
        }
    }

    /// Decodes the payload as `T`, checking the kind tag first.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnexpectedFrame`] on a kind mismatch —
    /// reporting the expected kind, the actual kind, and the payload
    /// length — and [`TransportError::Decode`] (tagged with the frame
    /// kind) if the payload is malformed or has trailing bytes.
    pub fn decode_as<T: Encodable>(&self, expected_kind: u16) -> Result<T, TransportError> {
        if self.kind != expected_kind {
            return Err(TransportError::UnexpectedFrame {
                expected: expected_kind,
                got: self.kind,
                payload_len: self.payload.len(),
            });
        }
        let mut input = self.payload.clone();
        let value = T::decode(&mut input).map_err(|e| match e {
            TransportError::Decode(msg) => {
                TransportError::Decode(format!("frame kind 0x{:04x}: {msg}", self.kind))
            }
            other => other,
        })?;
        if !input.is_empty() {
            return Err(TransportError::Decode(format!(
                "frame kind 0x{:04x}: {} trailing bytes after frame body",
                self.kind,
                input.len()
            )));
        }
        Ok(value)
    }

    /// Total accounted size (header + payload).
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }
}

impl Encodable for Frame {
    fn encode(&self, out: &mut BytesMut) {
        self.kind.encode(out);
        out.put_u64_le(self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
    }

    fn decode(input: &mut Bytes) -> Result<Self, TransportError> {
        let kind = u16::decode(input)?;
        let payload = Vec::<u8>::decode(input)?;
        Ok(Self {
            kind,
            payload: Bytes::from(payload),
        })
    }
}

/// Traffic counters for one wire frame kind.
///
/// Coalesced batches are accounted under [`KIND_COALESCED`] — the kind
/// that actually crossed the wire — so summing `by_kind` always equals
/// the endpoint totals exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTraffic {
    /// The wire frame kind tag.
    pub kind: u16,
    /// Frames of this kind sent.
    pub frames_sent: u64,
    /// Wire bytes (header + payload) of this kind sent.
    pub bytes_sent: u64,
    /// Frames of this kind received.
    pub frames_received: u64,
    /// Wire bytes of this kind received.
    pub bytes_received: u64,
}

/// Cumulative traffic counters for one endpoint: totals plus a
/// per-frame-kind breakdown whose sums equal the totals by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Frames sent by this endpoint.
    pub frames_sent: u64,
    /// Wire bytes (header + payload) sent by this endpoint.
    pub bytes_sent: u64,
    /// Frames received by this endpoint.
    pub frames_received: u64,
    /// Wire bytes received by this endpoint.
    pub bytes_received: u64,
    /// Per-kind breakdown, sorted by kind.
    pub by_kind: Vec<KindTraffic>,
}

impl TrafficStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// The per-kind counters for `kind`, if any traffic used it.
    pub fn kind(&self, kind: u16) -> Option<&KindTraffic> {
        self.by_kind
            .binary_search_by_key(&kind, |k| k.kind)
            .ok()
            .map(|i| &self.by_kind[i])
    }

    fn kind_mut(&mut self, kind: u16) -> &mut KindTraffic {
        let i = match self.by_kind.binary_search_by_key(&kind, |k| k.kind) {
            Ok(i) => i,
            Err(i) => {
                self.by_kind.insert(
                    i,
                    KindTraffic {
                        kind,
                        ..KindTraffic::default()
                    },
                );
                i
            }
        };
        &mut self.by_kind[i]
    }
}

/// Shared, thread-safe traffic accounting for one endpoint.
///
/// An endpoint and the reactor connection that adopts its stream share
/// one `Arc<SharedStats>`; the recording and snapshot APIs here are the
/// only way traffic counters are touched.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    stats: Mutex<TrafficStats>,
}

impl SharedStats {
    /// Accounts one sent wire frame of `kind` and `wire_len` bytes.
    pub(crate) fn record_sent(&self, kind: u16, wire_len: u64) {
        let mut s = self.stats.lock();
        s.frames_sent += 1;
        s.bytes_sent += wire_len;
        let k = s.kind_mut(kind);
        k.frames_sent += 1;
        k.bytes_sent += wire_len;
    }

    /// Accounts one received wire frame of `kind` and `wire_len` bytes.
    pub(crate) fn record_received(&self, kind: u16, wire_len: u64) {
        let mut s = self.stats.lock();
        s.frames_received += 1;
        s.bytes_received += wire_len;
        let k = s.kind_mut(kind);
        k.frames_received += 1;
        k.bytes_received += wire_len;
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> TrafficStats {
        self.stats.lock().clone()
    }

    /// Zeroes every counter (totals and per-kind alike).
    pub(crate) fn reset(&self) {
        *self.stats.lock() = TrafficStats::default();
    }
}

/// One side of a duplex protocol connection: a framed socket, TCP
/// between machines or one half of a Unix socket pair between threads
/// ([`duplex`]). The protocols are agnostic.
///
/// Sends and receives take separate locks, so one thread may send while
/// another waits in [`recv`](Endpoint::recv).
///
/// # Examples
///
/// ```
/// use ppcs_transport::{duplex, Frame};
///
/// let (alice, bob) = duplex();
/// alice.send(Frame::encode(1, &42u64))?;
/// let frame = bob.recv()?;
/// assert_eq!(frame.decode_as::<u64>(1)?, 42);
/// # Ok::<(), ppcs_transport::TransportError>(())
/// ```
#[derive(Debug)]
pub struct Endpoint {
    reader: Mutex<FrameReader>,
    writer: Mutex<FrameWriter>,
    /// The counters both halves record into, read without their locks.
    stats: Arc<SharedStats>,
    /// Default timeout for blocking receives; `None` blocks forever.
    /// Behind a shared mutex so drivers can adjust it through a shared
    /// reference (see `Driver::with_timeout`) and so every lane of a
    /// [`duplex_pool`] side inherits one deadline cell.
    recv_timeout: Arc<Mutex<Option<Duration>>>,
}

impl Endpoint {
    /// Wraps a connected stream with the default receive deadline.
    pub(crate) fn from_stream(stream: Stream) -> Self {
        Self::with_cell(stream, Arc::new(Mutex::new(DEFAULT_RECV_TIMEOUT)))
    }

    fn with_cell(stream: Stream, recv_timeout: Arc<Mutex<Option<Duration>>>) -> Self {
        let stats = Arc::default();
        let (reader, writer) = halves(stream, &stats);
        Self {
            reader: Mutex::new(reader),
            writer: Mutex::new(writer),
            stats,
            recv_timeout,
        }
    }

    /// The endpoint's two halves, for a new owner of its socket: the
    /// reader keeps whatever it read and did not deliver, and both keep
    /// counting into the endpoint's counters.
    pub(crate) fn into_halves(self) -> (FrameReader, FrameWriter) {
        (self.reader.into_inner(), self.writer.into_inner())
    }

    /// Sends a frame to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer hung up.
    pub fn send(&self, frame: Frame) -> Result<(), TransportError> {
        self.writer.lock().send(&frame)
    }

    /// Encodes and sends a message in one call.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer hung up.
    pub fn send_msg<T: Encodable>(&self, kind: u16, body: &T) -> Result<(), TransportError> {
        self.send(Frame::encode(kind, body))
    }

    /// Coalesces a batch of frames into one wire frame and sends it with
    /// a single write — one frame header crosses the wire instead of one
    /// per sub-frame.
    ///
    /// The peer's [`recv`](Endpoint::recv) unpacks transparently, so the
    /// receiving protocol code is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Decode`] for an empty batch and
    /// [`TransportError::Disconnected`] if the peer hung up.
    pub fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        self.send(coalesce_frames(frames)?)
    }

    /// Receives the next frame, honoring the configured timeout.
    ///
    /// Coalesced frames (see [`Endpoint::send_coalesced`]) are unpacked
    /// here: the first sub-frame is returned and the rest are queued, so
    /// subsequent calls drain the batch before touching the socket. A
    /// receive that times out in the middle of a frame keeps what it
    /// read, and the next one picks the frame up where it stopped.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if the peer hung up,
    /// [`TransportError::Timeout`] if the configured deadline passed.
    pub fn recv(&self) -> Result<Frame, TransportError> {
        let timeout = *self.recv_timeout.lock();
        self.reader.lock().recv(timeout)
    }

    /// Receives and decodes a message of the expected kind.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] from [`Endpoint::recv`] or
    /// [`Frame::decode_as`].
    pub fn recv_msg<T: Encodable>(&self, expected_kind: u16) -> Result<T, TransportError> {
        self.recv()?.decode_as(expected_kind)
    }

    /// Sets the blocking-receive timeout (defaults to 30 s). Takes
    /// `&self` so drivers can configure a shared endpoint; the new value
    /// applies from the next [`recv`](Endpoint::recv).
    pub fn set_recv_timeout(&self, timeout: Option<Duration>) {
        *self.recv_timeout.lock() = timeout;
    }

    /// Snapshot of this endpoint's traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats.snapshot()
    }

    /// Resets the traffic counters (used between benchmark iterations).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// Packs a batch of frames into one [`KIND_COALESCED`] wire frame, the
/// inverse of the unpacking [`Endpoint::recv`] performs.
///
/// Exposed so the transcript recorder can account for coalesced batches
/// with the exact bytes [`Endpoint::send_coalesced`] would put on the
/// wire.
///
/// # Errors
///
/// Returns [`TransportError::Decode`] for an empty batch.
pub fn coalesce_frames(frames: &[Frame]) -> Result<Frame, TransportError> {
    if frames.is_empty() {
        return Err(TransportError::Decode(
            "cannot coalesce an empty frame batch".into(),
        ));
    }
    let first = &frames[0];
    let uniform = frames
        .iter()
        .all(|f| f.kind == first.kind && f.payload.len() == first.payload.len());
    let body_len: usize = frames.iter().map(|f| 6 + f.payload.len()).sum();
    let mut out = BytesMut::with_capacity(5 + body_len);
    out.put_u32_le(frames.len() as u32);
    out.put_u8(uniform as u8);
    if uniform {
        // Batches of identical protocol rounds share one kind/length
        // header, so the per-round framing overhead disappears.
        out.put_u16_le(first.kind);
        out.put_u32_le(first.payload.len() as u32);
        for f in frames {
            out.extend_from_slice(&f.payload);
        }
    } else {
        for f in frames {
            out.put_u16_le(f.kind);
            out.put_u32_le(f.payload.len() as u32);
            out.extend_from_slice(&f.payload);
        }
    }
    Ok(Frame {
        kind: KIND_COALESCED,
        payload: out.freeze(),
    })
}

/// Splits a coalesced payload back into its sub-frames: the first one
/// and the rest, so a batch is never empty.
pub(crate) fn uncoalesce(payload: &Bytes) -> Result<(Frame, VecDeque<Frame>), TransportError> {
    let truncated = || TransportError::Decode("truncated coalesced frame".into());
    let read_u32 = |pos: usize| -> Result<u32, TransportError> {
        let (word, _) = payload
            .get(pos..)
            .and_then(<[u8]>::split_first_chunk)
            .ok_or_else(truncated)?;
        Ok(u32::from_le_bytes(*word))
    };
    let read_u16 = |pos: usize| -> Result<u16, TransportError> {
        let (half, _) = payload
            .get(pos..)
            .and_then(<[u8]>::split_first_chunk)
            .ok_or_else(truncated)?;
        Ok(u16::from_le_bytes(*half))
    };
    let count = read_u32(0)? as usize;
    // The count prefix is attacker-controlled: bound it before reserving
    // any memory. Size checks below handle non-empty payloads; a uniform
    // batch of zero-length payloads encodes *any* count in 11 bytes, so
    // the hard cap is the only bound that can catch it.
    if count > MAX_COALESCED_FRAMES {
        return Err(TransportError::Decode(format!(
            "coalesced batch claims {count} frames, cap is {MAX_COALESCED_FRAMES}"
        )));
    }
    let uniform = *payload.get(4).ok_or_else(truncated)? != 0;
    let mut pos = 5usize;
    let mut frames;
    if uniform {
        let kind = read_u16(pos)?;
        let len = read_u32(pos + 2)? as usize;
        pos += 6;
        if len != 0 && count > payload.len().saturating_sub(pos) / len {
            return Err(TransportError::Decode(format!(
                "coalesced batch claims {count} frames of {len} bytes but only {} payload bytes remain",
                payload.len().saturating_sub(pos)
            )));
        }
        frames = VecDeque::with_capacity(count);
        for _ in 0..count {
            if payload.len() < pos + len {
                return Err(truncated());
            }
            frames.push_back(Frame {
                kind,
                payload: payload.slice(pos..pos + len),
            });
            pos += len;
        }
    } else {
        // Every non-uniform sub-frame costs at least its 6-byte header.
        if count > payload.len().saturating_sub(pos) / 6 {
            return Err(TransportError::Decode(format!(
                "coalesced batch claims {count} frames but only {} payload bytes remain",
                payload.len().saturating_sub(pos)
            )));
        }
        frames = VecDeque::with_capacity(count);
        for _ in 0..count {
            let kind = read_u16(pos)?;
            let len = read_u32(pos + 2)? as usize;
            pos += 6;
            if payload.len() < pos + len {
                return Err(truncated());
            }
            frames.push_back(Frame {
                kind,
                payload: payload.slice(pos..pos + len),
            });
            pos += len;
        }
    }
    if pos != payload.len() {
        return Err(TransportError::Decode(format!(
            "{} trailing bytes after coalesced batch",
            payload.len() - pos
        )));
    }
    let first = frames
        .pop_front()
        .ok_or_else(|| TransportError::Decode("empty coalesced frame".into()))?;
    Ok((first, frames))
}

/// Builds one connected socket pair whose endpoints use the given
/// (possibly shared) recv-deadline cells.
fn duplex_with_cells(
    cell_a: Arc<Mutex<Option<Duration>>>,
    cell_b: Arc<Mutex<Option<Duration>>>,
) -> (Endpoint, Endpoint) {
    let (a, b) = Stream::pair().unwrap_or_else(|e| panic!("cannot open a Unix socket pair: {e}"));
    (
        Endpoint::with_cell(a, cell_a),
        Endpoint::with_cell(b, cell_b),
    )
}

/// Default blocking-receive deadline for freshly created endpoints.
const DEFAULT_RECV_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

/// Creates a connected pair of endpoints over a Unix socket pair: the
/// same framing, accounting and backpressure as TCP, for two parties in
/// one process.
///
/// # Panics
///
/// If the process cannot open the pair's sockets (its file descriptors
/// are exhausted).
pub fn duplex() -> (Endpoint, Endpoint) {
    duplex_with_cells(
        Arc::new(Mutex::new(DEFAULT_RECV_TIMEOUT)),
        Arc::new(Mutex::new(DEFAULT_RECV_TIMEOUT)),
    )
}

/// Creates `lanes` independent duplex connections for parallel protocol
/// sessions; returns the two sides as parallel vectors (`left[i]` talks
/// to `right[i]`).
///
/// All lanes of one side share a single recv-deadline cell, so a
/// [`Endpoint::set_recv_timeout`] (or `Driver::with_timeout`) applied to
/// any lane governs every lane of that side — a stalled pool lane times
/// out exactly when its siblings would, instead of waiting forever on a
/// deadline that was only set on one lane.
///
/// # Panics
///
/// As [`duplex`].
pub fn duplex_pool(lanes: usize) -> (Vec<Endpoint>, Vec<Endpoint>) {
    let left_cell = Arc::new(Mutex::new(DEFAULT_RECV_TIMEOUT));
    let right_cell = Arc::new(Mutex::new(DEFAULT_RECV_TIMEOUT));
    (0..lanes)
        .map(|_| duplex_with_cells(left_cell.clone(), right_cell.clone()))
        .unzip()
}

/// A sendable/receivable frame lane: the minimal surface the blocking
/// drivers need, implemented by [`Endpoint`] and by wrappers around one
/// (an instrumented lane that counts or traces what crosses it).
pub trait Lane: Send + Sync {
    /// Sends one frame to the peer.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] from the underlying medium.
    fn send(&self, frame: Frame) -> Result<(), TransportError>;

    /// Coalesces a batch into one wire frame and sends it.
    ///
    /// # Errors
    ///
    /// [`TransportError::Decode`] for an empty batch, else any transport
    /// failure.
    fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError>;

    /// Receives the next frame, honoring the configured deadline.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] past the deadline,
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn recv(&self) -> Result<Frame, TransportError>;

    /// Sets the blocking-receive deadline; `None` blocks forever.
    fn set_recv_timeout(&self, timeout: Option<Duration>);

    /// Snapshot of the lane's traffic counters.
    fn stats(&self) -> TrafficStats;
}

impl Lane for Endpoint {
    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        Endpoint::send(self, frame)
    }

    fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        Endpoint::send_coalesced(self, frames)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        Endpoint::recv(self)
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) {
        Endpoint::set_recv_timeout(self, timeout)
    }

    fn stats(&self) -> TrafficStats {
        Endpoint::stats(self)
    }
}

/// A borrowed lane is a lane, so code that owns its lane and code that
/// borrows one share the same generic paths.
impl<L: Lane + ?Sized> Lane for &L {
    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        (**self).send(frame)
    }

    fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        (**self).send_coalesced(frames)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        (**self).recv()
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) {
        (**self).set_recv_timeout(timeout)
    }

    fn stats(&self) -> TrafficStats {
        (**self).stats()
    }
}

/// Runs two party closures on separate threads over a fresh duplex
/// connection and returns both results.
///
/// Protocol errors propagate as panics in the party threads; this helper
/// re-raises them on the caller thread with the party name attached.
///
/// # Panics
///
/// Panics if either party thread panics.
pub fn run_pair<FA, FB, RA, RB>(alice: FA, bob: FB) -> (RA, RB)
where
    FA: FnOnce(Endpoint) -> RA + Send,
    FB: FnOnce(Endpoint) -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (ep_a, ep_b) = duplex();
    std::thread::scope(|scope| {
        let ha = scope.spawn(move || alice(ep_a));
        let hb = scope.spawn(move || bob(ep_b));
        let ra = match ha.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        };
        let rb = match hb.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        };
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let (a, b) = duplex();
        a.send_msg(7, &123u64).unwrap();
        assert_eq!(b.recv_msg::<u64>(7).unwrap(), 123);
    }

    #[test]
    fn kind_mismatch_is_detected() {
        let (a, b) = duplex();
        a.send_msg(7, &123u64).unwrap();
        let err = b.recv_msg::<u64>(8).unwrap_err();
        assert_eq!(
            err,
            TransportError::UnexpectedFrame {
                expected: 8,
                got: 7,
                payload_len: 8
            }
        );
    }

    #[test]
    fn decode_errors_carry_the_frame_kind() {
        let frame = Frame::encode(0x0400, &(1u64, 2u64));
        let err = frame.decode_as::<u64>(0x0400).unwrap_err();
        match err {
            TransportError::Decode(msg) => {
                assert!(msg.contains("0x0400"), "kind missing from: {msg}")
            }
            other => panic!("expected Decode, got {other:?}"),
        }
        let frame = Frame {
            kind: 0x0400,
            payload: Bytes::copy_from_slice(&[1, 2, 3]),
        };
        let err = frame.decode_as::<u64>(0x0400).unwrap_err();
        match err {
            TransportError::Decode(msg) => {
                assert!(msg.contains("0x0400"), "kind missing from: {msg}")
            }
            other => panic!("expected Decode, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (a, b) = duplex();
        a.send_msg(1, &(1u64, 2u64)).unwrap();
        assert!(matches!(
            b.recv_msg::<u64>(1),
            Err(TransportError::Decode(_))
        ));
    }

    #[test]
    fn stats_count_both_directions() {
        let (a, b) = duplex();
        a.send_msg(1, &1u64).unwrap();
        a.send_msg(1, &2u64).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        b.send_msg(2, &vec![0u8; 100]).unwrap();
        a.recv().unwrap();

        let sa = a.stats();
        assert_eq!(sa.frames_sent, 2);
        assert_eq!(sa.bytes_sent, 2 * (Frame::HEADER_LEN as u64 + 8));
        assert_eq!(sa.frames_received, 1);
        let k1 = sa.kind(1).unwrap();
        assert_eq!(k1.frames_sent, 2);
        assert_eq!(k1.bytes_sent, sa.bytes_sent);
        assert_eq!(sa.kind(2).unwrap().bytes_received, sa.bytes_received);
        let sb = b.stats();
        assert_eq!(sb.frames_received, 2);
        assert_eq!(sb.bytes_sent, Frame::HEADER_LEN as u64 + 8 + 100);
        a.reset_stats();
        assert_eq!(a.stats(), TrafficStats::default());
        assert!(a.stats().by_kind.is_empty(), "reset clears per-kind too");
    }

    #[test]
    fn per_kind_counters_sum_to_totals() {
        let (a, b) = duplex();
        a.send_msg(1, &1u64).unwrap();
        a.send_msg(2, &vec![0u8; 64]).unwrap();
        a.send_coalesced(&[Frame::encode(3, &1u64), Frame::encode(3, &2u64)])
            .unwrap();
        for _ in 0..4 {
            b.recv().unwrap();
        }
        for stats in [a.stats(), b.stats()] {
            let sent: u64 = stats.by_kind.iter().map(|k| k.bytes_sent).sum();
            let received: u64 = stats.by_kind.iter().map(|k| k.bytes_received).sum();
            assert_eq!(sent, stats.bytes_sent);
            assert_eq!(received, stats.bytes_received);
            let frames: u64 = stats
                .by_kind
                .iter()
                .map(|k| k.frames_sent + k.frames_received)
                .sum();
            assert_eq!(frames, stats.frames_sent + stats.frames_received);
        }
        // The batch crossed as one KIND_COALESCED wire frame and is
        // accounted under that kind — logical kind 3 never hit the wire.
        let sa = a.stats();
        assert_eq!(sa.kind(KIND_COALESCED).unwrap().frames_sent, 1);
        assert!(sa.kind(3).is_none());
    }

    #[test]
    fn disconnect_is_reported() {
        let (a, b) = duplex();
        drop(b);
        assert_eq!(a.send_msg(1, &1u64), Err(TransportError::Disconnected));
        assert_eq!(a.recv().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn timeout_is_reported() {
        let (a, _b) = duplex();
        a.set_recv_timeout(Some(Duration::from_millis(10)));
        assert_eq!(a.recv().unwrap_err(), TransportError::Timeout);
    }

    #[test]
    fn coalesced_batch_unpacks_in_order() {
        let (a, b) = duplex();
        let frames: Vec<Frame> = (0..5u64)
            .map(|i| Frame::encode(10 + i as u16, &i))
            .collect();
        a.send_coalesced(&frames).unwrap();
        for (i, want) in frames.iter().enumerate() {
            let got = b.recv().unwrap();
            assert_eq!(&got, want, "sub-frame {i}");
        }
        // Exactly one wire frame crossed, in each direction's accounting.
        assert_eq!(a.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_received, 1);
    }

    #[test]
    fn coalesced_batch_interleaves_with_plain_frames() {
        let (a, b) = duplex();
        a.send_coalesced(&[Frame::encode(1, &1u64), Frame::encode(2, &2u64)])
            .unwrap();
        a.send_msg(3, &3u64).unwrap();
        assert_eq!(b.recv_msg::<u64>(1).unwrap(), 1);
        assert_eq!(b.recv_msg::<u64>(2).unwrap(), 2);
        assert_eq!(b.recv_msg::<u64>(3).unwrap(), 3);
    }

    #[test]
    fn coalesced_rejects_empty_batch_and_garbage() {
        let (a, b) = duplex();
        assert!(matches!(
            a.send_coalesced(&[]),
            Err(TransportError::Decode(_))
        ));
        a.send(Frame {
            kind: KIND_COALESCED,
            payload: Bytes::copy_from_slice(&[7, 0, 0]),
        })
        .unwrap();
        assert!(matches!(b.recv(), Err(TransportError::Decode(_))));
    }

    #[test]
    fn coalesced_count_is_bounded_before_allocation() {
        // Non-uniform batch claiming u32::MAX frames with an 11-byte
        // payload: must be rejected by the size bound, not by running
        // out of memory reserving the deque.
        let mut hostile = BytesMut::new();
        hostile.put_u32_le(u32::MAX);
        hostile.put_u8(0);
        hostile.extend_from_slice(&[0u8; 6]);
        match uncoalesce(&hostile.freeze()) {
            Err(TransportError::Decode(msg)) => {
                assert!(msg.contains("claims"), "got: {msg}")
            }
            other => panic!("expected Decode error, got {other:?}"),
        }

        // Uniform batch of zero-length payloads: any count fits in 11
        // bytes, so only the hard cap can stop it.
        let mut hostile = BytesMut::new();
        hostile.put_u32_le(u32::MAX);
        hostile.put_u8(1);
        hostile.put_u16_le(7);
        hostile.put_u32_le(0);
        match uncoalesce(&hostile.freeze()) {
            Err(TransportError::Decode(msg)) => {
                assert!(msg.contains("cap"), "got: {msg}")
            }
            other => panic!("expected Decode error, got {other:?}"),
        }

        // Uniform batch over-claiming against a small payload body.
        let mut hostile = BytesMut::new();
        hostile.put_u32_le(1000);
        hostile.put_u8(1);
        hostile.put_u16_le(7);
        hostile.put_u32_le(1 << 20);
        hostile.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            uncoalesce(&hostile.freeze()),
            Err(TransportError::Decode(_))
        ));

        // A legitimate uniform batch of empty payloads still unpacks.
        let frames: Vec<Frame> = (0..4)
            .map(|_| Frame {
                kind: 7,
                payload: Bytes::new(),
            })
            .collect();
        let packed = coalesce_frames(&frames).unwrap();
        let (_, rest) = uncoalesce(&packed.payload).unwrap();
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn coalescing_saves_header_bytes() {
        let (plain_a, plain_b) = duplex();
        let (batch_a, batch_b) = duplex();
        let frames: Vec<Frame> = (0..16u64).map(|i| Frame::encode(1, &i)).collect();
        for f in &frames {
            plain_a.send(f.clone()).unwrap();
            plain_b.recv().unwrap();
        }
        batch_a.send_coalesced(&frames).unwrap();
        for _ in 0..frames.len() {
            batch_b.recv().unwrap();
        }
        assert!(batch_a.stats().bytes_sent < plain_a.stats().bytes_sent);
    }

    #[test]
    fn duplex_pool_lanes_are_independent() {
        let (left, right) = duplex_pool(3);
        for (i, l) in left.iter().enumerate() {
            l.send_msg(1, &(i as u64)).unwrap();
        }
        for (i, r) in right.iter().enumerate() {
            assert_eq!(r.recv_msg::<u64>(1).unwrap(), i as u64);
        }
    }

    #[test]
    fn duplex_pool_lanes_share_recv_deadline_per_side() {
        let (left, right) = duplex_pool(3);
        // Setting the deadline through one left lane applies to all of
        // them: a sibling lane with nothing to read times out promptly
        // instead of waiting out the 30 s default.
        left[0].set_recv_timeout(Some(Duration::from_millis(10)));
        assert_eq!(left[2].recv().unwrap_err(), TransportError::Timeout);
        // The opposite side keeps its own (long) deadline: data queued
        // for it is still delivered normally.
        left[1].send_msg(1, &7u64).unwrap();
        assert_eq!(right[1].recv_msg::<u64>(1).unwrap(), 7);
    }

    #[test]
    fn plain_duplex_timeouts_stay_independent() {
        let (a, b) = duplex();
        a.set_recv_timeout(Some(Duration::from_millis(10)));
        assert_eq!(a.recv().unwrap_err(), TransportError::Timeout);
        // `b` was not reconfigured; it still sees queued traffic.
        a.send_msg(1, &1u64).unwrap();
        assert_eq!(b.recv_msg::<u64>(1).unwrap(), 1);
    }

    #[test]
    fn a_frame_larger_than_the_socket_buffer_crosses_between_threads() {
        let (a, b) = duplex();
        // Far past a Unix socket's few hundred KiB of buffer: the send
        // completes only as the receiver reads.
        let big = vec![0x5au8; 4 << 20];
        let payload = big.clone();
        let sender = std::thread::spawn(move || {
            a.send_msg(9, &payload).unwrap();
            a
        });
        assert_eq!(b.recv_msg::<Vec<u8>>(9).unwrap(), big);
        let a = sender.join().unwrap();
        assert_eq!(a.stats().bytes_sent, b.stats().bytes_received);
    }

    #[test]
    fn an_oversized_announcement_is_refused_as_over_tcp() {
        use std::io::Write;
        let mut header = 7u16.to_le_bytes().to_vec();
        header.extend_from_slice(&(crate::tcp::MAX_PAYLOAD + 1).to_le_bytes());

        let (mut raw, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
        let ep = Endpoint::from_stream(Stream::Unix(theirs));
        raw.write_all(&header).unwrap();
        let over_pair = ep.recv().unwrap_err();

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let ep = crate::tcp_accept(&listener).unwrap();
        raw.write_all(&header).unwrap();
        let over_tcp = ep.recv().unwrap_err();

        assert!(
            matches!(&over_pair, TransportError::Decode(msg) if msg.contains("cap")),
            "{over_pair:?}"
        );
        assert_eq!(over_pair, over_tcp);
    }

    #[test]
    fn run_pair_exchanges_messages() {
        let (sum_a, sum_b) = run_pair(
            |ep| {
                ep.send_msg(1, &10u64).unwrap();
                ep.recv_msg::<u64>(2).unwrap()
            },
            |ep| {
                let v = ep.recv_msg::<u64>(1).unwrap();
                ep.send_msg(2, &(v * 2)).unwrap();
                v
            },
        );
        assert_eq!(sum_a, 20);
        assert_eq!(sum_b, 10);
    }
}
