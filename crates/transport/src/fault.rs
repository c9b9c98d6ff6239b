//! Deterministic fault injection for protocol lanes.
//!
//! [`FaultyLane`] wraps an [`Endpoint`] and applies a seeded
//! [`FaultSchedule`] — drop, duplicate, reorder, corrupt, delay, or cut —
//! to the frames a session sends. Every wire frame is wrapped in a
//! [`KIND_CHAOS`] carrier holding a sequence number and a checksum, so
//! the receiving side can re-sequence survivors, discard duplicates and
//! corrupted frames, and stall (into the configured recv deadline) when
//! a frame was genuinely lost. The result is the trichotomy the chaos
//! harness asserts: a faulted session either completes with the correct
//! value, or both parties terminate with a structured error — never a
//! hang, never a wrong answer.
//!
//! The schedule is pure data keyed by send sequence number, so a failing
//! chaos seed reproduces exactly.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use ppcs_telemetry::MetricsRegistry;

use crate::channel::{
    coalesce_frames, duplex, uncoalesce, Endpoint, Frame, Lane, TrafficStats, KIND_COALESCED,
};
use crate::error::TransportError;
use crate::reactor::Waker;

/// Frame kind for the chaos carrier: `seq | inner kind | inner payload |
/// checksum`. Reserved next to [`KIND_COALESCED`]; protocols never see it.
pub const KIND_CHAOS: u16 = 0x00FD;

/// How long a [`FaultKind::Delay`] fault stalls the frame.
const DELAY_FAULT: Duration = Duration::from_millis(2);

/// splitmix64: the workspace's no-dependency seeded generator behind
/// fault schedules and corruption.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64: integrity checksum for carrier frames, so a corrupt fault
/// is detected and discarded instead of delivered.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One injectable transport fault, applied to the frame whose send
/// sequence number the schedule maps to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame never reaches the peer.
    Drop,
    /// The frame arrives twice.
    Duplicate,
    /// The frame is held back and sent after the next frame (a swap; if
    /// no frame follows, it is never flushed — an effective tail drop).
    Reorder,
    /// One deterministic bit of the wire bytes is flipped.
    Corrupt,
    /// The frame is delivered late (after a fixed sleep).
    Delay,
    /// The connection dies: this send and everything after it fails with
    /// [`TransportError::Disconnected`], and the peer sees the same once
    /// the lane is dropped.
    Cut,
}

/// A deterministic map from send sequence number to the fault applied to
/// that frame. Pure data: the same schedule always injects the same
/// faults at the same points.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    faults: BTreeMap<u64, FaultKind>,
}

impl FaultSchedule {
    /// A schedule that injects nothing (a transparent lane).
    pub fn none() -> Self {
        Self::default()
    }

    /// A schedule with exactly one fault at send sequence `seq`.
    pub fn single(seq: u64, kind: FaultKind) -> Self {
        Self::default().with(seq, kind)
    }

    /// Adds (or replaces) a fault at `seq`.
    #[must_use]
    pub fn with(mut self, seq: u64, kind: FaultKind) -> Self {
        self.faults.insert(seq, kind);
        self
    }

    /// Derives a schedule of 1–4 faults at sequence numbers below 24 from
    /// `seed` — the unit of the chaos sweep: one seed, one reproducible
    /// failure pattern.
    pub fn seeded(seed: u64) -> Self {
        let mut s = seed;
        let n = 1 + splitmix64(&mut s) % 4;
        let mut sched = Self::default();
        for _ in 0..n {
            let seq = splitmix64(&mut s) % 24;
            let kind = match splitmix64(&mut s) % 6 {
                0 => FaultKind::Drop,
                1 => FaultKind::Duplicate,
                2 => FaultKind::Reorder,
                3 => FaultKind::Corrupt,
                4 => FaultKind::Delay,
                _ => FaultKind::Cut,
            };
            sched.faults.insert(seq, kind);
        }
        sched
    }

    /// The fault scheduled for send sequence `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<FaultKind> {
        self.faults.get(&seq).copied()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether every scheduled fault is recoverable by the lane itself
    /// without losing a frame ([`FaultKind::Duplicate`] and
    /// [`FaultKind::Delay`]): such sessions must complete successfully,
    /// which the chaos harness asserts as the strong branch of the
    /// trichotomy.
    pub fn is_lossless(&self) -> bool {
        self.faults
            .values()
            .all(|k| matches!(k, FaultKind::Duplicate | FaultKind::Delay))
    }
}

/// Counters for faults a lane injected (send side) and recovered from
/// (recv side).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames silently not sent.
    pub dropped: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames held back past their successor.
    pub reordered: u64,
    /// Frames sent with a flipped bit.
    pub corrupted: u64,
    /// Frames delivered late.
    pub delayed: u64,
    /// Connection cuts injected.
    pub cut: u64,
    /// Received carriers discarded for checksum mismatch.
    pub discarded_corrupt: u64,
    /// Received carriers discarded as duplicates (stale sequence).
    pub discarded_duplicate: u64,
}

/// Mutable per-lane fault state, under one lock.
#[derive(Default)]
struct LaneState {
    next_send_seq: u64,
    next_recv_seq: u64,
    /// Carrier held back by a reorder fault, flushed after the next send.
    deferred: Option<Frame>,
    /// Early arrivals waiting for the sequence gap to fill.
    reorder_buf: BTreeMap<u64, Frame>,
    /// Sub-frames unpacked from a delivered coalesced frame.
    pending: VecDeque<Frame>,
    /// Set once a cut fault fires; every later send/recv fails.
    cut: bool,
    counters: FaultStats,
}

/// An [`Endpoint`] wrapper that injects a deterministic [`FaultSchedule`]
/// on its send path and runs recovery (re-sequencing, dedup, integrity
/// checking) on its recv path.
///
/// Implements [`Lane`], so any engine-driven session — and the parallel
/// classification pipeline — runs over it unchanged.
pub struct FaultyLane {
    inner: Endpoint,
    schedule: FaultSchedule,
    state: Mutex<LaneState>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for FaultyLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyLane")
            .field("schedule", &self.schedule)
            .finish_non_exhaustive()
    }
}

impl FaultyLane {
    /// Wraps `inner` with a fault schedule.
    pub fn new(inner: Endpoint, schedule: FaultSchedule) -> Self {
        Self {
            inner,
            schedule,
            state: Mutex::new(LaneState::default()),
            metrics: None,
        }
    }

    /// Counts each injected fault in `metrics` as well.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Snapshot of the faults injected and recovered so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().counters
    }

    fn count_fault(&self) {
        if let Some(reg) = &self.metrics {
            reg.record_fault();
        }
    }

    /// Wraps `frame` in a sequenced, checksummed carrier.
    fn encode_carrier(seq: u64, frame: &Frame) -> Frame {
        let mut out = BytesMut::with_capacity(10 + frame.payload.len() + 8);
        out.put_u64_le(seq);
        out.put_u16_le(frame.kind);
        out.extend_from_slice(&frame.payload);
        let sum = fnv1a64(&out);
        out.put_u64_le(sum);
        Frame {
            kind: KIND_CHAOS,
            payload: out.freeze(),
        }
    }

    /// Unwraps a carrier, verifying the checksum.
    fn decode_carrier(payload: &Bytes) -> Result<(u64, Frame), TransportError> {
        let truncated = || TransportError::Decode("truncated chaos carrier".into());
        let (body, sum) = payload.split_last_chunk::<8>().ok_or_else(truncated)?;
        let (seq, rest) = body.split_first_chunk::<8>().ok_or_else(truncated)?;
        let (kind, _) = rest.split_first_chunk::<2>().ok_or_else(truncated)?;
        if fnv1a64(body) != u64::from_le_bytes(*sum) {
            return Err(TransportError::Decode(
                "chaos carrier checksum mismatch".into(),
            ));
        }
        Ok((
            u64::from_le_bytes(*seq),
            Frame {
                kind: u16::from_le_bytes(*kind),
                payload: payload.slice(10..body.len()),
            },
        ))
    }

    /// Flips one schedule-deterministic bit of the carrier bytes.
    fn corrupt(carrier: Frame, seq: u64) -> Frame {
        let mut bytes = carrier.payload.to_vec();
        let mut s = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C0_FFEE;
        let bit = (splitmix64(&mut s) % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        Frame {
            kind: KIND_CHAOS,
            payload: Bytes::from(bytes),
        }
    }

    fn send_wire(&self, frame: Frame) -> Result<(), TransportError> {
        let (delay, to_send) = {
            let mut st = self.state.lock();
            if st.cut {
                return Err(TransportError::Disconnected);
            }
            let seq = st.next_send_seq;
            st.next_send_seq += 1;
            let carrier = Self::encode_carrier(seq, &frame);
            let mut delay = false;
            let mut to_send: Vec<Frame> = Vec::new();
            match self.schedule.get(seq) {
                Some(FaultKind::Drop) => {
                    st.counters.dropped += 1;
                    self.count_fault();
                }
                Some(FaultKind::Duplicate) => {
                    st.counters.duplicated += 1;
                    self.count_fault();
                    to_send.push(carrier.clone());
                    to_send.push(carrier);
                }
                Some(FaultKind::Reorder) => {
                    st.counters.reordered += 1;
                    self.count_fault();
                    if let Some(old) = st.deferred.replace(carrier) {
                        to_send.push(old);
                    }
                }
                Some(FaultKind::Corrupt) => {
                    st.counters.corrupted += 1;
                    self.count_fault();
                    to_send.push(Self::corrupt(carrier, seq));
                }
                Some(FaultKind::Delay) => {
                    st.counters.delayed += 1;
                    self.count_fault();
                    delay = true;
                    to_send.push(carrier);
                }
                Some(FaultKind::Cut) => {
                    st.cut = true;
                    st.counters.cut += 1;
                    self.count_fault();
                    return Err(TransportError::Disconnected);
                }
                None => to_send.push(carrier),
            }
            // Any actual transmission flushes a reorder-deferred frame
            // after itself, completing the swap.
            if !to_send.is_empty() {
                if let Some(d) = st.deferred.take() {
                    to_send.push(d);
                }
            }
            (delay, to_send)
        };
        if delay {
            std::thread::sleep(DELAY_FAULT);
        }
        for c in to_send {
            self.inner.send(c)?;
        }
        Ok(())
    }

    /// Hands a recovered in-order frame to the caller, unpacking
    /// coalesced batches exactly like [`Endpoint::recv`].
    fn deliver(st: &mut LaneState, frame: Frame) -> Result<Frame, TransportError> {
        if frame.kind == KIND_COALESCED {
            let mut batch = uncoalesce(&frame.payload)?;
            let first = batch
                .pop_front()
                .ok_or_else(|| TransportError::Decode("empty coalesced frame".into()))?;
            st.pending.extend(batch);
            return Ok(first);
        }
        Ok(frame)
    }

    fn recv_wire(&self) -> Result<Frame, TransportError> {
        loop {
            {
                let mut st = self.state.lock();
                if let Some(f) = st.pending.pop_front() {
                    return Ok(f);
                }
                if st.cut {
                    return Err(TransportError::Disconnected);
                }
                let next = st.next_recv_seq;
                if let Some(frame) = st.reorder_buf.remove(&next) {
                    st.next_recv_seq += 1;
                    return Self::deliver(&mut st, frame);
                }
            }
            let wire = self.inner.recv()?;
            if wire.kind != KIND_CHAOS {
                // Peer is not wrapping (mixed setup): pass through.
                return Ok(wire);
            }
            match Self::decode_carrier(&wire.payload) {
                Err(_) => {
                    // Integrity failure: the frame is discarded, the
                    // sequence gap persists, and the lane stalls into
                    // the recv deadline — never delivers garbage.
                    self.state.lock().counters.discarded_corrupt += 1;
                }
                Ok((seq, frame)) => {
                    let mut st = self.state.lock();
                    if seq < st.next_recv_seq {
                        st.counters.discarded_duplicate += 1;
                    } else if seq > st.next_recv_seq {
                        st.reorder_buf.insert(seq, frame);
                    } else {
                        st.next_recv_seq += 1;
                        return Self::deliver(&mut st, frame);
                    }
                }
            }
        }
    }
}

impl Lane for FaultyLane {
    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        self.send_wire(frame)
    }

    fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        self.send_wire(coalesce_frames(frames)?)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        self.recv_wire()
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_recv_timeout(timeout);
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }

    fn wake_on_arrival(&self, waker: &Arc<Waker>) -> bool {
        self.inner.wake_on_arrival(waker)
    }
}

/// An in-memory connected pair of fault lanes, one schedule per side.
pub fn faulty_pair(a: FaultSchedule, b: FaultSchedule) -> (FaultyLane, FaultyLane) {
    let (ea, eb) = duplex();
    (FaultyLane::new(ea, a), FaultyLane::new(eb, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_deadline(lane: &FaultyLane) {
        lane.set_recv_timeout(Some(Duration::from_millis(50)));
    }

    #[test]
    fn clean_schedule_is_transparent() {
        let (a, b) = faulty_pair(FaultSchedule::none(), FaultSchedule::none());
        for i in 0..5u64 {
            a.send(Frame::encode(1, &i)).unwrap();
        }
        for i in 0..5u64 {
            assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), i);
        }
        assert_eq!(a.fault_stats(), FaultStats::default());
    }

    #[test]
    fn duplicates_are_discarded() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(1, FaultKind::Duplicate),
            FaultSchedule::none(),
        );
        short_deadline(&b);
        for i in 0..3u64 {
            a.send(Frame::encode(1, &i)).unwrap();
        }
        for i in 0..3u64 {
            assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), i);
        }
        // The duplicate was consumed, not delivered: nothing left.
        assert_eq!(b.recv().unwrap_err(), TransportError::Timeout);
        assert_eq!(b.fault_stats().discarded_duplicate, 1);
    }

    #[test]
    fn reordered_frames_are_resequenced() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(0, FaultKind::Reorder),
            FaultSchedule::none(),
        );
        a.send(Frame::encode(1, &0u64)).unwrap();
        a.send(Frame::encode(1, &1u64)).unwrap();
        // On the wire frame 1 travels first; the receiver still sees 0, 1.
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 0);
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 1);
        assert_eq!(a.fault_stats().reordered, 1);
    }

    #[test]
    fn corrupt_frames_are_discarded_and_stall() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(0, FaultKind::Corrupt),
            FaultSchedule::none(),
        );
        short_deadline(&b);
        a.send(Frame::encode(1, &7u64)).unwrap();
        // The flipped bit fails the checksum; the frame is discarded and
        // the lane stalls into the deadline rather than delivering junk.
        assert_eq!(b.recv().unwrap_err(), TransportError::Timeout);
        assert_eq!(b.fault_stats().discarded_corrupt, 1);
    }

    #[test]
    fn short_carriers_are_typed_decode_errors() {
        for len in 0..18 {
            let short = Bytes::from(vec![0u8; len]);
            assert!(
                matches!(
                    FaultyLane::decode_carrier(&short),
                    Err(TransportError::Decode(_))
                ),
                "{len}-byte carrier"
            );
        }
        // 18 bytes is the smallest carrier: an empty frame.
        let empty = FaultyLane::encode_carrier(
            7,
            &Frame {
                kind: 3,
                payload: Bytes::new(),
            },
        );
        assert_eq!(empty.payload.len(), 18);
        let (seq, frame) = FaultyLane::decode_carrier(&empty.payload).unwrap();
        assert_eq!((seq, frame.kind, frame.payload.len()), (7, 3, 0));
        // On a lane, a short carrier is discarded like a corrupt one.
        let (raw, inner) = duplex();
        let lane = FaultyLane::new(inner, FaultSchedule::none());
        short_deadline(&lane);
        raw.send(Frame {
            kind: KIND_CHAOS,
            payload: Bytes::from(vec![0u8; 17]),
        })
        .unwrap();
        assert_eq!(lane.recv().unwrap_err(), TransportError::Timeout);
        assert_eq!(lane.fault_stats().discarded_corrupt, 1);
    }

    #[test]
    fn dropped_frames_stall_but_later_traffic_is_buffered() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(0, FaultKind::Drop),
            FaultSchedule::none(),
        );
        short_deadline(&b);
        a.send(Frame::encode(1, &0u64)).unwrap();
        a.send(Frame::encode(1, &1u64)).unwrap();
        // Frame 0 is gone; frame 1 waits in the reorder buffer while the
        // receiver stalls on the gap.
        assert_eq!(b.recv().unwrap_err(), TransportError::Timeout);
        assert_eq!(a.fault_stats().dropped, 1);
    }

    #[test]
    fn cut_fails_both_directions() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(1, FaultKind::Cut),
            FaultSchedule::none(),
        );
        a.send(Frame::encode(1, &0u64)).unwrap();
        assert_eq!(
            a.send(Frame::encode(1, &1u64)).unwrap_err(),
            TransportError::Disconnected
        );
        assert_eq!(
            a.send(Frame::encode(1, &2u64)).unwrap_err(),
            TransportError::Disconnected
        );
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 0);
        drop(a);
        assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn coalesced_batches_survive_reordering() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(0, FaultKind::Reorder),
            FaultSchedule::none(),
        );
        a.send_coalesced(&[Frame::encode(1, &10u64), Frame::encode(1, &11u64)])
            .unwrap();
        a.send(Frame::encode(2, &12u64)).unwrap();
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 10);
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 11);
        assert_eq!(b.recv().unwrap().decode_as::<u64>(2).unwrap(), 12);
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_nonempty() {
        for seed in 0..64u64 {
            let s1 = FaultSchedule::seeded(seed);
            let s2 = FaultSchedule::seeded(seed);
            assert_eq!(s1, s2);
            assert!(!s1.is_empty());
        }
        // Different seeds produce different schedules somewhere.
        assert_ne!(FaultSchedule::seeded(1), FaultSchedule::seeded(2));
    }
}
