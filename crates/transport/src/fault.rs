//! Deterministic fault injection for protocol lanes.
//!
//! [`FaultyLane`] wraps one side of a connection — an in-memory
//! [`Endpoint`] or a TCP one — and applies a seeded [`FaultSchedule`] to
//! the frames that side sends. The faults are the ones a stream can
//! have: a frame arrives late, the stream stops delivering while the
//! connection stays open, or the connection dies. TCP never hands the
//! application a duplicated, reordered or corrupted frame, so none is
//! simulated; hostile bytes are the subject of the codec fuzz and
//! adversarial suites. The peer needs no wrapper: it sees a plain
//! stream.
//!
//! The chaos harness asserts the trichotomy on top: a faulted session
//! either completes with the correct value, or both parties terminate
//! with a structured error — never a hang, never a wrong answer. The
//! schedule is pure data keyed by send sequence number (one per wire
//! frame; a coalesced batch is one), so a failing chaos seed reproduces
//! exactly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::channel::{coalesce_frames, duplex, Endpoint, Frame, Lane, TrafficStats};
use crate::error::TransportError;
use crate::reactor::Waker;

/// How long a [`FaultKind::Delay`] fault holds the frame back.
const DELAY_FAULT: Duration = Duration::from_millis(2);

/// splitmix64: the workspace's no-dependency seeded generator behind
/// fault schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One injectable transport fault, applied to the frame whose send
/// sequence number the schedule maps to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is sent late (after a fixed sleep).
    Delay,
    /// The stream stops: this frame and every later one are silently
    /// not sent, while sends keep succeeding and the connection stays
    /// open, so the peer's deadline fires — what a lost segment does to
    /// a stream. A later scheduled [`FaultKind::Cut`] still fires.
    Stall,
    /// The connection dies: this send and every later send or receive
    /// fails with [`TransportError::Disconnected`], and the peer sees
    /// the same once the lane is dropped.
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
            let kind = match splitmix64(&mut s) % 3 {
                0 => FaultKind::Delay,
                1 => FaultKind::Stall,
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

    /// Whether every scheduled fault loses no frame (only
    /// [`FaultKind::Delay`]): such sessions must complete successfully,
    /// which the chaos harness asserts as the strong branch of the
    /// trichotomy.
    pub fn is_lossless(&self) -> bool {
        self.faults.values().all(|k| *k == FaultKind::Delay)
    }
}

/// Where the send path stands, under one lock.
#[derive(Debug, Default)]
struct SendState {
    next_seq: u64,
    stalled: bool,
    cut: bool,
}

/// An [`Endpoint`] wrapper that applies a deterministic [`FaultSchedule`]
/// to its sends; receives pass through.
///
/// Implements [`Lane`], so any engine-driven session — and the parallel
/// classification pipeline — runs over it unchanged.
#[derive(Debug)]
pub struct FaultyLane {
    inner: Endpoint,
    schedule: FaultSchedule,
    state: Mutex<SendState>,
}

impl FaultyLane {
    /// Wraps `inner` with a fault schedule.
    pub fn new(inner: Endpoint, schedule: FaultSchedule) -> Self {
        Self {
            inner,
            schedule,
            state: Mutex::new(SendState::default()),
        }
    }

    /// Sends one wire frame under the schedule.
    fn send_wire(&self, frame: Frame) -> Result<(), TransportError> {
        let delay = {
            let mut st = self.state.lock();
            if st.cut {
                return Err(TransportError::Disconnected);
            }
            let fault = self.schedule.get(st.next_seq);
            st.next_seq += 1;
            match fault {
                Some(FaultKind::Cut) => {
                    st.cut = true;
                    return Err(TransportError::Disconnected);
                }
                Some(FaultKind::Stall) => st.stalled = true,
                Some(FaultKind::Delay) | None => {}
            }
            if st.stalled {
                return Ok(());
            }
            fault == Some(FaultKind::Delay)
        };
        if delay {
            std::thread::sleep(DELAY_FAULT);
        }
        self.inner.send(frame)
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
        if self.state.lock().cut {
            return Err(TransportError::Disconnected);
        }
        self.inner.recv()
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
    use crate::driver::{busy_frame, busy_retry_after, KIND_BUSY};

    fn short_deadline(lane: &impl Lane) {
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
    }

    #[test]
    fn delayed_frames_arrive_in_order() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(0, FaultKind::Delay).with(2, FaultKind::Delay),
            FaultSchedule::none(),
        );
        for i in 0..4u64 {
            a.send(Frame::encode(1, &i)).unwrap();
        }
        for i in 0..4u64 {
            assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), i);
        }
    }

    #[test]
    fn stall_swallows_every_later_frame_until_a_cut() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(1, FaultKind::Stall).with(3, FaultKind::Cut),
            FaultSchedule::none(),
        );
        short_deadline(&b);
        for i in 0..3u64 {
            a.send(Frame::encode(1, &i)).unwrap();
        }
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 0);
        // The connection is open but silent: a deadline, not a hangup.
        assert_eq!(b.recv().unwrap_err(), TransportError::Timeout);
        // The stalled side still hears its peer.
        b.send(Frame::encode(2, &9u64)).unwrap();
        assert_eq!(a.recv().unwrap().decode_as::<u64>(2).unwrap(), 9);
        assert_eq!(
            a.send(Frame::encode(1, &3u64)).unwrap_err(),
            TransportError::Disconnected
        );
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
        b.send(Frame::encode(1, &3u64)).unwrap();
        assert_eq!(a.recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 0);
        drop(a);
        assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn a_coalesced_batch_is_one_send() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(1, FaultKind::Stall),
            FaultSchedule::none(),
        );
        short_deadline(&b);
        a.send_coalesced(&[Frame::encode(1, &10u64), Frame::encode(1, &11u64)])
            .unwrap();
        a.send(Frame::encode(2, &12u64)).unwrap();
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 10);
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 11);
        assert_eq!(b.recv().unwrap_err(), TransportError::Timeout);
    }

    #[test]
    fn a_plain_peers_busy_reply_reaches_the_faulty_side() {
        let (raw, inner) = duplex();
        let lane = FaultyLane::new(inner, FaultSchedule::none());
        short_deadline(&lane);
        raw.send(busy_frame(Some(Duration::from_millis(250))))
            .unwrap();
        let reply = lane.recv().unwrap();
        assert_eq!(reply.kind, KIND_BUSY);
        assert_eq!(busy_retry_after(&reply.payload), Some(250));
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
        // Every kind is drawn; only a Delay loses no frame.
        let drawn: Vec<FaultSchedule> = (0..64).map(FaultSchedule::seeded).collect();
        for kind in [FaultKind::Delay, FaultKind::Stall, FaultKind::Cut] {
            assert!(drawn.iter().any(|s| s.faults.values().any(|k| *k == kind)));
            let lossless = FaultSchedule::single(3, FaultKind::Delay).with(5, kind);
            assert_eq!(lossless.is_lossless(), kind == FaultKind::Delay);
        }
    }
}
