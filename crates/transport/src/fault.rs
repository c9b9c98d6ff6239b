//! Deterministic fault injection in the link between two endpoints.
//!
//! [`faulty_pair`] and [`faulty_link`] hand out plain [`Endpoint`]s
//! joined by a relay that applies a seeded [`FaultSchedule`] to each
//! direction's wire frames. The faults are the ones a stream can have:
//! a frame arrives late, the stream stops delivering while the
//! connection stays open, or the connection dies. TCP never hands the
//! application a duplicated, reordered or corrupted frame, so none is
//! simulated; hostile bytes are the subject of the codec fuzz and
//! adversarial suites. Neither endpoint knows about the faults: the
//! protocols, the drivers and the reactor carry no hooks for them.
//!
//! The chaos harness asserts the trichotomy on top: a faulted session
//! either completes with the correct value, or both parties terminate
//! with a structured error — never a hang, never a wrong answer. The
//! schedule is pure data keyed by send sequence number (one per wire
//! frame; a coalesced batch is one), so a failing chaos seed reproduces
//! exactly.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use crate::channel::{duplex, Endpoint, Frame};
use crate::tcp::{framed, FrameReader, FrameWriter, Stream};

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
    /// The frame arrives late (the link holds it for a fixed time).
    Delay,
    /// The stream stops: this frame and every later one in its
    /// direction are silently dropped, while sends keep succeeding and
    /// the connection stays open, so the peer's deadline fires — what a
    /// lost segment does to a stream. A later scheduled
    /// [`FaultKind::Cut`] still fires.
    Stall,
    /// The connection dies: this frame is dropped and the link closes,
    /// so both endpoints see the hang-up at once — every later receive
    /// or send fails with
    /// [`TransportError::Disconnected`](crate::TransportError::Disconnected)
    /// once what was already delivered is read.
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

/// Two connected endpoints whose link applies `a` to the frames the
/// first one sends and `b` to those the second one sends.
///
/// # Panics
///
/// As [`duplex`], or if the link's relay threads cannot be started.
pub fn faulty_pair(a: FaultSchedule, b: FaultSchedule) -> (Endpoint, Endpoint) {
    let (far, near) = duplex();
    (link(far, a, b), near)
}

/// An endpoint that speaks to `ep`'s peer through a link applying
/// `schedule` to the frames it sends; the peer's frames pass untouched.
/// `ep` may be a TCP endpoint: the faults then sit between a local
/// socket pair and the real connection.
///
/// # Panics
///
/// As [`faulty_pair`].
pub fn faulty_link(ep: Endpoint, schedule: FaultSchedule) -> Endpoint {
    link(ep, schedule, FaultSchedule::none())
}

/// A fresh endpoint joined to `far`'s stream by two relay threads:
/// `out` applies to what the new endpoint sends, `back` to what `far`'s
/// peer sends it.
fn link(far: Endpoint, out: FaultSchedule, back: FaultSchedule) -> Endpoint {
    let (near, relay) = Stream::pair().expect("cannot open a Unix socket pair");
    let near = Endpoint::from_stream(near).expect("cannot clone a socket handle");
    let (relay_reader, relay_writer) = framed(relay).expect("cannot clone a socket handle");
    let (far_reader, far_pending, far_writer, _) = far.into_parts();
    let spawn = |from, to, schedule, undelivered| {
        std::thread::Builder::new()
            .name("fault-link".into())
            .spawn(move || pump(from, to, &schedule, undelivered))
            .expect("cannot start a fault-link relay thread");
    };
    spawn(relay_reader, far_writer, out, VecDeque::new());
    // Sub-frames `far` unpacked but never delivered go to `near` first.
    spawn(far_reader, relay_writer, back, far_pending);
    near
}

/// Forwards `undelivered`, then wire frames from `from`, to `to` under
/// `schedule` until the schedule cuts the link or either end hangs up;
/// then closes the whole link, so both endpoints see the hang-up at
/// once.
fn pump(
    mut from: FrameReader,
    mut to: FrameWriter,
    schedule: &FaultSchedule,
    undelivered: VecDeque<Frame>,
) {
    let mut open = undelivered.iter().all(|f| to.send(f).is_ok());
    let (mut seq, mut stalled) = (0u64, false);
    while open {
        let Ok(frame) = from.recv(None) else {
            break;
        };
        match schedule.get(seq) {
            Some(FaultKind::Cut) => break,
            Some(FaultKind::Stall) => stalled = true,
            Some(FaultKind::Delay) => std::thread::sleep(DELAY_FAULT),
            None => {}
        }
        seq += 1;
        open = stalled || to.send(&frame).is_ok();
    }
    from.shutdown();
    to.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{busy_frame, busy_retry_after, KIND_BUSY};
    use crate::error::TransportError;

    fn short_deadline(ep: &Endpoint) {
        ep.set_recv_timeout(Some(Duration::from_millis(50)));
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
        // Send 3 is the cut: the link closes under both sides.
        a.send(Frame::encode(1, &3u64)).unwrap();
        assert_eq!(a.recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn cut_fails_both_directions() {
        let (a, b) = faulty_pair(
            FaultSchedule::single(1, FaultKind::Cut),
            FaultSchedule::none(),
        );
        a.send(Frame::encode(1, &0u64)).unwrap();
        // The cut frame itself leaves like any other; the link drops it
        // and closes, and the peer sees that at once, with `a` alive.
        a.send(Frame::encode(1, &1u64)).unwrap();
        assert_eq!(b.recv().unwrap().decode_as::<u64>(1).unwrap(), 0);
        assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(
            b.send(Frame::encode(1, &3u64)).unwrap_err(),
            TransportError::Disconnected
        );
        assert_eq!(a.recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(
            a.send(Frame::encode(1, &2u64)).unwrap_err(),
            TransportError::Disconnected
        );
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
        let lane = faulty_link(inner, FaultSchedule::none());
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
