//! Sans-I/O protocol engines.
//!
//! A protocol *role* (OT sender, OMPE receiver, classification trainer, …)
//! is written as an `async fn` over a [`FrameIo`] mailbox: it pushes
//! outbound [`Frame`]s and awaits inbound ones, but never touches a
//! socket, a channel, or a clock. The compiler-generated future *is* the
//! protocol state machine; [`ProtocolEngine`] polls it with a no-op waker
//! and exposes the classic sans-I/O surface —
//! [`poll_output`](ProtocolEngine::poll_output) /
//! [`handle_input`](ProtocolEngine::handle_input) /
//! [`is_done`](ProtocolEngine::is_done) — so the same role logic runs over
//! any [`Endpoint`](crate::Endpoint) (a socket pair or TCP), driven by
//! [`Driver`](crate::Driver), a deterministic in-process pump
//! ([`run_engine_pair`](crate::run_engine_pair)), or a recorded transcript
//! ([`replay`](crate::replay)).
//!
//! No executor is involved: a role future only ever suspends on
//! [`FrameIo::recv`], which is ready exactly when the driver has pushed a
//! frame (or injected a failure), so polling after each input is both
//! necessary and sufficient to make progress.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::channel::{coalesce_frames, Frame};
use crate::error::{ProtocolError, TransportError};
use crate::tcp::MAX_PAYLOAD;
use crate::wire::Encodable;

/// A frame queued by a role for the driver to transmit: either a single
/// frame or a batch the driver must coalesce into one wire frame (the
/// sans-I/O analogue of [`Endpoint::send_coalesced`](crate::Endpoint::send_coalesced)).
#[derive(Clone, Debug, PartialEq)]
pub enum Outgoing {
    /// One logical frame, sent as-is.
    Frame(Frame),
    /// A batch to coalesce into a single wire frame.
    Batch(Vec<Frame>),
}

impl Outgoing {
    /// The logical frames carried, batch or not.
    pub fn frames(&self) -> &[Frame] {
        match self {
            Self::Frame(f) => std::slice::from_ref(f),
            Self::Batch(fs) => fs,
        }
    }

    /// The exact bytes this output puts on the wire (coalesced batches
    /// share headers, so this is *not* the sum of the logical frames).
    pub fn wire_len(&self) -> usize {
        match self {
            Self::Frame(f) => f.wire_len(),
            Self::Batch(fs) => coalesce_frames(fs).map_or(0, |f| f.wire_len()),
        }
    }
}

/// Shared mailbox state between a role future and its engine.
#[derive(Debug, Default)]
struct Mailbox {
    inbox: VecDeque<Frame>,
    outbox: VecDeque<Outgoing>,
    /// A transport failure injected by the driver; once set, every recv
    /// (pending or future) resolves to this error so the role surfaces
    /// its own typed error exactly as the blocking path would.
    failure: Option<TransportError>,
    /// Frames the role has consumed so far — the "round" attached to
    /// [`ProtocolError`] context.
    frames_handled: u64,
    /// Frames sent since [`FrameIo::hold`], not yet queued.
    held: Option<Vec<Frame>>,
}

impl Mailbox {
    fn push(&mut self, out: Outgoing) -> Result<(), TransportError> {
        if let Some(e) = &self.failure {
            return Err(e.clone());
        }
        match &mut self.held {
            Some(held) => held.extend_from_slice(out.frames()),
            None => self.outbox.push_back(out),
        }
        Ok(())
    }

    /// Queues the held frames as one flight: a coalesced batch, or a
    /// lone frame as it is. A flight too large for one wire frame
    /// leaves as several, in order, in the same round trip.
    fn release(&mut self) {
        if let Some(held) = self.held.take() {
            self.outbox.extend(flights(held, MAX_PAYLOAD as usize));
        }
    }
}

/// Groups `frames`, in order, into outputs whose coalesced payload fits
/// in `cap` bytes: a 5-byte prefix plus at most a 6-byte header per
/// frame. A group of one is the frame as it is; a frame too large on
/// its own is such a group, refused where it is sent.
fn flights(frames: Vec<Frame>, cap: usize) -> Vec<Outgoing> {
    fn flight(mut group: Vec<Frame>) -> Outgoing {
        match group.len() {
            1 => Outgoing::Frame(group.remove(0)),
            _ => Outgoing::Batch(group),
        }
    }
    let mut out = Vec::new();
    let mut group = Vec::new();
    let mut size = 5;
    for frame in frames {
        let add = 6 + frame.payload.len();
        if !group.is_empty() && size + add > cap {
            out.push(flight(std::mem::take(&mut group)));
            size = 5;
        }
        size += add;
        group.push(frame);
    }
    if !group.is_empty() {
        out.push(flight(group));
    }
    out
}

/// The I/O handle a protocol role talks to instead of an
/// [`Endpoint`](crate::Endpoint): sends buffer into an outbox the engine
/// drains, receives await an inbox the engine fills.
///
/// Clones share the same mailbox; the engine keeps one clone and hands
/// another to the role future.
#[derive(Clone, Debug, Default)]
pub struct FrameIo {
    mailbox: Arc<Mutex<Mailbox>>,
}

impl FrameIo {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a frame for transmission.
    ///
    /// # Errors
    ///
    /// Returns the injected transport failure if the driver has reported
    /// one (mirroring a blocking `Endpoint::send` failing).
    pub fn send(&self, frame: Frame) -> Result<(), TransportError> {
        self.mailbox.lock().push(Outgoing::Frame(frame))
    }

    /// Encodes and queues a message in one call.
    ///
    /// # Errors
    ///
    /// Same as [`FrameIo::send`].
    pub fn send_msg<T: Encodable>(&self, kind: u16, body: &T) -> Result<(), TransportError> {
        self.send(Frame::encode(kind, body))
    }

    /// Queues a batch for coalesced transmission — one wire frame carries
    /// the whole batch, exactly like
    /// [`Endpoint::send_coalesced`](crate::Endpoint::send_coalesced).
    ///
    /// # Errors
    ///
    /// [`TransportError::Decode`] for an empty batch, or the injected
    /// transport failure.
    pub fn send_coalesced(&self, frames: &[Frame]) -> Result<(), TransportError> {
        if frames.is_empty() {
            return Err(TransportError::Decode(
                "cannot coalesce an empty frame batch".into(),
            ));
        }
        self.mailbox.lock().push(Outgoing::Batch(frames.to_vec()))
    }

    /// Holds every frame the role sends from now until it next receives
    /// (or finishes), then queues them as one flight: a single coalesced
    /// wire frame (several past the TCP frame cap), or one frame as it
    /// is. A role whose next message needs nothing from the peer sends
    /// it in the same flight as the frames before it, whatever layer
    /// queues it.
    pub fn hold(&self) {
        self.mailbox.lock().held.get_or_insert_with(Vec::new);
    }

    /// Awaits the next inbound frame.
    ///
    /// Resolves as soon as the driver has pushed a frame, or to the
    /// injected transport failure if the connection died.
    pub fn recv(&self) -> RecvFut<'_> {
        RecvFut { io: self }
    }

    /// Awaits and decodes a message of the expected kind.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] from the driver or from
    /// [`Frame::decode_as`].
    pub async fn recv_msg<T: Encodable>(&self, expected_kind: u16) -> Result<T, TransportError> {
        self.recv().await?.decode_as(expected_kind)
    }

    fn push_inbound(&self, frame: Frame) {
        self.mailbox.lock().inbox.push_back(frame);
    }

    fn pop_outbound(&self) -> Option<Outgoing> {
        let mut mb = self.mailbox.lock();
        mb.release();
        mb.outbox.pop_front()
    }

    fn fail(&self, err: TransportError) {
        self.mailbox.lock().failure.get_or_insert(err);
    }

    fn frames_handled(&self) -> u64 {
        self.mailbox.lock().frames_handled
    }
}

/// Future returned by [`FrameIo::recv`].
#[derive(Debug)]
pub struct RecvFut<'a> {
    io: &'a FrameIo,
}

impl Future for RecvFut<'_> {
    type Output = Result<Frame, TransportError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut mb = self.io.mailbox.lock();
        mb.release();
        if let Some(frame) = mb.inbox.pop_front() {
            mb.frames_handled += 1;
            return Poll::Ready(Ok(frame));
        }
        if let Some(e) = &mb.failure {
            return Poll::Ready(Err(e.clone()));
        }
        Poll::Pending
    }
}

/// A protocol role lifted to a pollable sans-I/O state machine.
///
/// Construct with [`ProtocolEngine::new`] from a closure mapping a
/// [`FrameIo`] to the role future; the engine owns both and steps the
/// future whenever output is polled or input arrives. `T` is the role's
/// result, `E` its crate-level error type — the same types the blocking
/// API returns, so driving an engine is observationally identical to the
/// pre-refactor blocking call.
///
/// Engines are deliberately *not* `Send`: role futures borrow the
/// caller's RNG (`&mut dyn RngCore`), and each party constructs and
/// drives its engine on its own thread.
pub struct ProtocolEngine<'a, T, E> {
    io: FrameIo,
    future: Pin<Box<dyn Future<Output = Result<T, E>> + 'a>>,
    result: Option<Result<T, E>>,
}

impl<'a, T, E> ProtocolEngine<'a, T, E> {
    /// Builds an engine from a role: the closure receives the engine's
    /// mailbox handle and returns the role future.
    pub fn new<F, Fut>(role: F) -> Self
    where
        F: FnOnce(FrameIo) -> Fut,
        Fut: Future<Output = Result<T, E>> + 'a,
    {
        let io = FrameIo::new();
        let future = Box::pin(role(io.clone()));
        Self {
            io,
            future,
            result: None,
        }
    }

    /// Steps the role future until it suspends (needs input) or
    /// completes. Safe to call at any time; a completed engine is not
    /// re-polled.
    fn step(&mut self) {
        if self.result.is_some() {
            return;
        }
        let mut cx = Context::from_waker(Waker::noop());
        if let Poll::Ready(r) = self.future.as_mut().poll(&mut cx) {
            self.result = Some(r);
        }
    }

    /// Returns the next output to transmit, stepping the state machine
    /// first so freshly-produced frames are visible. `None` means the
    /// engine needs input (or is done).
    pub fn poll_output(&mut self) -> Option<Outgoing> {
        self.step();
        self.io.pop_outbound()
    }

    /// Feeds one inbound frame and steps the state machine.
    pub fn handle_input(&mut self, frame: Frame) {
        self.io.push_inbound(frame);
        self.step();
    }

    /// Reports a transport failure to the role: any pending or future
    /// receive resolves to `err`, letting the role produce the same typed
    /// error its blocking counterpart would.
    pub fn inject_failure(&mut self, err: TransportError) {
        self.io.fail(err);
        self.step();
    }

    /// True once the role future has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Number of inbound frames the role has consumed — the "round"
    /// counter used for error context.
    pub fn rounds(&self) -> u64 {
        self.io.frames_handled()
    }

    /// The role's error, if it failed (borrowing; see
    /// [`take_result`](Self::take_result) to consume).
    pub fn error(&self) -> Option<&E> {
        match &self.result {
            Some(Err(e)) => Some(e),
            _ => None,
        }
    }

    /// Takes the completed result, if any.
    pub fn take_result(&mut self) -> Option<Result<T, E>> {
        self.result.take()
    }
}

impl<T, E> std::fmt::Debug for ProtocolEngine<'_, T, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolEngine")
            .field("done", &self.result.is_some())
            .field("rounds", &self.io.frames_handled())
            .finish_non_exhaustive()
    }
}

/// Object-safe view of a protocol engine, speaking the layered
/// [`ProtocolError`] taxonomy so heterogeneous engines (different result
/// and error types) can be pumped by the same driver code.
pub trait Engine {
    /// Next output to transmit, or `None` if the engine needs input.
    fn poll_output(&mut self) -> Option<Outgoing>;

    /// Feeds one inbound frame.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] carrying the frame kind and round
    /// context if the role fails while (or after) consuming this frame.
    fn handle_input(&mut self, frame: Frame) -> Result<(), ProtocolError>;

    /// True once the role has completed.
    fn is_done(&self) -> bool;
}

impl<T, E> Engine for ProtocolEngine<'_, T, E>
where
    E: Clone + Into<ProtocolError>,
{
    fn poll_output(&mut self) -> Option<Outgoing> {
        ProtocolEngine::poll_output(self)
    }

    fn handle_input(&mut self, frame: Frame) -> Result<(), ProtocolError> {
        let kind = frame.kind;
        ProtocolEngine::handle_input(self, frame);
        let round = self.rounds();
        match self.error() {
            Some(e) => Err(e.clone().into().with_frame_kind(kind).with_round(round)),
            None => Ok(()),
        }
    }

    fn is_done(&self) -> bool {
        ProtocolEngine::is_done(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorLayer;

    /// A toy role: receive two u64 frames, reply with their sum, done.
    async fn adder(io: FrameIo) -> Result<u64, TransportError> {
        let a = io.recv_msg::<u64>(1).await?;
        let b = io.recv_msg::<u64>(1).await?;
        io.send_msg(2, &(a + b))?;
        Ok(a + b)
    }

    #[test]
    fn engine_steps_through_a_round() {
        let mut eng = ProtocolEngine::new(adder);
        assert!(ProtocolEngine::poll_output(&mut eng).is_none());
        assert!(!eng.is_done());
        eng.handle_input(Frame::encode(1, &2u64));
        assert!(ProtocolEngine::poll_output(&mut eng).is_none());
        eng.handle_input(Frame::encode(1, &3u64));
        let out = ProtocolEngine::poll_output(&mut eng).expect("sum frame");
        assert_eq!(out, Outgoing::Frame(Frame::encode(2, &5u64)));
        assert!(eng.is_done());
        assert_eq!(eng.take_result(), Some(Ok(5)));
        assert_eq!(eng.rounds(), 2);
    }

    #[test]
    fn queued_frames_drain_in_one_step() {
        let mut eng = ProtocolEngine::new(adder);
        // Both inputs queued before any stepping: one step consumes both.
        eng.io.push_inbound(Frame::encode(1, &10u64));
        eng.io.push_inbound(Frame::encode(1, &20u64));
        let out = ProtocolEngine::poll_output(&mut eng).expect("sum frame");
        assert_eq!(out.frames()[0].decode_as::<u64>(2).unwrap(), 30);
    }

    #[test]
    fn injected_failure_surfaces_as_typed_error() {
        let mut eng = ProtocolEngine::new(adder);
        eng.handle_input(Frame::encode(1, &1u64));
        eng.inject_failure(TransportError::Disconnected);
        assert!(eng.is_done());
        assert_eq!(eng.take_result(), Some(Err(TransportError::Disconnected)));
    }

    #[test]
    fn erased_engine_attaches_context() {
        let mut eng = ProtocolEngine::new(adder);
        // Wrong kind: the role's recv_msg fails with UnexpectedFrame.
        let err = Engine::handle_input(&mut eng, Frame::encode(9, &1u64)).unwrap_err();
        assert_eq!(err.layer(), ErrorLayer::Codec);
        assert_eq!(err.frame_kind(), Some(9));
        assert_eq!(err.round(), Some(1));
    }

    #[test]
    fn held_frames_leave_as_one_flight_at_the_next_receive() {
        let mut eng: ProtocolEngine<'_, (), TransportError> =
            ProtocolEngine::new(|io| async move {
                io.hold();
                io.send_msg(1, &1u64)?;
                io.send_coalesced(&[Frame::encode(2, &2u64), Frame::encode(2, &3u64)])?;
                io.recv_msg::<u64>(4).await?;
                io.hold();
                io.send_msg(5, &5u64)?;
                Ok(())
            });
        let first = ProtocolEngine::poll_output(&mut eng).expect("the held flight");
        let kinds: Vec<u16> = first.frames().iter().map(|f| f.kind).collect();
        assert!(matches!(first, Outgoing::Batch(_)));
        assert_eq!(kinds, [1, 2, 2]);
        assert!(ProtocolEngine::poll_output(&mut eng).is_none());
        eng.handle_input(Frame::encode(4, &4u64));
        // A flight of one is the frame itself, released when the role ends.
        let last = ProtocolEngine::poll_output(&mut eng).expect("the last flight");
        assert_eq!(last, Outgoing::Frame(Frame::encode(5, &5u64)));
        assert!(eng.is_done());
    }

    #[test]
    fn a_flight_past_the_cap_leaves_as_several_in_order() {
        let frame = |kind, len| Frame {
            kind,
            payload: vec![0u8; len].into(),
        };
        let held = vec![frame(1, 40), frame(2, 40), frame(3, 40), frame(4, 100)];
        let kinds = |out: &Outgoing| out.frames().iter().map(|f| f.kind).collect::<Vec<_>>();
        // 5 + 2·46 = 97 fits in 100 bytes; a third frame would not, and
        // the oversized last frame travels on its own.
        let out = flights(held.clone(), 100);
        assert_eq!(
            out.iter().map(kinds).collect::<Vec<_>>(),
            [vec![1, 2], vec![3], vec![4]]
        );
        assert!(matches!(out[0], Outgoing::Batch(_)));
        assert!(matches!(out[1], Outgoing::Frame(_)));
        assert!(out[..2]
            .iter()
            .all(|o| o.wire_len() - Frame::HEADER_LEN <= 100));
        // Under the cap, a flight is one output, as it always was.
        let out = flights(held, 300);
        assert_eq!(out.len(), 1);
        assert_eq!(kinds(&out[0]), [1, 2, 3, 4]);
    }

    #[test]
    fn coalesced_output_is_one_batch() {
        let mut eng: ProtocolEngine<'_, (), TransportError> =
            ProtocolEngine::new(|io| async move {
                io.send_coalesced(&[Frame::encode(1, &1u64), Frame::encode(1, &2u64)])?;
                io.send_msg(3, &3u64)?;
                Ok(())
            });
        let first = ProtocolEngine::poll_output(&mut eng).expect("batch");
        assert!(matches!(&first, Outgoing::Batch(b) if b.len() == 2));
        assert_eq!(first.frames().len(), 2);
        let second = ProtocolEngine::poll_output(&mut eng).expect("single");
        assert!(matches!(second, Outgoing::Frame(_)));
        assert!(eng.is_done());
    }
}
