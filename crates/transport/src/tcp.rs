//! The one kind of connection under every [`Endpoint`](crate::Endpoint)
//! and reactor connection: a framed byte stream over a TCP socket, or
//! over one half of a Unix socket pair ([`duplex`](crate::duplex)) when
//! both parties live in one process. The framing code knows neither
//! which socket it has nor how its owner waits: one [`FrameReader`] and
//! one [`FrameWriter`] serve the blocking endpoint, whose socket blocks
//! until a frame parses or the receive window closes, and the reactor's
//! [`NbConn`], whose socket is nonblocking and read until `WouldBlock`.
//! A read that stops early, either way, leaves the partial frame in the
//! reader's buffer for the next one.
//!
//! Wire framing: `kind: u16 LE | payload_len: u32 LE | payload`, matching
//! the byte accounting of [`Frame::wire_len`](crate::Frame::wire_len).

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::channel::{
    coalesce_frames, uncoalesce, Frame, SharedStats, TrafficStats, KIND_COALESCED,
};
use crate::engine::Outgoing;
use crate::error::TransportError;
use crate::session::SessionIo;

/// Maximum accepted payload size (64 MiB) — guards against a corrupt or
/// hostile length prefix allocating unbounded memory. A held flight
/// larger than this leaves as several coalesced frames.
pub(crate) const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Splits a wire header into its frame kind and announced payload
/// length (both little-endian).
fn decode_header(h: &[u8; Frame::HEADER_LEN]) -> (u16, u32) {
    (
        u16::from_le_bytes([h[0], h[1]]),
        u32::from_le_bytes([h[2], h[3], h[4], h[5]]),
    )
}

/// The wire header of `frame`, refusing a payload over [`MAX_PAYLOAD`].
fn encode_header(frame: &Frame) -> Result<[u8; Frame::HEADER_LEN], TransportError> {
    let len = u32::try_from(frame.payload.len())
        .ok()
        .filter(|len| *len <= MAX_PAYLOAD)
        .ok_or_else(|| {
            TransportError::Decode(format!(
                "frame payload of {} bytes exceeds the {MAX_PAYLOAD}-byte cap",
                frame.payload.len()
            ))
        })?;
    let mut header = [0u8; Frame::HEADER_LEN];
    header[..2].copy_from_slice(&frame.kind.to_le_bytes());
    header[2..].copy_from_slice(&len.to_le_bytes());
    Ok(header)
}

/// The wire length of the frame at the start of `buf` once all of it is
/// there, refusing an announced payload over [`MAX_PAYLOAD`].
fn complete_frame(buf: &[u8]) -> Result<Option<usize>, TransportError> {
    let Some(header) = buf.first_chunk() else {
        return Ok(None);
    };
    let (_, len) = decode_header(header);
    if len > MAX_PAYLOAD {
        return Err(TransportError::Decode(format!(
            "peer announced a {len}-byte frame, cap is {MAX_PAYLOAD}"
        )));
    }
    let total = Frame::HEADER_LEN + len as usize;
    Ok((buf.len() >= total).then_some(total))
}

/// The socket under a connection.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A TCP connection (Nagle off).
    Tcp(TcpStream),
    /// One half of a Unix socket pair: two parties of one process.
    Unix(UnixStream),
}

/// `$body`, with `$s` bound to a reference to the socket `$stream`
/// holds, whichever kind it is.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            Stream::Tcp($s) => $body,
            Stream::Unix($s) => $body,
        }
    };
}

impl Stream {
    /// Wraps a TCP connection, switching Nagle's algorithm off: every
    /// frame is a flight someone waits for.
    pub(crate) fn tcp(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(Self::Tcp(stream))
    }

    /// A connected Unix socket pair.
    pub(crate) fn pair() -> std::io::Result<(Self, Self)> {
        let (a, b) = UnixStream::pair()?;
        Ok((Self::Unix(a), Self::Unix(b)))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(timeout))
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        on_socket!(self, s => s.set_nonblocking(true))
    }

    /// Closes both directions for every handle on the socket: a
    /// blocked read returns end-of-stream and the peer sees a hang-up.
    fn shutdown(&self) {
        let _ = on_socket!(self, s => s.shutdown(Shutdown::Both));
    }

    /// One read into `buf`.
    fn read(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        on_socket!(self, s => (&mut &*s).read(buf))
    }

    /// Appends up to `limit` bytes to `buf`, reading straight into its
    /// spare capacity (neither zero-filled first nor copied after),
    /// until `limit`, the end of the stream or an error. Bytes read
    /// before an error stay in `buf`.
    fn read_to(&self, buf: &mut Vec<u8>, limit: usize) -> std::io::Result<usize> {
        on_socket!(self, s => Read::take(s, limit as u64).read_to_end(buf))
    }

    /// One write of `bufs`, in order.
    fn write_vectored(&self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        on_socket!(self, s => (&mut &*s).write_vectored(bufs))
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        on_socket!(self, s => s.as_raw_fd())
    }
}

/// The read and write halves of `stream`, sharing its one handle and
/// counting traffic into `stats`.
pub(crate) fn halves(stream: Stream, stats: &Arc<SharedStats>) -> (FrameReader, FrameWriter) {
    let sock = Arc::new(stream);
    let reader = FrameReader {
        sock: sock.clone(),
        buf: Vec::new(),
        wire: VecDeque::new(),
        batch: VecDeque::new(),
        eof: false,
        failed: None,
        stats: stats.clone(),
        applied_read_timeout: None,
    };
    let writer = FrameWriter {
        sock,
        queue: VecDeque::new(),
        sent: 0,
        failed: None,
        stats: stats.clone(),
        stall_since: None,
        completed_stall_ns: None,
    };
    (reader, writer)
}

/// The read half of a framed socket, however its owner waits: it parses
/// wire frames out of what the socket delivered, refuses an announced
/// length over [`MAX_PAYLOAD`], counts received traffic and splits
/// coalesced batches into their sub-frames.
#[derive(Debug)]
pub(crate) struct FrameReader {
    sock: Arc<Stream>,
    /// Bytes read and not yet parsed. It starts at a frame boundary and
    /// holds no complete frame.
    buf: Vec<u8>,
    /// Parsed wire frames not yet delivered, batches still packed.
    wire: VecDeque<Frame>,
    /// The undelivered sub-frames of the batch delivered last.
    batch: VecDeque<Frame>,
    /// The peer closed its end of the stream.
    eof: bool,
    /// A fatal framing or socket failure, reported once every frame
    /// parsed before it was delivered.
    failed: Option<TransportError>,
    stats: Arc<SharedStats>,
    /// The read timeout last applied to the socket, so a receive only
    /// pays a syscall when the deadline actually changed. `None` =
    /// never applied.
    applied_read_timeout: Option<Option<Duration>>,
}

impl FrameReader {
    /// The read chunk of a blocking receive: a frame that still misses
    /// at least this much is read straight into the buffer.
    const CHUNK: usize = 8 * 1024;

    /// Receives the next frame on a blocking socket, each read waiting
    /// up to `timeout` (`None`: forever). A read that times out returns
    /// [`TransportError::Timeout`] and keeps what it already read.
    pub(crate) fn recv(&mut self, timeout: Option<Duration>) -> Result<Frame, TransportError> {
        if let Some(f) = self.batch.pop_front() {
            return Ok(f);
        }
        let frame = self.recv_wire(timeout)?;
        self.split(frame)
    }

    /// Like [`recv`](Self::recv), but a coalesced batch comes back
    /// packed, as it crossed the wire (sub-frames of a batch already
    /// split come first, one by one).
    pub(crate) fn recv_wire(&mut self, timeout: Option<Duration>) -> Result<Frame, TransportError> {
        self.set_read_timeout(timeout)?;
        loop {
            if let Some(f) = self.batch.pop_front().or_else(|| self.wire.pop_front()) {
                return Ok(f);
            }
            self.ended()?;
            let mut chunk = [0u8; Self::CHUNK];
            match self.read(&mut chunk) {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => match io_err(e) {
                    TransportError::Timeout => return Err(TransportError::Timeout),
                    fatal => self.failed = Some(fatal),
                },
            }
        }
    }

    /// Reads everything a nonblocking socket has, to `WouldBlock`, as
    /// edge-triggered registration requires, through `chunk`, the
    /// reactor's one reusable read buffer. `WouldBlock` here is "not
    /// ready": a [`TransportError::Timeout`] is the reactor's to impose.
    pub(crate) fn fill(&mut self, chunk: &mut [u8]) -> Result<(), TransportError> {
        while !self.eof && self.failed.is_none() {
            match self.read(chunk) {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.failed = Some(io_err(e)),
            }
        }
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// The next frame already read, without reading: `Ok(None)` when
    /// there is none yet, `Err` once every frame before the end of the
    /// stream or a failure was delivered.
    pub(crate) fn try_recv(&mut self) -> Result<Option<Frame>, TransportError> {
        if let Some(f) = self.batch.pop_front() {
            return Ok(Some(f));
        }
        match self.wire.pop_front() {
            Some(frame) => self.split(frame).map(Some),
            None => self.ended().map(|()| None),
        }
    }

    /// Whether [`try_recv`](Self::try_recv) has something to report: a
    /// frame, the end of the stream, or a failure.
    pub(crate) fn recv_ready(&self) -> bool {
        !self.batch.is_empty() || !self.wire.is_empty() || self.eof || self.failed.is_some()
    }

    /// The failure, or the end of the stream (a partial trailing frame
    /// is a truncated stream), once nothing before it is left.
    fn ended(&self) -> Result<(), TransportError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None if self.eof => Err(TransportError::Disconnected),
            None => Ok(()),
        }
    }

    /// `frame`, or a batch's first sub-frame, its rest kept for the next
    /// receives. A malformed batch fails the stream.
    fn split(&mut self, frame: Frame) -> Result<Frame, TransportError> {
        if frame.kind != KIND_COALESCED {
            return Ok(frame);
        }
        let (first, rest) = uncoalesce(&frame.payload).inspect_err(|e| {
            self.wire.clear();
            self.failed = Some(e.clone());
        })?;
        self.batch = rest;
        Ok(first)
    }

    /// One read from the socket into `buf`, then parses what completed.
    /// A frame that still misses at least `chunk.len()` bytes is read
    /// straight into `buf`; anything shorter goes through `chunk`, so
    /// one read can take in several small frames.
    fn read(&mut self, chunk: &mut [u8]) -> std::io::Result<()> {
        let missing = self.buf.first_chunk().map(|header| {
            let (_, len) = decode_header(header);
            (Frame::HEADER_LEN + len as usize).saturating_sub(self.buf.len())
        });
        match missing {
            Some(missing) if missing >= chunk.len() => {
                self.buf.reserve_exact(missing);
                self.eof = self.sock.read_to(&mut self.buf, missing)? < missing;
            }
            _ => {
                let n = self.sock.read(chunk)?;
                self.buf.extend_from_slice(&chunk[..n]);
                self.eof = n == 0;
            }
        }
        self.parse();
        Ok(())
    }

    /// Moves every complete frame out of `buf` into `wire`, counting it
    /// as received. The frames' payloads are windows on the buffer they
    /// were read into; only a partial frame behind them is copied.
    fn parse(&mut self) {
        let mut end = 0;
        loop {
            match complete_frame(&self.buf[end..]) {
                Ok(Some(total)) => end += total,
                Ok(None) => break,
                Err(e) => {
                    self.failed = Some(e);
                    break;
                }
            }
        }
        if end == 0 {
            return;
        }
        let rest = self.buf[end..].to_vec();
        let data = Bytes::from(std::mem::replace(&mut self.buf, rest));
        let mut pos = 0;
        while let Some(header) = data[pos..end].first_chunk() {
            let (kind, len) = decode_header(header);
            let total = Frame::HEADER_LEN + len as usize;
            self.stats.record_received(kind, total as u64);
            self.wire.push_back(Frame {
                kind,
                payload: data.slice(pos + Frame::HEADER_LEN..pos + total),
            });
            pos += total;
        }
    }

    /// Applies the receive deadline to the socket.
    ///
    /// `std` rejects a zero read timeout, so `Some(0)` is clamped to the
    /// smallest representable deadline instead of erroring — callers get
    /// "time out as fast as the OS allows" semantics.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        let effective = match timeout {
            Some(d) if d.is_zero() => Some(Duration::from_nanos(1)),
            other => other,
        };
        if self.applied_read_timeout == Some(effective) {
            return Ok(());
        }
        self.sock.set_read_timeout(effective).map_err(io_err)?;
        self.applied_read_timeout = Some(effective);
        Ok(())
    }

    /// Closes the socket both ways (see [`Stream::shutdown`]).
    pub(crate) fn shutdown(&self) {
        self.sock.shutdown();
    }
}

/// The write half of a framed socket, however its owner waits: it
/// queues each frame's header and payload (the payload shared, not
/// copied), writes both with one vectored write, counts sent traffic as
/// it queues, and times how long the kernel pushed back. On a blocking
/// socket a [`flush`](Self::flush) returns once the queue drained.
#[derive(Debug)]
pub(crate) struct FrameWriter {
    sock: Arc<Stream>,
    /// Frames the kernel has not taken in full, as header and payload.
    queue: VecDeque<([u8; Frame::HEADER_LEN], Bytes)>,
    /// Bytes of the front frame already written.
    sent: usize,
    /// A fatal socket failure; sticky, reported from every later flush.
    failed: Option<TransportError>,
    stats: Arc<SharedStats>,
    /// When the current `EPOLLOUT` stall began: set on the first
    /// backpressured flush, cleared when the queue fully drains.
    stall_since: Option<Instant>,
    /// Duration of the most recently *completed* stall, waiting for
    /// [`take_stall_ns`](Self::take_stall_ns) to collect it.
    completed_stall_ns: Option<u64>,
}

impl FrameWriter {
    /// Sends `frame` over a blocking socket: queues it and writes until
    /// the kernel took all of it.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.queue(frame)?;
        self.flush().map(|_| ())
    }

    /// Queues `frame` and counts it as sent. Call
    /// [`flush`](Self::flush) to move bytes toward the kernel.
    pub(crate) fn queue(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let header = encode_header(frame)?;
        self.queue.push_back((header, frame.payload.clone()));
        self.stats.record_sent(frame.kind, frame.wire_len() as u64);
        Ok(())
    }

    /// Writes queued bytes until the queue drains (`Ok(true)`) or the
    /// kernel pushes back (`Ok(false)`: the next writable event must
    /// resume the flush).
    pub(crate) fn flush(&mut self) -> Result<bool, TransportError> {
        self.write_queued(usize::MAX)
    }

    /// [`flush`](Self::flush), stopping after at most `limit` bytes
    /// (then `Ok(false)` if any are left).
    pub(crate) fn write_queued(&mut self, mut limit: usize) -> Result<bool, TransportError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        while let Some((header, payload)) = self.queue.front() {
            if limit == 0 {
                return Ok(false);
            }
            let total = Frame::HEADER_LEN + payload.len();
            let head = &header[self.sent.min(Frame::HEADER_LEN)..];
            let body = &payload[self.sent.saturating_sub(Frame::HEADER_LEN)..];
            let head = &head[..head.len().min(limit)];
            let body = &body[..body.len().min(limit - head.len())];
            let written = self
                .sock
                .write_vectored(&[IoSlice::new(head), IoSlice::new(body)]);
            match written {
                Ok(0) => return Err(self.fail(TransportError::Disconnected)),
                Ok(n) => {
                    limit -= n;
                    self.sent += n;
                    if self.sent == total {
                        self.queue.pop_front();
                        self.sent = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // The kernel pushed back: an EPOLLOUT stall begins
                    // (or continues) until the queue fully drains.
                    self.stall_since.get_or_insert_with(Instant::now);
                    return Ok(false);
                }
                Err(e) => return Err(self.fail(io_err(e))),
            }
        }
        if let Some(since) = self.stall_since.take() {
            self.completed_stall_ns = Some(since.elapsed().as_nanos() as u64);
        }
        Ok(true)
    }

    fn fail(&mut self, e: TransportError) -> TransportError {
        self.failed = Some(e.clone());
        e
    }

    /// Whether backpressured bytes are waiting for a writable event.
    pub(crate) fn wants_write(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Bytes queued but not yet accepted by the kernel — the
    /// write-buffer depth health metric.
    pub(crate) fn pending_write_bytes(&self) -> usize {
        let queued: usize = self
            .queue
            .iter()
            .map(|(_, payload)| Frame::HEADER_LEN + payload.len())
            .sum();
        queued - self.sent
    }

    /// Collects the duration of the most recently completed `EPOLLOUT`
    /// stall, once per stall (`None` when no stall finished since the
    /// last call).
    pub(crate) fn take_stall_ns(&mut self) -> Option<u64> {
        self.completed_stall_ns.take()
    }

    /// Closes the socket both ways (see [`Stream::shutdown`]).
    pub(crate) fn shutdown(&self) {
        self.sock.shutdown();
    }
}

/// Classifies an I/O error from a **blocking** socket.
///
/// ## `WouldBlock` vs `TimedOut` normalization
///
/// On a blocking socket armed with a read deadline (`SO_RCVTIMEO`), an
/// expired deadline is reported as `WouldBlock` on Linux/BSD and
/// `TimedOut` on Windows — the *same* condition under two names — so
/// both map to [`TransportError::Timeout`] here and `Timeout` always
/// means "the configured receive deadline elapsed".
///
/// On a **nonblocking** socket the same `WouldBlock` code means merely
/// "no data yet", which is not an error at all, let alone a timeout.
/// [`FrameReader::fill`] and [`FrameWriter::flush`] therefore intercept
/// `WouldBlock` before classification and surface `Timeout` only when
/// the reactor says the per-receive deadline truly elapsed — keeping
/// `TransportError::Timeout` identical in meaning across the blocking
/// and async paths.
fn io_err(e: std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::BrokenPipe
        | ErrorKind::ConnectionAborted => TransportError::Disconnected,
        _ => TransportError::Io(e.to_string()),
    }
}

/// A framed socket in nonblocking mode for the reactor: the two halves
/// an [`Endpoint`](crate::Endpoint) holds behind its locks, owned by
/// one connection. Nothing here blocks: [`FrameReader::fill`] reads to
/// `WouldBlock` and [`FrameWriter::flush`] writes until the kernel
/// pushes back.
#[derive(Debug)]
pub(crate) struct NbConn {
    pub(crate) reader: FrameReader,
    pub(crate) writer: FrameWriter,
}

impl NbConn {
    /// Chunk size for socket reads: the size of the read buffer
    /// [`FrameReader::fill`] is handed.
    pub(crate) const READ_CHUNK: usize = 64 * 1024;

    /// Takes over a framed socket in nonblocking mode, with whatever
    /// its reader already holds.
    pub(crate) fn new(reader: FrameReader, writer: FrameWriter) -> Result<Self, TransportError> {
        reader.sock.set_nonblocking().map_err(io_err)?;
        Ok(Self { reader, writer })
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.reader.sock.as_raw_fd()
    }

    /// [`FrameWriter::flush`], unless the stream already failed to
    /// read: a peer that sent garbage gets nothing more.
    pub(crate) fn flush(&mut self) -> Result<bool, TransportError> {
        if let Some(e) = &self.reader.failed {
            return Err(e.clone());
        }
        self.writer.flush()
    }
}

/// The reactor's way of waiting: it doesn't. `try_recv` pops what
/// [`FrameReader::fill`] already parsed, and deadlines are the
/// reactor's job (see the normalization notes on [`io_err`]).
impl SessionIo for NbConn {
    fn send(&mut self, out: &Outgoing) -> Result<(), TransportError> {
        match out {
            Outgoing::Frame(f) => self.writer.queue(f)?,
            Outgoing::Batch(fs) => self.writer.queue(&coalesce_frames(fs)?)?,
        }
        // Opportunistic flush: backpressure is not an error, the
        // remainder rides the next writable event.
        self.flush().map(|_| ())
    }

    /// `Ok(Some)` on a frame, `Ok(None)` when the peer simply has not
    /// sent one yet, `Err(Disconnected)` once the stream is drained
    /// *and* closed.
    fn try_recv(&mut self, _max_wait: Option<Duration>) -> Result<Option<Frame>, TransportError> {
        self.reader.try_recv()
    }

    /// Sends count when queued, matching the blocking endpoint.
    fn stats(&self) -> TrafficStats {
        self.reader.stats.snapshot()
    }
}

/// Connects to a listening ppcs peer.
///
/// # Errors
///
/// [`TransportError::Io`] wrapping the underlying socket error.
pub fn tcp_connect<A: ToSocketAddrs>(addr: A) -> Result<crate::Endpoint, TransportError> {
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    Ok(crate::Endpoint::from_stream(Stream::tcp(stream)?))
}

/// Accepts one inbound connection on `listener`.
///
/// # Errors
///
/// [`TransportError::Io`] wrapping the underlying socket error.
pub fn tcp_accept(listener: &TcpListener) -> Result<crate::Endpoint, TransportError> {
    let (stream, _peer) = listener.accept().map_err(io_err)?;
    Ok(crate::Endpoint::from_stream(Stream::tcp(stream)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, SessionLimits};
    use crate::engine::ProtocolEngine;
    use crate::Endpoint;

    fn tcp_pair() -> (Endpoint, Endpoint) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let join = std::thread::spawn(move || tcp_connect(addr).expect("connect"));
        let server = tcp_accept(&listener).expect("accept");
        let client = join.join().expect("client thread");
        (server, client)
    }

    #[test]
    fn tcp_roundtrip() {
        let (server, client) = tcp_pair();
        client.send_msg(3, &42u64).expect("send");
        assert_eq!(server.recv_msg::<u64>(3).expect("recv"), 42);
        server.send_msg(4, &vec![1u8, 2, 3]).expect("send");
        assert_eq!(client.recv_msg::<Vec<u8>>(4).expect("recv"), vec![1, 2, 3]);
    }

    #[test]
    fn tcp_counts_traffic() {
        let (server, client) = tcp_pair();
        client.send_msg(1, &7u64).expect("send");
        let _ = server.recv().expect("recv");
        assert_eq!(client.stats().bytes_sent, 6 + 8);
        assert_eq!(server.stats().bytes_received, 6 + 8);
    }

    #[test]
    fn tcp_disconnect_detected() {
        let (server, client) = tcp_pair();
        drop(client);
        assert_eq!(server.recv().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn tcp_timeout_honored() {
        let (server, _client) = tcp_pair();
        server.set_recv_timeout(Some(Duration::from_millis(20)));
        assert_eq!(server.recv().unwrap_err(), TransportError::Timeout);
    }

    #[test]
    fn tcp_timeout_can_be_retuned_between_receives() {
        let (server, client) = tcp_pair();
        // A short deadline times out, then a longer one set on the same
        // connection lets a late frame through — the cached timeout must
        // be re-applied when the endpoint deadline changes.
        server.set_recv_timeout(Some(Duration::from_millis(10)));
        assert_eq!(server.recv().unwrap_err(), TransportError::Timeout);
        server.set_recv_timeout(Some(Duration::from_secs(5)));
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            client.send_msg(1, &99u64).expect("send");
            client
        });
        assert_eq!(server.recv_msg::<u64>(1).expect("recv"), 99);
        drop(sender.join().expect("sender thread"));
    }

    #[test]
    fn tcp_zero_timeout_is_clamped_not_rejected() {
        let (server, _client) = tcp_pair();
        server.set_recv_timeout(Some(Duration::ZERO));
        // std's set_read_timeout errors on a zero duration; the clamp
        // turns it into an immediate Timeout instead of an Io error.
        assert_eq!(server.recv().unwrap_err(), TransportError::Timeout);
    }

    #[test]
    fn generic_socket_errors_map_to_io_variant() {
        let err = io_err(std::io::Error::other("weird NIC failure"));
        assert!(matches!(err, TransportError::Io(_)), "got {err:?}");
        assert_eq!(
            io_err(std::io::Error::from(std::io::ErrorKind::TimedOut)),
            TransportError::Timeout
        );
        assert_eq!(
            io_err(std::io::Error::from(std::io::ErrorKind::ConnectionReset)),
            TransportError::Disconnected
        );
    }

    #[test]
    fn tcp_large_frame() {
        let (server, client) = tcp_pair();
        let big = vec![0xabu8; 1 << 20];
        client.send_msg(9, &big).expect("send");
        assert_eq!(server.recv_msg::<Vec<u8>>(9).expect("recv"), big);
    }

    fn nb(stream: TcpStream) -> NbConn {
        let (reader, writer) = halves(Stream::tcp(stream).expect("nodelay"), &Arc::default());
        NbConn::new(reader, writer).expect("nb conn")
    }

    fn endpoint(stream: TcpStream) -> Endpoint {
        Endpoint::from_stream(Stream::tcp(stream).expect("nodelay"))
    }

    fn raw_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    #[test]
    fn nb_conn_never_reports_timeout_for_would_block() {
        // Satellite semantics: on the nonblocking path, "no data yet"
        // is Ok(None), not TransportError::Timeout — a Timeout can only
        // come from the reactor's deadlines.
        let (server, _client) = raw_pair();
        let mut nb = nb(server);
        let mut buf = [0u8; NbConn::READ_CHUNK];
        nb.reader
            .fill(&mut buf)
            .expect("fill on an empty socket is not an error");
        assert_eq!(nb.try_recv(None).expect("no frame is not an error"), None);
        assert!(nb.flush().expect("empty flush"), "nothing queued");
    }

    #[test]
    fn nb_conn_parses_incrementally_across_partial_reads() {
        let (server, mut client) = raw_pair();
        let mut nb = nb(server);
        let mut buf = [0u8; NbConn::READ_CHUNK];
        let frame = Frame::encode(5, &vec![7u8; 1000]);
        let mut wire = Vec::new();
        wire.extend_from_slice(&frame.kind.to_le_bytes());
        wire.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&frame.payload);
        // Feed the frame in two halves with a drain attempt in between.
        client.write_all(&wire[..500]).expect("first half");
        client.flush().expect("flush");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while nb.reader.buf.len() < 500 {
            nb.reader.fill(&mut buf).expect("fill");
            assert!(std::time::Instant::now() < deadline, "first half lost");
        }
        assert_eq!(
            nb.try_recv(None).expect("partial"),
            None,
            "incomplete frame"
        );
        client.write_all(&wire[500..]).expect("second half");
        client.flush().expect("flush");
        let got = loop {
            nb.reader.fill(&mut buf).expect("fill");
            if let Some(f) = nb.try_recv(None).expect("recv") {
                break f;
            }
            assert!(std::time::Instant::now() < deadline, "frame never parsed");
        };
        assert_eq!(got, frame);
        assert_eq!(nb.stats().bytes_received, frame.wire_len() as u64);
    }

    #[test]
    fn nb_conn_unpacks_coalesced_batches() {
        let (server, client) = raw_pair();
        let mut nb = nb(server);
        let mut buf = [0u8; NbConn::READ_CHUNK];
        let sender = endpoint(client);
        let frames = vec![Frame::encode(2, &1u64), Frame::encode(2, &2u64)];
        sender.send_coalesced(&frames).expect("send");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 2 {
            nb.reader.fill(&mut buf).expect("fill");
            while let Some(f) = nb.try_recv(None).expect("recv") {
                got.push(f);
            }
            assert!(std::time::Instant::now() < deadline, "batch never arrived");
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn nb_conn_detects_disconnect_after_drain() {
        let (server, client) = raw_pair();
        let mut nb = nb(server);
        let mut buf = [0u8; NbConn::READ_CHUNK];
        let sender = endpoint(client);
        sender.send(Frame::encode(1, &9u64)).expect("send");
        drop(sender);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        // The queued frame is still delivered before the EOF surfaces.
        let got = loop {
            nb.reader.fill(&mut buf).expect("fill");
            if let Some(f) = nb.try_recv(None).expect("recv") {
                break f;
            }
            assert!(std::time::Instant::now() < deadline, "frame never arrived");
        };
        assert_eq!(got.decode_as::<u64>(1).expect("decode"), 9);
        loop {
            nb.reader
                .fill(&mut buf)
                .expect("fill past EOF is not an error");
            match nb.try_recv(None) {
                Err(TransportError::Disconnected) => break,
                Ok(None) => {}
                other => panic!("expected Disconnected, got {other:?}"),
            }
            assert!(std::time::Instant::now() < deadline, "EOF never surfaced");
        }
    }

    #[test]
    fn nb_conn_rejects_oversized_announcements_stickily() {
        let (server, mut client) = raw_pair();
        let mut nb = nb(server);
        let mut buf = [0u8; NbConn::READ_CHUNK];
        let mut header = Vec::new();
        header.extend_from_slice(&7u16.to_le_bytes());
        header.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        client.write_all(&header).expect("write");
        client.flush().expect("flush");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match nb.reader.fill(&mut buf) {
                Err(TransportError::Decode(msg)) => {
                    assert!(msg.contains("cap"), "names the cap: {msg}");
                    break;
                }
                Ok(()) => assert!(std::time::Instant::now() < deadline, "never rejected"),
                Err(e) => panic!("expected Decode, got {e:?}"),
            }
        }
        // Sticky: every subsequent call reports the same failure.
        assert!(matches!(nb.try_recv(None), Err(TransportError::Decode(_))));
        assert!(matches!(nb.flush(), Err(TransportError::Decode(_))));
    }

    #[test]
    fn nb_conn_flush_reports_backpressure_and_resumes() {
        let (server, client) = raw_pair();
        let mut nb = nb(server);
        // Shrink buffers (best effort) and queue far more than the
        // kernel will take in one gulp so flush must backpressure.
        let big = Frame::encode(3, &vec![0x5au8; 4 << 20]);
        nb.writer.queue(&big).expect("queue");
        assert!(nb.writer.wants_write());
        let receiver = endpoint(client);
        let reader = std::thread::spawn(move || {
            receiver.set_recv_timeout(Some(Duration::from_secs(10)));
            receiver.recv().expect("receive the big frame")
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !nb.flush().expect("flush") {
            assert!(std::time::Instant::now() < deadline, "flush never drained");
        }
        assert!(!nb.writer.wants_write());
        let got = reader.join().expect("reader thread");
        assert_eq!(got, big);
        assert_eq!(nb.stats().bytes_sent, big.wire_len() as u64);
    }

    /// `frame` as it crosses the wire.
    fn wire(frame: &Frame) -> Vec<u8> {
        let mut out = frame.kind.to_le_bytes().to_vec();
        out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame.payload);
        out
    }

    /// A frame with a 1 000-byte payload, and its wire bytes cut after
    /// the header and half the payload.
    fn halved_frame() -> (Frame, Vec<u8>, Vec<u8>) {
        let frame = Frame {
            kind: 5,
            payload: Bytes::from(vec![7u8; 1000]),
        };
        let mut first = wire(&frame);
        let second = first.split_off(Frame::HEADER_LEN + 500);
        (frame, first, second)
    }

    /// The peer writes the header and half the payload, and only once
    /// `ep`'s receive window expired the rest and a frame behind it: the
    /// receive that timed out must keep the half it read.
    fn a_window_that_expires_mid_frame(ep: Endpoint, mut peer: impl Write) {
        let (frame, first, second) = halved_frame();
        let next = Frame::encode(6, &42u64);
        ep.set_recv_timeout(Some(Duration::from_millis(20)));
        peer.write_all(&first).expect("first half");
        assert_eq!(ep.recv(), Err(TransportError::Timeout));
        peer.write_all(&second).expect("second half");
        peer.write_all(&wire(&next)).expect("next frame");
        assert_eq!(ep.recv(), Ok(frame));
        assert_eq!(ep.recv(), Ok(next));
    }

    #[test]
    fn a_receive_that_times_out_mid_frame_keeps_its_bytes_over_a_socket_pair() {
        let (peer, ours) = UnixStream::pair().expect("socket pair");
        a_window_that_expires_mid_frame(Endpoint::from_stream(Stream::Unix(ours)), peer);
    }

    #[test]
    fn a_receive_that_times_out_mid_frame_keeps_its_bytes_over_tcp() {
        let (ours, peer) = raw_pair();
        a_window_that_expires_mid_frame(endpoint(ours), peer);
    }

    /// A budgeted session waits in 20 ms slices; the second half of its
    /// frame arrives 60 ms after the first, and the frame must arrive
    /// whole.
    fn a_budgeted_session_reads_a_frame_sent_in_two(ep: Endpoint, mut peer: impl Write + Send) {
        let (frame, first, second) = halved_frame();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                peer.write_all(&first).expect("first half");
                std::thread::sleep(Duration::from_millis(60));
                peer.write_all(&second).expect("second half");
            });
            let mut engine = ProtocolEngine::new(|io| async move { io.recv().await });
            let limits = SessionLimits::unlimited().with_deadline(Duration::from_secs(5));
            let got = Driver::new().with_limits(limits).drive(&ep, &mut engine);
            assert_eq!(got, Ok(frame));
        });
    }

    #[test]
    fn a_budgeted_session_reads_a_split_frame_over_a_socket_pair() {
        let (peer, ours) = UnixStream::pair().expect("socket pair");
        a_budgeted_session_reads_a_frame_sent_in_two(
            Endpoint::from_stream(Stream::Unix(ours)),
            peer,
        );
    }

    #[test]
    fn a_budgeted_session_reads_a_split_frame_over_tcp() {
        let (ours, peer) = raw_pair();
        a_budgeted_session_reads_a_frame_sent_in_two(endpoint(ours), peer);
    }
}
