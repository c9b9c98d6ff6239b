//! The one kind of connection under every [`Endpoint`](crate::Endpoint)
//! and reactor connection: a framed byte stream over a TCP socket, or
//! over one half of a Unix socket pair ([`duplex`](crate::duplex)) when
//! both parties live in one process. The framing code does not know
//! which.
//!
//! Wire framing: `kind: u16 LE | payload_len: u32 LE | payload`, matching
//! the byte accounting of [`Frame::wire_len`](crate::Frame::wire_len).

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::channel::{coalesce_frames, Frame, SharedStats, TrafficStats, KIND_COALESCED};
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

/// The refusal of a peer's announced length over [`MAX_PAYLOAD`].
fn oversized(len: u32) -> TransportError {
    TransportError::Decode(format!(
        "peer announced a {len}-byte frame, cap is {MAX_PAYLOAD}"
    ))
}

/// The socket under a connection.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A TCP connection (Nagle off).
    Tcp(TcpStream),
    /// One half of a Unix socket pair: two parties of one process.
    Unix(UnixStream),
}

/// `$body`, with `$s` bound to the socket `$stream` holds, whichever
/// kind it is.
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

    fn try_clone(&self) -> std::io::Result<Self> {
        Ok(match self {
            Self::Tcp(s) => Self::Tcp(s.try_clone()?),
            Self::Unix(s) => Self::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(timeout))
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        on_socket!(self, s => s.set_nonblocking(true))
    }

    /// Closes both directions for every handle on the socket: a
    /// blocked read returns end-of-stream and the peer sees a hang-up.
    pub(crate) fn shutdown(&self) {
        let _ = on_socket!(self, s => s.shutdown(Shutdown::Both));
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        on_socket!(self, s => s.as_raw_fd())
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        on_socket!(self, s => s.flush())
    }
}

/// Splits `stream` into its blocking framed halves.
pub(crate) fn framed(stream: Stream) -> Result<(FrameReader, FrameWriter), TransportError> {
    let writer = FrameWriter(BufWriter::new(stream.try_clone().map_err(io_err)?));
    let reader = FrameReader {
        reader: BufReader::new(stream),
        applied_read_timeout: None,
    };
    Ok((reader, writer))
}

/// The blocking read half of a framed stream: one wire frame per call,
/// coalesced batches still packed.
#[derive(Debug)]
pub(crate) struct FrameReader {
    reader: BufReader<Stream>,
    /// The read timeout last applied to the socket, so a receive only
    /// pays a syscall when the deadline actually changed. `None` =
    /// never applied.
    applied_read_timeout: Option<Option<Duration>>,
}

impl FrameReader {
    /// Reads the next wire frame, waiting up to `timeout` (`None`:
    /// forever) for it to start.
    pub(crate) fn recv(&mut self, timeout: Option<Duration>) -> Result<Frame, TransportError> {
        self.set_read_timeout(timeout)?;
        let mut header = [0u8; Frame::HEADER_LEN];
        self.reader.read_exact(&mut header).map_err(io_err)?;
        let (kind, len) = decode_header(&header);
        if len > MAX_PAYLOAD {
            return Err(oversized(len));
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload).map_err(io_err)?;
        Ok(Frame {
            kind,
            payload: Bytes::from(payload),
        })
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
        self.reader
            .get_ref()
            .set_read_timeout(effective)
            .map_err(io_err)?;
        self.applied_read_timeout = Some(effective);
        Ok(())
    }

    /// Closes the socket both ways (see [`Stream::shutdown`]).
    pub(crate) fn shutdown(&self) {
        self.reader.get_ref().shutdown();
    }

    /// The socket, with the bytes already read from it but not yet
    /// parsed.
    pub(crate) fn into_parts(self) -> (Stream, Vec<u8>) {
        let read_ahead = self.reader.buffer().to_vec();
        (self.reader.into_inner(), read_ahead)
    }
}

/// The blocking write half of a framed stream.
#[derive(Debug)]
pub(crate) struct FrameWriter(BufWriter<Stream>);

impl FrameWriter {
    /// Writes one wire frame and flushes it.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let header = encode_header(frame)?;
        self.0
            .write_all(&header)
            .and_then(|()| self.0.write_all(&frame.payload))
            .and_then(|()| self.0.flush())
            .map_err(io_err)
    }

    /// Closes the socket both ways (see [`Stream::shutdown`]).
    pub(crate) fn shutdown(&self) {
        self.0.get_ref().shutdown();
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
/// [`NbConn`] therefore intercepts `WouldBlock` before classification
/// (see [`nb_would_block`]) and surfaces `Timeout` only when the async
/// driver's timer wheel says the per-receive deadline truly elapsed —
/// keeping `TransportError::Timeout` identical in meaning across the
/// blocking and async paths.
fn io_err(e: std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => TransportError::Timeout,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::ConnectionAborted => TransportError::Disconnected,
        _ => TransportError::Io(e.to_string()),
    }
}

/// Whether `e` is the nonblocking "no data yet" condition that must
/// **not** be classified as a timeout. `Interrupted` is grouped here
/// because the right response is the same: try again later.
fn nb_would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
    )
}

/// A **nonblocking** framed connection for the reactor: an incremental
/// frame parser on the read side and a flush-on-ready backpressure
/// queue on the write side, speaking the exact wire format of the
/// blocking halves (coalesced batches under [`KIND_COALESCED`]).
///
/// All methods are try-style and never block: reads drain the socket to
/// `WouldBlock` (as edge-triggered registration requires), writes queue
/// and flush as far as the kernel accepts. Per the normalization
/// documented on [`io_err`], `WouldBlock` here is "not ready" — a
/// [`TransportError::Timeout`] can only be imposed from above by the
/// async driver's timer wheel.
#[derive(Debug)]
pub(crate) struct NbConn {
    stream: Stream,
    /// Raw inbound bytes not yet parsed into frames.
    read_buf: Vec<u8>,
    /// Parsed logical frames (coalesced batches already unpacked),
    /// ready for delivery.
    parsed: VecDeque<Frame>,
    /// Encoded outbound bytes the kernel has not accepted yet;
    /// `write_pos` marks the flushed prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The peer half-closed the stream (read side saw EOF).
    eof: bool,
    /// A fatal framing/socket failure; sticky, reported from every
    /// subsequent call.
    failed: Option<TransportError>,
    stats: Arc<SharedStats>,
    /// When the current `EPOLLOUT` stall began: set on the first
    /// backpressured flush, cleared when the queue fully drains.
    stall_since: Option<std::time::Instant>,
    /// Duration of the most recently *completed* stall, waiting for
    /// [`take_stall_ns`](Self::take_stall_ns) to collect it.
    completed_stall_ns: Option<u64>,
}

impl NbConn {
    /// Chunk size for socket reads: the size of the read buffer
    /// [`fill`](Self::fill) is handed.
    pub(crate) const READ_CHUNK: usize = 64 * 1024;

    /// Takes over `stream` in nonblocking mode, together with what a
    /// blocking reader already took from it: `read_ahead`, the raw bytes
    /// past its last frame, and `parsed`, sub-frames of a batch it
    /// unpacked but did not deliver. Traffic keeps counting into
    /// `stats`.
    pub(crate) fn new(
        stream: Stream,
        read_ahead: Vec<u8>,
        parsed: VecDeque<Frame>,
        stats: Arc<SharedStats>,
    ) -> Result<Self, TransportError> {
        stream.set_nonblocking().map_err(io_err)?;
        let mut conn = Self {
            stream,
            read_buf: read_ahead,
            parsed,
            write_buf: Vec::new(),
            write_pos: 0,
            eof: false,
            failed: None,
            stats,
            stall_since: None,
            completed_stall_ns: None,
        };
        // A failure stays sticky and surfaces through `try_recv`.
        let _ = conn.parse_frames();
        Ok(conn)
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads everything the socket has (to `WouldBlock`) through
    /// `chunk`, the caller's reusable read buffer, and parses complete
    /// frames. Call on every readable event — edge-triggered
    /// registration delivers no second chance.
    pub(crate) fn fill(&mut self, chunk: &mut [u8]) -> Result<(), TransportError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if nb_would_block(&e) => break,
                Err(e) => {
                    // A reset/abort on the read side is a disconnect,
                    // never a timeout: classify with the blocking rules
                    // minus the WouldBlock arm filtered above.
                    let err = io_err(e);
                    self.failed = Some(err.clone());
                    return Err(err);
                }
            }
        }
        self.parse_frames()
    }

    /// Parses as many complete frames as the buffer holds.
    fn parse_frames(&mut self) -> Result<(), TransportError> {
        let mut pos = 0usize;
        while let Some(header) = self.read_buf[pos..].first_chunk() {
            let (kind, len) = decode_header(header);
            if len > MAX_PAYLOAD {
                let err = oversized(len);
                self.failed = Some(err.clone());
                return Err(err);
            }
            let total = Frame::HEADER_LEN + len as usize;
            if self.read_buf.len() - pos < total {
                break;
            }
            let payload =
                Bytes::copy_from_slice(&self.read_buf[pos + Frame::HEADER_LEN..pos + total]);
            pos += total;
            let frame = Frame { kind, payload };
            self.stats.record_received(kind, frame.wire_len() as u64);
            if kind == KIND_COALESCED {
                match crate::channel::uncoalesce(&frame.payload) {
                    Ok((first, rest)) => {
                        self.parsed.push_back(first);
                        self.parsed.extend(rest);
                    }
                    Err(e) => {
                        self.failed = Some(e.clone());
                        return Err(e);
                    }
                }
            } else {
                self.parsed.push_back(frame);
            }
        }
        if pos == self.read_buf.len() {
            self.read_buf.clear();
        } else if pos > 0 {
            self.read_buf.drain(..pos);
        }
        Ok(())
    }

    /// Encodes `frame` onto the write queue and counts it as sent
    /// (matching the blocking endpoint, which counts at `send` time).
    /// Call [`flush`](Self::flush) to move bytes toward the kernel.
    pub(crate) fn queue(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let header = encode_header(frame)?;
        self.write_buf.extend_from_slice(&header);
        self.write_buf.extend_from_slice(&frame.payload);
        self.stats.record_sent(frame.kind, frame.wire_len() as u64);
        Ok(())
    }

    /// Writes queued bytes until the kernel pushes back. `Ok(true)`
    /// when the queue fully drained, `Ok(false)` when backpressure
    /// remains and the next writable event must resume the flush.
    pub(crate) fn flush(&mut self) -> Result<bool, TransportError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    let err = TransportError::Disconnected;
                    self.failed = Some(err.clone());
                    return Err(err);
                }
                Ok(n) => self.write_pos += n,
                Err(e) if nb_would_block(&e) => {
                    // The kernel pushed back: an EPOLLOUT stall begins
                    // (or continues) until the queue fully drains.
                    self.stall_since.get_or_insert_with(std::time::Instant::now);
                    return Ok(false);
                }
                Err(e) => {
                    let err = io_err(e);
                    self.failed = Some(err.clone());
                    return Err(err);
                }
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        if let Some(since) = self.stall_since.take() {
            self.completed_stall_ns = Some(since.elapsed().as_nanos() as u64);
        }
        Ok(true)
    }

    /// Whether backpressured bytes are waiting for a writable event.
    pub(crate) fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Bytes queued but not yet accepted by the kernel — the
    /// write-buffer depth health metric.
    pub(crate) fn pending_write_bytes(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Collects the duration of the most recently completed `EPOLLOUT`
    /// stall, once per stall (`None` when no stall finished since the
    /// last call).
    pub(crate) fn take_stall_ns(&mut self) -> Option<u64> {
        self.completed_stall_ns.take()
    }

    /// Whether [`try_recv`](SessionIo::try_recv) has something to report
    /// without a new readiness event: a parsed frame, the end of the
    /// stream, or a failure.
    pub(crate) fn recv_ready(&self) -> bool {
        !self.parsed.is_empty() || self.eof || self.failed.is_some()
    }
}

/// The reactor's way of waiting: it doesn't. `try_recv` pops what
/// [`NbConn::fill`] already parsed, and deadlines are the timer wheel's
/// job (see the normalization notes on [`io_err`]).
impl SessionIo for NbConn {
    fn send(&mut self, out: &Outgoing) -> Result<(), TransportError> {
        match out {
            Outgoing::Frame(f) => self.queue(f)?,
            Outgoing::Batch(fs) => self.queue(&coalesce_frames(fs)?)?,
        }
        // Opportunistic flush: backpressure is not an error, the
        // remainder rides the next writable event.
        self.flush().map(|_| ())
    }

    /// `Ok(Some)` on a frame, `Ok(None)` when the peer simply has not
    /// sent one yet, `Err(Disconnected)` once the stream is drained
    /// *and* closed.
    fn try_recv(&mut self, _max_wait: Option<Duration>) -> Result<Option<Frame>, TransportError> {
        if let Some(f) = self.parsed.pop_front() {
            return Ok(Some(f));
        }
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.eof {
            // A partial trailing frame is a truncated stream, exactly
            // what the blocking path's read_exact reports.
            return Err(TransportError::Disconnected);
        }
        Ok(None)
    }

    /// Sends count when queued, matching the blocking endpoint's
    /// count-at-`send` accounting.
    fn stats(&self) -> TrafficStats {
        self.stats.snapshot()
    }
}

/// Connects to a listening ppcs peer.
///
/// # Errors
///
/// [`TransportError::Io`] wrapping the underlying socket error.
pub fn tcp_connect<A: ToSocketAddrs>(addr: A) -> Result<crate::Endpoint, TransportError> {
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    crate::Endpoint::from_stream(Stream::tcp(stream)?)
}

/// Accepts one inbound connection on `listener`.
///
/// # Errors
///
/// [`TransportError::Io`] wrapping the underlying socket error.
pub fn tcp_accept(listener: &TcpListener) -> Result<crate::Endpoint, TransportError> {
    let (stream, _peer) = listener.accept().map_err(io_err)?;
    crate::Endpoint::from_stream(Stream::tcp(stream)?)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let stream = Stream::tcp(stream).expect("nodelay");
        NbConn::new(stream, Vec::new(), VecDeque::new(), Arc::default()).expect("nb conn")
    }

    fn endpoint(stream: TcpStream) -> Endpoint {
        Endpoint::from_stream(Stream::tcp(stream).expect("nodelay")).expect("endpoint")
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
        // come from the async driver's timer wheel.
        let (server, _client) = raw_pair();
        let mut nb = nb(server);
        let mut buf = [0u8; NbConn::READ_CHUNK];
        nb.fill(&mut buf)
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
        use std::io::Write;
        client.write_all(&wire[..500]).expect("first half");
        client.flush().expect("flush");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while nb.read_buf.len() < 500 {
            nb.fill(&mut buf).expect("fill");
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
            nb.fill(&mut buf).expect("fill");
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
            nb.fill(&mut buf).expect("fill");
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
            nb.fill(&mut buf).expect("fill");
            if let Some(f) = nb.try_recv(None).expect("recv") {
                break f;
            }
            assert!(std::time::Instant::now() < deadline, "frame never arrived");
        };
        assert_eq!(got.decode_as::<u64>(1).expect("decode"), 9);
        loop {
            nb.fill(&mut buf).expect("fill past EOF is not an error");
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
        use std::io::Write;
        let mut header = Vec::new();
        header.extend_from_slice(&7u16.to_le_bytes());
        header.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        client.write_all(&header).expect("write");
        client.flush().expect("flush");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match nb.fill(&mut buf) {
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
        nb.queue(&big).expect("queue");
        assert!(nb.wants_write());
        let receiver = endpoint(client);
        let reader = std::thread::spawn(move || {
            receiver.set_recv_timeout(Some(Duration::from_secs(10)));
            receiver.recv().expect("receive the big frame")
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !nb.flush().expect("flush") {
            assert!(std::time::Instant::now() < deadline, "flush never drained");
        }
        assert!(!nb.wants_write());
        let got = reader.join().expect("reader thread");
        assert_eq!(got, big);
        assert_eq!(nb.stats().bytes_sent, big.wire_len() as u64);
    }
}
