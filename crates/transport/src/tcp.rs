//! TCP backend for [`Endpoint`](crate::Endpoint): the same protocols
//! that run over in-memory channels run across real sockets.
//!
//! Wire framing: `kind: u16 LE | payload_len: u32 LE | payload`, matching
//! the byte accounting of [`Frame::wire_len`](crate::Frame::wire_len).

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;

use crate::channel::Frame;
use crate::error::TransportError;

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

/// A framed TCP connection carrying [`Frame`]s.
#[derive(Debug)]
pub(crate) struct TcpConnection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The read timeout last applied to the socket, so the per-receive
    /// [`set_read_timeout`](Self::set_read_timeout) only pays a syscall
    /// when [`Endpoint::set_recv_timeout`](crate::Endpoint::set_recv_timeout)
    /// actually changed the deadline. `None` = never applied.
    applied_read_timeout: Option<Option<Duration>>,
}

impl TcpConnection {
    pub(crate) fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true).map_err(io_err)?;
        let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        let writer = BufWriter::new(stream);
        Ok(Self {
            reader,
            writer,
            applied_read_timeout: None,
        })
    }

    pub(crate) fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let len: u32 = frame
            .payload
            .len()
            .try_into()
            .map_err(|_| TransportError::Decode("frame payload exceeds u32 length".into()))?;
        if len > MAX_PAYLOAD {
            return Err(TransportError::Decode(format!(
                "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
            )));
        }
        self.writer
            .write_all(&frame.kind.to_le_bytes())
            .and_then(|()| self.writer.write_all(&len.to_le_bytes()))
            .and_then(|()| self.writer.write_all(&frame.payload))
            .and_then(|()| self.writer.flush())
            .map_err(io_err)
    }

    pub(crate) fn recv(&mut self) -> Result<Frame, TransportError> {
        let mut header = [0u8; Frame::HEADER_LEN];
        self.reader.read_exact(&mut header).map_err(io_err)?;
        let (kind, len) = decode_header(&header);
        if len > MAX_PAYLOAD {
            return Err(TransportError::Decode(format!(
                "peer announced a {len}-byte frame, cap is {MAX_PAYLOAD}"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload).map_err(io_err)?;
        Ok(Frame {
            kind,
            payload: Bytes::from(payload),
        })
    }

    /// Applies the endpoint's receive deadline to the socket.
    ///
    /// `std` rejects a zero read timeout, so `Some(0)` is clamped to the
    /// smallest representable deadline instead of erroring — callers get
    /// "time out as fast as the OS allows" semantics.
    pub(crate) fn set_read_timeout(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<(), TransportError> {
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

/// A **nonblocking** framed TCP connection for the async serving path:
/// an incremental frame parser on the read side and a flush-on-ready
/// backpressure queue on the write side, speaking the exact wire format
/// of the blocking [`TcpConnection`] (`kind u16 LE | len u32 LE |
/// payload`, coalesced batches under
/// [`KIND_COALESCED`](crate::KIND_COALESCED)).
///
/// All methods are try-style and never block: reads drain the socket to
/// `WouldBlock` (as edge-triggered registration requires), writes queue
/// and flush as far as the kernel accepts. Per the normalization
/// documented on [`io_err`], `WouldBlock` here is "not ready" — a
/// [`TransportError::Timeout`] can only be imposed from above by the
/// async driver's timer wheel.
#[derive(Debug)]
pub(crate) struct NbConn {
    stream: TcpStream,
    /// Raw inbound bytes not yet parsed into frames.
    read_buf: Vec<u8>,
    /// Parsed logical frames (coalesced batches already unpacked),
    /// ready for delivery.
    parsed: std::collections::VecDeque<Frame>,
    /// Encoded outbound bytes the kernel has not accepted yet;
    /// `write_pos` marks the flushed prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The peer half-closed the stream (read side saw EOF).
    eof: bool,
    /// A fatal framing/socket failure; sticky, reported from every
    /// subsequent call.
    failed: Option<TransportError>,
    stats: std::sync::Arc<crate::channel::SharedStats>,
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

    pub(crate) fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_nonblocking(true).map_err(io_err)?;
        Ok(Self {
            stream,
            read_buf: Vec::new(),
            parsed: std::collections::VecDeque::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            eof: false,
            failed: None,
            stats: std::sync::Arc::new(crate::channel::SharedStats::default()),
            stall_since: None,
            completed_stall_ns: None,
        })
    }

    pub(crate) fn fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// Snapshot of wire-traffic counters (sends counted when queued,
    /// matching the blocking endpoint's count-at-`send` accounting).
    pub(crate) fn stats(&self) -> crate::channel::TrafficStats {
        self.stats.snapshot()
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
            match std::io::Read::read(&mut self.stream, chunk) {
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
                let err = TransportError::Decode(format!(
                    "peer announced a {len}-byte frame, cap is {MAX_PAYLOAD}"
                ));
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
            if kind == crate::channel::KIND_COALESCED {
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

    /// Pops the next parsed logical frame: `Ok(Some)` on a frame,
    /// `Ok(None)` when the peer simply has not sent one yet,
    /// `Err(Disconnected)` once the stream is drained *and* closed.
    pub(crate) fn try_recv(&mut self) -> Result<Option<Frame>, TransportError> {
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

    /// Encodes `frame` onto the write queue and counts it as sent
    /// (matching the blocking endpoint, which counts at `send` time).
    /// Call [`flush`](Self::flush) to move bytes toward the kernel.
    pub(crate) fn queue(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let len: u32 = frame
            .payload
            .len()
            .try_into()
            .map_err(|_| TransportError::Decode("frame payload exceeds u32 length".into()))?;
        if len > MAX_PAYLOAD {
            return Err(TransportError::Decode(format!(
                "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
            )));
        }
        self.write_buf.extend_from_slice(&frame.kind.to_le_bytes());
        self.write_buf.extend_from_slice(&len.to_le_bytes());
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
            match std::io::Write::write(&mut self.stream, &self.write_buf[self.write_pos..]) {
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

    /// Whether [`try_recv`](Self::try_recv) has something to report
    /// without a new readiness event: a parsed frame, the end of the
    /// stream, or a failure.
    pub(crate) fn recv_ready(&self) -> bool {
        !self.parsed.is_empty() || self.eof || self.failed.is_some()
    }
}

/// Connects to a listening ppcs peer.
///
/// # Errors
///
/// [`TransportError::Io`] wrapping the underlying socket error.
pub fn tcp_connect<A: ToSocketAddrs>(addr: A) -> Result<crate::Endpoint, TransportError> {
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    crate::Endpoint::from_tcp(stream)
}

/// Accepts one inbound connection on `listener`.
///
/// # Errors
///
/// [`TransportError::Io`] wrapping the underlying socket error.
pub fn tcp_accept(listener: &TcpListener) -> Result<crate::Endpoint, TransportError> {
    let (stream, _peer) = listener.accept().map_err(io_err)?;
    crate::Endpoint::from_tcp(stream)
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
        let mut nb = NbConn::new(server).expect("nb conn");
        let mut buf = [0u8; NbConn::READ_CHUNK];
        nb.fill(&mut buf)
            .expect("fill on an empty socket is not an error");
        assert_eq!(nb.try_recv().expect("no frame is not an error"), None);
        assert!(nb.flush().expect("empty flush"), "nothing queued");
    }

    #[test]
    fn nb_conn_parses_incrementally_across_partial_reads() {
        let (server, mut client) = raw_pair();
        let mut nb = NbConn::new(server).expect("nb conn");
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
        assert_eq!(nb.try_recv().expect("partial"), None, "incomplete frame");
        client.write_all(&wire[500..]).expect("second half");
        client.flush().expect("flush");
        let got = loop {
            nb.fill(&mut buf).expect("fill");
            if let Some(f) = nb.try_recv().expect("recv") {
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
        let mut nb = NbConn::new(server).expect("nb conn");
        let mut buf = [0u8; NbConn::READ_CHUNK];
        let sender = crate::Endpoint::from_tcp(client).expect("endpoint");
        let frames = vec![Frame::encode(2, &1u64), Frame::encode(2, &2u64)];
        sender.send_coalesced(&frames).expect("send");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 2 {
            nb.fill(&mut buf).expect("fill");
            while let Some(f) = nb.try_recv().expect("recv") {
                got.push(f);
            }
            assert!(std::time::Instant::now() < deadline, "batch never arrived");
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn nb_conn_detects_disconnect_after_drain() {
        let (server, client) = raw_pair();
        let mut nb = NbConn::new(server).expect("nb conn");
        let mut buf = [0u8; NbConn::READ_CHUNK];
        let sender = crate::Endpoint::from_tcp(client).expect("endpoint");
        sender.send(Frame::encode(1, &9u64)).expect("send");
        drop(sender);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        // The queued frame is still delivered before the EOF surfaces.
        let got = loop {
            nb.fill(&mut buf).expect("fill");
            if let Some(f) = nb.try_recv().expect("recv") {
                break f;
            }
            assert!(std::time::Instant::now() < deadline, "frame never arrived");
        };
        assert_eq!(got.decode_as::<u64>(1).expect("decode"), 9);
        loop {
            nb.fill(&mut buf).expect("fill past EOF is not an error");
            match nb.try_recv() {
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
        let mut nb = NbConn::new(server).expect("nb conn");
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
        assert!(matches!(nb.try_recv(), Err(TransportError::Decode(_))));
        assert!(matches!(nb.flush(), Err(TransportError::Decode(_))));
    }

    #[test]
    fn nb_conn_flush_reports_backpressure_and_resumes() {
        let (server, client) = raw_pair();
        let mut nb = NbConn::new(server).expect("nb conn");
        // Shrink buffers (best effort) and queue far more than the
        // kernel will take in one gulp so flush must backpressure.
        let big = Frame::encode(3, &vec![0x5au8; 4 << 20]);
        nb.queue(&big).expect("queue");
        assert!(nb.wants_write());
        let receiver = crate::Endpoint::from_tcp(client).expect("endpoint");
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
