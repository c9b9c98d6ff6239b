//! Transport-layer errors and the layered protocol-error taxonomy.

use core::fmt;

/// Errors surfaced by channels and the wire codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint has been dropped.
    Disconnected,
    /// A blocking receive timed out.
    Timeout,
    /// The underlying socket failed with an I/O error that is neither a
    /// timeout nor a clean disconnect.
    Io(String),
    /// The payload could not be decoded.
    Decode(String),
    /// A frame arrived with an unexpected kind tag.
    UnexpectedFrame {
        /// The frame kind the protocol expected next.
        expected: u16,
        /// The frame kind actually received.
        got: u16,
        /// The length of the offending frame's payload in bytes.
        payload_len: usize,
    },
    /// The peer is at capacity and shed this session before it started
    /// (it answered with a `KIND_BUSY` control frame). Not retryable on
    /// the same connection; callers should back off and redial.
    Busy {
        /// The server's retry-after hint in milliseconds, when its shed
        /// reply carried one: redialing sooner will just be shed again.
        /// `None` means the server gave no guidance and the caller's own
        /// backoff applies.
        retry_after_ms: Option<u64>,
    },
    /// A session budget ([`SessionLimits`](crate::SessionLimits)) was
    /// exhausted: wall-clock deadline, frame count, wire-byte count, or a
    /// drain-deadline cut. The message names the budget that tripped.
    Budget(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Disconnected => write!(f, "peer endpoint disconnected"),
            Self::Timeout => write!(f, "receive timed out"),
            Self::Io(msg) => write!(f, "socket error: {msg}"),
            Self::Decode(msg) => write!(f, "wire decode failed: {msg}"),
            Self::UnexpectedFrame {
                expected,
                got,
                payload_len,
            } => {
                write!(
                    f,
                    "unexpected frame kind 0x{got:04x} ({payload_len}-byte payload), \
                     expected kind 0x{expected:04x}"
                )
            }
            Self::Busy { retry_after_ms } => {
                write!(f, "peer at capacity: session shed before admission")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms}ms)")?;
                }
                Ok(())
            }
            Self::Budget(msg) => write!(f, "session budget exhausted: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The layer a protocol failure originated in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorLayer {
    /// Channel failures: disconnects, timeouts, raw socket I/O.
    Transport,
    /// Wire-codec failures: malformed payloads, frame-kind mismatches.
    Codec,
    /// Cryptographic failures: bad OT material, invalid group elements.
    Crypto,
    /// Role-logic violations: the peer deviated from the agreed protocol.
    Protocol,
}

impl fmt::Display for ErrorLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Transport => write!(f, "transport"),
            Self::Codec => write!(f, "codec"),
            Self::Crypto => write!(f, "crypto"),
            Self::Protocol => write!(f, "protocol"),
        }
    }
}

/// A layered protocol error: which layer failed, where in the session it
/// failed (frame kind and round), and the underlying typed cause.
///
/// The per-crate error enums (`OtError`, `OmpeError`, …) stay the lingua
/// franca of the blocking APIs; `ProtocolError` is the type-erased form
/// the [`Engine`](crate::Engine) trait, the [`Driver`](crate::Driver)
/// and transcript replay speak, so heterogeneous engines compose without
/// generics. The original enum is preserved as the boxed source and can
/// be recovered with [`ProtocolError::downcast_ref`].
#[derive(Debug)]
pub struct ProtocolError {
    layer: ErrorLayer,
    frame_kind: Option<u16>,
    round: Option<u64>,
    source: Box<dyn std::error::Error + Send + Sync + 'static>,
}

impl ProtocolError {
    /// Wraps `source` as a failure in `layer`, with no session context yet.
    pub fn new(layer: ErrorLayer, source: impl std::error::Error + Send + Sync + 'static) -> Self {
        Self {
            layer,
            frame_kind: None,
            round: None,
            source: Box::new(source),
        }
    }

    /// A protocol-layer violation described by a plain message.
    pub fn violation(msg: impl Into<String>) -> Self {
        Self::new(ErrorLayer::Protocol, StringError(msg.into()))
    }

    /// The layer the failure originated in.
    pub fn layer(&self) -> ErrorLayer {
        self.layer
    }

    /// The kind tag of the frame being processed when the failure
    /// surfaced, if known.
    pub fn frame_kind(&self) -> Option<u16> {
        self.frame_kind
    }

    /// The session round (frames handled so far by the failing engine)
    /// when the failure surfaced, if known.
    pub fn round(&self) -> Option<u64> {
        self.round
    }

    /// Attaches a frame kind, keeping an already-recorded one.
    #[must_use]
    pub fn with_frame_kind(mut self, kind: u16) -> Self {
        self.frame_kind.get_or_insert(kind);
        self
    }

    /// Attaches a round index, keeping an already-recorded one.
    #[must_use]
    pub fn with_round(mut self, round: u64) -> Self {
        self.round.get_or_insert(round);
        self
    }

    /// Attempts to view the underlying cause as a concrete error type.
    pub fn downcast_ref<E: std::error::Error + 'static>(&self) -> Option<&E> {
        self.source.downcast_ref::<E>()
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} layer error", self.layer)?;
        match (self.frame_kind, self.round) {
            (Some(kind), Some(round)) => write!(f, " [frame 0x{kind:04x}, round {round}]")?,
            (Some(kind), None) => write!(f, " [frame 0x{kind:04x}]")?,
            (None, Some(round)) => write!(f, " [round {round}]")?,
            (None, None) => {}
        }
        write!(f, ": {}", self.source)
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref())
    }
}

impl From<TransportError> for ProtocolError {
    fn from(err: TransportError) -> Self {
        match &err {
            TransportError::Disconnected
            | TransportError::Timeout
            | TransportError::Io(_)
            | TransportError::Busy { .. }
            | TransportError::Budget(_) => Self::new(ErrorLayer::Transport, err),
            TransportError::Decode(_) => Self::new(ErrorLayer::Codec, err),
            TransportError::UnexpectedFrame { got, .. } => {
                let got = *got;
                Self::new(ErrorLayer::Codec, err).with_frame_kind(got)
            }
        }
    }
}

/// A plain-message error used for protocol violations with no richer type.
#[derive(Clone, Debug)]
struct StringError(String);

impl fmt::Display for StringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StringError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_error_maps_to_transport_layer() {
        for err in [
            TransportError::Disconnected,
            TransportError::Timeout,
            TransportError::Io("reset".into()),
            TransportError::Busy {
                retry_after_ms: None,
            },
            TransportError::Busy {
                retry_after_ms: Some(120),
            },
            TransportError::Budget("deadline 5ms elapsed".into()),
        ] {
            let p = ProtocolError::from(err.clone());
            assert_eq!(p.layer(), ErrorLayer::Transport);
            assert_eq!(p.downcast_ref::<TransportError>(), Some(&err));
        }
    }

    #[test]
    fn busy_display_keeps_capacity_wording_and_shows_the_hint() {
        let bare = TransportError::Busy {
            retry_after_ms: None,
        }
        .to_string();
        assert!(bare.contains("capacity"), "{bare}");
        assert!(!bare.contains("retry after"), "{bare}");
        let hinted = TransportError::Busy {
            retry_after_ms: Some(75),
        }
        .to_string();
        assert!(hinted.contains("capacity"), "{hinted}");
        assert!(hinted.contains("retry after 75ms"), "{hinted}");
    }

    #[test]
    fn unexpected_frame_maps_to_codec_with_kind() {
        let err = TransportError::UnexpectedFrame {
            expected: 0x0100,
            got: 0x0400,
            payload_len: 12,
        };
        let p = ProtocolError::from(err);
        assert_eq!(p.layer(), ErrorLayer::Codec);
        assert_eq!(p.frame_kind(), Some(0x0400));
        let shown = p.to_string();
        assert!(shown.contains("0x0400"), "display shows the kind: {shown}");
        assert!(
            shown.contains("12-byte"),
            "display shows the length: {shown}"
        );
    }

    #[test]
    fn context_is_first_writer_wins() {
        let p = ProtocolError::violation("peer lied")
            .with_frame_kind(7)
            .with_frame_kind(9)
            .with_round(3)
            .with_round(4);
        assert_eq!(p.frame_kind(), Some(7));
        assert_eq!(p.round(), Some(3));
        assert_eq!(p.layer(), ErrorLayer::Protocol);
    }
}
