//! OMPE errors.

use core::fmt;

use ppcs_math::InterpolationError;
use ppcs_ot::OtError;
use ppcs_transport::{ErrorLayer, ProtocolError, TransportError};

/// Errors raised by the OMPE protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum OmpeError {
    /// Invalid protocol parameters.
    Params(String),
    /// The sender's secret polynomial exceeds the agreed degree bound or
    /// arity.
    SecretMismatch(String),
    /// Underlying oblivious-transfer failure.
    Ot(OtError),
    /// Underlying transport failure.
    Transport(TransportError),
    /// The retrieval interpolation failed: a degenerate abscissa set, or
    /// fewer answers than covers — a protocol violation by the peer.
    Interpolation(InterpolationError),
    /// Precomputed offline material was produced under a different
    /// configuration (OT engine, group, or OMPE parameters) than the
    /// session trying to consume it.
    ConfigMismatch {
        /// Fingerprint of the consuming session's configuration.
        expected: u64,
        /// Fingerprint the offline material was produced under.
        actual: u64,
    },
    /// The peer deviated from the protocol.
    Protocol(String),
}

impl fmt::Display for OmpeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Params(msg) => write!(f, "invalid OMPE parameters: {msg}"),
            Self::SecretMismatch(msg) => write!(f, "secret polynomial mismatch: {msg}"),
            Self::Ot(e) => write!(f, "oblivious transfer failed: {e}"),
            Self::Transport(e) => write!(f, "transport failed: {e}"),
            Self::Interpolation(e) => write!(f, "retrieval interpolation failed: {e}"),
            Self::ConfigMismatch { expected, actual } => write!(
                f,
                "offline material config {actual:#018x} does not match session config {expected:#018x}"
            ),
            Self::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for OmpeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Ot(e) => Some(e),
            Self::Transport(e) => Some(e),
            Self::Interpolation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OtError> for OmpeError {
    fn from(e: OtError) -> Self {
        Self::Ot(e)
    }
}

impl From<TransportError> for OmpeError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

impl From<InterpolationError> for OmpeError {
    fn from(e: InterpolationError) -> Self {
        Self::Interpolation(e)
    }
}

impl From<OmpeError> for ProtocolError {
    fn from(e: OmpeError) -> Self {
        match e {
            // Delegate to the inner layering so transport and OT causes
            // land on their own layers instead of a blanket "protocol".
            OmpeError::Transport(t) => Self::from(t),
            OmpeError::Ot(o) => Self::from(o),
            OmpeError::Interpolation(_) => Self::new(ErrorLayer::Crypto, e),
            OmpeError::Params(_)
            | OmpeError::SecretMismatch(_)
            | OmpeError::ConfigMismatch { .. }
            | OmpeError::Protocol(_) => Self::new(ErrorLayer::Protocol, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ompe_errors_map_to_layers() {
        let t: ProtocolError = OmpeError::Transport(TransportError::Disconnected).into();
        assert_eq!(t.layer(), ErrorLayer::Transport);
        let o: ProtocolError = OmpeError::Ot(OtError::UnequalMessageLengths).into();
        assert_eq!(o.layer(), ErrorLayer::Crypto);
        let p: ProtocolError = OmpeError::Protocol("bad cloud".into()).into();
        assert_eq!(p.layer(), ErrorLayer::Protocol);
        assert!(matches!(
            p.downcast_ref::<OmpeError>(),
            Some(OmpeError::Protocol(_))
        ));
    }
}
