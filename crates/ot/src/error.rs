//! Oblivious-transfer errors.

use core::fmt;
use ppcs_transport::{ErrorLayer, ProtocolError, TransportError};

/// Errors raised by the OT protocols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OtError {
    /// The underlying channel failed.
    Transport(TransportError),
    /// The receiver requested an index outside `0..num_messages`.
    InvalidIndex {
        /// The offending index.
        index: usize,
        /// The number of messages in the transfer.
        num_messages: usize,
    },
    /// The sender's messages do not all have the same length.
    UnequalMessageLengths,
    /// Precomputed offline material was produced under a different
    /// engine/group configuration than the session consuming it.
    ConfigMismatch {
        /// Fingerprint of the configuration the session runs under.
        expected: u64,
        /// Fingerprint the offline material was produced under.
        actual: u64,
    },
    /// The peer deviated from the protocol (malformed group element,
    /// inconsistent counts, …).
    Protocol(String),
}

impl fmt::Display for OtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "transport failure: {e}"),
            Self::InvalidIndex {
                index,
                num_messages,
            } => write!(f, "index {index} out of range for {num_messages} messages"),
            Self::UnequalMessageLengths => write!(f, "all OT messages must have equal length"),
            Self::ConfigMismatch { expected, actual } => write!(
                f,
                "offline material config {actual:#018x} does not match session config {expected:#018x}"
            ),
            Self::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for OtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for OtError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

impl From<OtError> for ProtocolError {
    fn from(e: OtError) -> Self {
        match e {
            // Preserve the transport-level layering (Timeout/Disconnected
            // → transport, Decode/UnexpectedFrame → codec).
            OtError::Transport(t) => Self::from(t),
            OtError::InvalidIndex { .. }
            | OtError::UnequalMessageLengths
            | OtError::ConfigMismatch { .. } => Self::new(ErrorLayer::Crypto, e),
            OtError::Protocol(_) => Self::new(ErrorLayer::Protocol, e),
        }
    }
}

/// The receiver's up-front check that every index it asks for exists.
pub(crate) fn check_indices(indices: &[usize], num_messages: usize) -> Result<(), OtError> {
    match indices.iter().find(|&&index| index >= num_messages) {
        Some(&index) => Err(OtError::InvalidIndex {
            index,
            num_messages,
        }),
        None => Ok(()),
    }
}

/// Reads a little-endian `u64` length/count field out of an untrusted
/// peer blob, as a structured error instead of a slice panic when the
/// blob is shorter than advertised.
pub(crate) fn read_u64_le(blob: &[u8], offset: usize, what: &str) -> Result<usize, OtError> {
    let bytes: [u8; 8] = blob
        .get(offset..offset + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| OtError::Protocol(format!("truncated {what} field")))?;
    Ok(u64::from_le_bytes(bytes) as usize)
}

/// `u32` twin of [`read_u64_le`].
pub(crate) fn read_u32_le(blob: &[u8], offset: usize, what: &str) -> Result<usize, OtError> {
    let bytes: [u8; 4] = blob
        .get(offset..offset + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| OtError::Protocol(format!("truncated {what} field")))?;
    Ok(u32::from_le_bytes(bytes) as usize)
}

/// Both parties' results of one transfer run in a test: the sender's,
/// then the receiver's opened messages.
#[cfg(test)]
pub(crate) type Transfer = (Result<(), OtError>, Result<Vec<Vec<u8>>, OtError>);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_reads_are_structured_errors() {
        assert_eq!(read_u64_le(&[1, 0, 0, 0, 0, 0, 0, 0], 0, "n"), Ok(1));
        assert!(matches!(
            read_u64_le(&[1, 2, 3], 0, "n"),
            Err(OtError::Protocol(_))
        ));
        assert_eq!(read_u32_le(&[7, 0, 0, 0], 0, "len"), Ok(7));
        assert!(matches!(
            read_u32_le(&[7, 0, 0, 0], 1, "len"),
            Err(OtError::Protocol(_))
        ));
    }

    #[test]
    fn ot_errors_map_to_layers() {
        let t: ProtocolError = OtError::Transport(TransportError::Timeout).into();
        assert_eq!(t.layer(), ErrorLayer::Transport);
        let c: ProtocolError = OtError::UnequalMessageLengths.into();
        assert_eq!(c.layer(), ErrorLayer::Crypto);
        assert!(matches!(
            c.downcast_ref::<OtError>(),
            Some(OtError::UnequalMessageLengths)
        ));
        let p: ProtocolError = OtError::Protocol("bad blob".into()).into();
        assert_eq!(p.layer(), ErrorLayer::Protocol);
    }
}
