//! The fleet liveness/readiness probe: a [`KIND_HEALTH`] request/reply
//! exchange the serving reactor answers **without admitting a
//! session**.
//!
//! A probe costs the server one frame in each direction and no session
//! slot: the reactor answers it from its pre-admission dispatch, even
//! while at capacity or draining. The reply ([`HealthStatus`]) carries everything a fleet
//! router needs to triage a replica:
//!
//! * **`epoch`** — the serving process's incarnation. A restarted
//!   trainer advertises a fresh epoch, so clients holding warm-session
//!   tickets from the previous incarnation know their server-side state
//!   (spec announcements) is gone and fall back to a cold start.
//! * **`draining`** — admission has stopped; route new sessions
//!   elsewhere.
//! * **`pool_depth`** — precomputed offline packs ready right now; a
//!   deeper pool means lower first-round latency.
//! * **`active_sessions`** — current load, for least-loaded routing.

use std::time::Duration;

use bytes::{Bytes, BytesMut};

use crate::channel::{Frame, Lane};
use crate::driver::{busy_retry_after, KIND_BUSY};
use crate::error::TransportError;
use crate::wire::Encodable;

/// Frame kind for the liveness/readiness probe. An empty-payload
/// `KIND_HEALTH` frame is the request; the reply is a `KIND_HEALTH`
/// frame carrying an encoded [`HealthStatus`]. Reserved next to
/// [`KIND_BUSY`]; protocols never see it, and servers
/// answer it before (and instead of) admission.
pub const KIND_HEALTH: u16 = 0x00FC;

/// One replica's answer to a [`KIND_HEALTH`] probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthStatus {
    /// The serving process's incarnation: bumped across a crash/restart
    /// so clients can detect that warm tickets from the previous
    /// incarnation are void.
    pub epoch: u64,
    /// Whether a drain has begun (admission is over).
    pub draining: bool,
    /// Precomputed offline packs ready right now.
    pub pool_depth: u64,
    /// Sessions currently being served.
    pub active_sessions: u64,
}

impl Encodable for HealthStatus {
    fn encode(&self, out: &mut BytesMut) {
        self.epoch.encode(out);
        u64::from(self.draining).encode(out);
        self.pool_depth.encode(out);
        self.active_sessions.encode(out);
    }

    fn decode(input: &mut Bytes) -> Result<Self, TransportError> {
        let epoch = u64::decode(input)?;
        let draining = match u64::decode(input)? {
            0 => false,
            1 => true,
            other => {
                return Err(TransportError::Decode(format!(
                    "health drain flag must be 0 or 1, got {other}"
                )))
            }
        };
        Ok(Self {
            epoch,
            draining,
            pool_depth: u64::decode(input)?,
            active_sessions: u64::decode(input)?,
        })
    }
}

impl HealthStatus {
    /// The probe request: an empty-payload [`KIND_HEALTH`] frame.
    pub fn request() -> Frame {
        Frame {
            kind: KIND_HEALTH,
            payload: Bytes::new(),
        }
    }

    /// Encodes this status as the probe reply frame.
    pub fn reply(&self) -> Frame {
        Frame::encode(KIND_HEALTH, self)
    }

    /// Decodes a received [`KIND_HEALTH`] reply payload.
    ///
    /// # Errors
    ///
    /// [`TransportError::Decode`] on a truncated or malformed payload.
    pub fn parse(frame: &Frame) -> Result<Self, TransportError> {
        if frame.kind != KIND_HEALTH {
            return Err(TransportError::UnexpectedFrame {
                expected: KIND_HEALTH,
                got: frame.kind,
                payload_len: frame.payload.len(),
            });
        }
        frame.decode_as::<Self>(KIND_HEALTH)
    }
}

/// Probes a replica over `lane`: sends one [`KIND_HEALTH`] request and
/// waits up to `window` for the reply. A [`KIND_BUSY`] answer (some
/// servers shed before dispatching — not ours, but the probe is liberal
/// in what it accepts) surfaces as [`TransportError::Busy`]; anything
/// else that is not a health reply is an
/// [`TransportError::UnexpectedFrame`].
///
/// # Errors
///
/// Any transport failure, [`TransportError::Timeout`] when the window
/// elapses, and [`TransportError::Decode`] on a malformed reply.
pub fn probe_health<L: Lane + ?Sized>(
    lane: &L,
    window: Duration,
) -> Result<HealthStatus, TransportError> {
    probe_health_cancellable(lane, window, None)
}

/// [`probe_health`] with a cancel token: the blocking wait is sliced so
/// a cancellation (e.g. a hedged race already decided elsewhere) is
/// observed within one slice instead of holding the caller for the full
/// probe window against a mute peer.
///
/// # Errors
///
/// As [`probe_health`], plus [`TransportError::Budget`] when `cancel`
/// is raised mid-wait.
pub fn probe_health_cancellable<L: Lane + ?Sized>(
    lane: &L,
    window: Duration,
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> Result<HealthStatus, TransportError> {
    const SLICE: Duration = Duration::from_millis(20);
    let window = window.max(Duration::from_millis(1));
    lane.set_recv_timeout(Some(window));
    lane.send(HealthStatus::request())?;
    let started = std::time::Instant::now();
    let reply = loop {
        let remaining = window.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return Err(TransportError::Timeout);
        }
        if cancel.is_some() {
            lane.set_recv_timeout(Some(remaining.min(SLICE).max(Duration::from_millis(1))));
        }
        match lane.recv() {
            Err(TransportError::Timeout) => {
                if let Some(cancel) = cancel {
                    if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                        return Err(TransportError::Budget(
                            "health probe cancelled (race decided)".into(),
                        ));
                    }
                }
                if cancel.is_none() || started.elapsed() >= window {
                    return Err(TransportError::Timeout);
                }
            }
            other => break other?,
        }
    };
    if reply.kind == KIND_BUSY {
        return Err(TransportError::Busy {
            retry_after_ms: busy_retry_after(&reply.payload),
        });
    }
    HealthStatus::parse(&reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::duplex;

    #[test]
    fn health_status_round_trips_through_its_frames() {
        let status = HealthStatus {
            epoch: 3,
            draining: true,
            pool_depth: 7,
            active_sessions: 12,
        };
        let frame = status.reply();
        assert_eq!(frame.kind, KIND_HEALTH);
        assert_eq!(HealthStatus::parse(&frame).unwrap(), status);
    }

    #[test]
    fn probe_round_trips_over_a_duplex_pair() {
        let (client, server) = duplex();
        let status = HealthStatus {
            epoch: 9,
            draining: false,
            pool_depth: 2,
            active_sessions: 1,
        };
        let handle = std::thread::spawn(move || {
            let req = server.recv().expect("probe request");
            assert_eq!(req.kind, KIND_HEALTH);
            assert!(req.payload.is_empty(), "the request carries nothing");
            server.send(status.reply()).expect("reply");
        });
        let got = probe_health(&client, Duration::from_secs(1)).expect("probe");
        assert_eq!(got, status);
        handle.join().expect("server thread");
    }

    #[test]
    fn probe_times_out_against_a_mute_peer() {
        let (client, _mute) = duplex();
        let err = probe_health(&client, Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, TransportError::Timeout);
    }

    #[test]
    fn probe_surfaces_a_busy_shed_with_its_hint() {
        let (client, server) = duplex();
        server
            .send(crate::driver::busy_frame(Some(Duration::from_millis(80))))
            .unwrap();
        let err = probe_health(&client, Duration::from_secs(1)).unwrap_err();
        assert_eq!(
            err,
            TransportError::Busy {
                retry_after_ms: Some(80)
            }
        );
    }

    #[test]
    fn malformed_reply_is_a_decode_error_not_a_panic() {
        let (client, server) = duplex();
        server
            .send(Frame {
                kind: KIND_HEALTH,
                payload: Bytes::copy_from_slice(&[1, 2, 3]),
            })
            .unwrap();
        let err = probe_health(&client, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, TransportError::Decode(_)), "got {err:?}");
    }
}
