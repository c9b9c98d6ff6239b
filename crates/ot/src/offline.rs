//! Offline/online phase split for the OT engines.
//!
//! All the input-independent work of a Naor–Pinkas sender is its
//! commitment: `C = g^c`, `g^r` and `C^r`, three fixed-base powers in
//! the MODP group, drawn once per batch and transmitted before any
//! transfer. The constants of a [`kn`](crate::kn) transfer are powers of
//! that `C`, whatever its `N`, so nothing else can be prepared before
//! the receiver's keys arrive.
//! [`OtOfflineCommitment::precompute`] pays the commitment ahead of time
//! (e.g. from a server's idle loop) and [`ot_begin_send_precomputed_io`]
//! replays the result onto a live session — the wire format is identical
//! to the monolithic [`ot_begin_send_io`](crate::ot_begin_send_io) path,
//! so the receiver cannot tell the difference. The commitment's secret
//! `r` must serve one session only: consume each value once.
//!
//! Every piece of offline material is tagged with a configuration
//! fingerprint ([`select_fingerprint`]): material precomputed under one
//! engine/group (say the 768-bit test group) is refused with
//! [`OtError::ConfigMismatch`] when a session under another
//! configuration (say the security-grade 2048-bit group) tries to
//! consume it.

use ppcs_crypto::DhGroup;
use ppcs_telemetry::Phase;
use ppcs_transport::FrameIo;
use rand::RngCore;

use crate::api::{OtBatchState, OtSelect};
use crate::base::SenderCommitment;
use crate::error::OtError;

/// A stable 64-bit fingerprint of an OT engine configuration: the engine
/// kind in the high half, the group identity in the low half. Used to
/// bind precomputed material to the configuration that produced it.
pub fn select_fingerprint(sel: OtSelect) -> u64 {
    fn group_tag(group: &'static DhGroup) -> u64 {
        if core::ptr::eq(group, DhGroup::modp_2048()) {
            2048
        } else if core::ptr::eq(group, DhGroup::modp_768()) {
            768
        } else {
            1
        }
    }
    match sel {
        OtSelect::NaorPinkas { group } => (1 << 32) | group_tag(group),
        OtSelect::Iknp { group } => (2 << 32) | group_tag(group),
        OtSelect::TrustedSim => 3 << 32,
    }
}

/// Input-independent sender-side base-phase material for one OT batch,
/// produced off the critical path by [`precompute`](Self::precompute).
///
/// For [`OtSelect::NaorPinkas`] this holds the whole sender commitment
/// (`C`, `g^r`, `r`, `C^r`: every exponentiation that does not wait for
/// the receiver's keys already paid); the extension and simulator
/// engines have no sender base phase, so their material is
/// fingerprint-only and consuming it is free.
#[derive(Clone, Debug)]
pub struct OtOfflineCommitment {
    fingerprint: u64,
    commitment: Option<SenderCommitment>,
}

impl OtOfflineCommitment {
    /// Performs the input-independent sender base-phase work for `sel`.
    pub fn precompute(sel: OtSelect, rng: &mut dyn RngCore) -> Self {
        let commitment = match sel {
            OtSelect::NaorPinkas { group } => {
                let _span = ppcs_telemetry::span(Phase::Precompute);
                Some(SenderCommitment::draw(group, rng))
            }
            OtSelect::Iknp { .. } | OtSelect::TrustedSim => None,
        };
        Self {
            fingerprint: select_fingerprint(sel),
            commitment,
        }
    }

    /// The configuration fingerprint this material was produced under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Online half of the sender base phase over precomputed material:
/// transmits the stored commitment instead of exponentiating inline.
/// Byte-identical on the wire to `ot_begin_send_io` with the same draws.
///
/// # Errors
///
/// [`OtError::ConfigMismatch`] when `offline` was produced under a
/// different engine/group than `sel`; transport failures otherwise.
pub fn ot_begin_send_precomputed_io(
    sel: OtSelect,
    io: &FrameIo,
    offline: &OtOfflineCommitment,
) -> Result<OtBatchState, OtError> {
    let expected = select_fingerprint(sel);
    if offline.fingerprint != expected {
        return Err(OtError::ConfigMismatch {
            expected,
            actual: offline.fingerprint,
        });
    }
    match (sel, &offline.commitment) {
        (OtSelect::NaorPinkas { group }, Some(commitment)) => {
            let _span = ppcs_telemetry::span(Phase::BaseOt);
            commitment.transmit(group, io)?;
            Ok(OtBatchState::sender(commitment.clone()))
        }
        // A Naor–Pinkas fingerprint always carries a commitment, so the
        // remaining arms are the base-phase-free engines.
        _ => Ok(OtBatchState::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{
        ot_begin_receive_io, ot_begin_send_io, ot_receive_io, ot_send_io, NaorPinkasOt,
        TrustedSimOt,
    };
    use crate::knx::IknpOt;
    use crate::ObliviousTransfer;
    use ppcs_transport::{run_engine_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fingerprints_separate_engines_and_groups() {
        let fps = [
            select_fingerprint(NaorPinkasOt::new().select()),
            select_fingerprint(NaorPinkasOt::fast_insecure().select()),
            select_fingerprint(IknpOt::new().select()),
            select_fingerprint(IknpOt::fast_insecure().select()),
            select_fingerprint(TrustedSimOt::new().select()),
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn precomputed_commitment_matches_monolithic_transfers() {
        // Drawn from one RNG stream, the offline commitment and the
        // inline one put the same bytes on the wire, frame for frame.
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i.wrapping_mul(3); 6]).collect();
        let indices = [5usize, 2, 7];
        for sel in [
            NaorPinkasOt::fast_insecure().select(),
            IknpOt::fast_insecure().select(),
            TrustedSimOt::new().select(),
        ] {
            let run = |precomputed: bool| {
                let (msgs, indices) = (&msgs, &indices);
                let mut rng_s = StdRng::seed_from_u64(21);
                let mut rng_r = StdRng::seed_from_u64(22);
                let mut sender = ProtocolEngine::new(|io| async move {
                    let state = if precomputed {
                        let offline = OtOfflineCommitment::precompute(sel, &mut rng_s);
                        ot_begin_send_precomputed_io(sel, &io, &offline)?
                    } else {
                        ot_begin_send_io(sel, &io, &mut rng_s).await?
                    };
                    ot_send_io(sel, &state, &io, &mut rng_s, msgs, 3).await
                });
                let mut receiver = ProtocolEngine::new(|io| async move {
                    let state = ot_begin_receive_io(sel, &io).await?;
                    ot_receive_io(sel, &state, &io, &mut rng_r, 8, indices).await
                });
                let mut sent = Vec::new();
                while !(sender.is_done() && receiver.is_done()) {
                    while let Some(out) = sender.poll_output() {
                        for f in out.frames() {
                            sent.push(f.clone());
                            receiver.handle_input(f.clone());
                        }
                    }
                    while let Some(out) = receiver.poll_output() {
                        out.frames()
                            .iter()
                            .for_each(|f| sender.handle_input(f.clone()));
                    }
                }
                sender.take_result().expect("done").expect("send ok");
                (
                    sent,
                    receiver.take_result().expect("done").expect("receive ok"),
                )
            };
            let (monolithic_frames, monolithic) = run(false);
            let (offline_frames, offline) = run(true);
            let want: Vec<Vec<u8>> = indices.iter().map(|&i| msgs[i].clone()).collect();
            assert_eq!(monolithic, want, "engine {sel:?}");
            assert_eq!(offline, want, "engine {sel:?}");
            assert_eq!(offline_frames, monolithic_frames, "engine {sel:?}");
        }
    }

    #[test]
    fn cross_config_consumption_is_refused() {
        let mut rng = StdRng::seed_from_u64(5);
        let offline =
            OtOfflineCommitment::precompute(NaorPinkasOt::fast_insecure().select(), &mut rng);
        let secure = NaorPinkasOt::new().select();
        let mut sender = ProtocolEngine::new(|io| async move {
            ot_begin_send_precomputed_io(secure, &io, &offline).map(|_| ())
        });
        let mut idle = ProtocolEngine::new(|_io| async move { Ok::<(), OtError>(()) });
        let (sent, _) = run_engine_pair(&mut sender, &mut idle).expect("pump");
        assert!(matches!(sent.unwrap_err(), OtError::ConfigMismatch { .. }));
    }
}
