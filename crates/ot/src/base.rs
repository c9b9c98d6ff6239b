//! The base 1-out-of-2 oblivious transfer (Naor–Pinkas / Bellare–Micali
//! style) over a Diffie–Hellman group.
//!
//! Protocol (honest-but-curious):
//!
//! 1. Sender draws a group element `C = g^c` whose discrete log the
//!    receiver does not know, and sends `C`.
//! 2. Receiver with choice bit `b` draws `x`, sets `PK_b = g^x` and
//!    `PK_{1-b} = C / PK_b`, and sends `PK_0`. The receiver can know the
//!    discrete log of at most one of the two keys.
//! 3. Sender recovers `PK_1 = C / PK_0`, draws `r`, and sends
//!    `g^r, E_0 = m_0 ⊕ KDF(PK_0^r), E_1 = m_1 ⊕ KDF(PK_1^r)`.
//! 4. Receiver computes `(g^r)^x = PK_b^r` and decrypts `E_b`; the other
//!    pad is indistinguishable from random without the discrete log of
//!    `PK_{1-b}`.
//!
//! The role logic lives in the sans-I/O `*_io` functions, which speak to
//! a [`FrameIo`] mailbox and never see a transport; the same-named
//! blocking functions wrap them in a [`ProtocolEngine`] driven over an
//! [`Endpoint`].

use num_bigint::BigUint;
use ppcs_crypto::{ChaCha20, DhGroup};
use ppcs_transport::{drive_blocking, Endpoint, FrameIo, ProtocolEngine};
use rand::RngCore;

use crate::error::OtError;

/// Frame kinds used by the base OT (offset so higher layers can claim
/// their own ranges).
pub(crate) const KIND_OT12_C: u16 = 0x0100;
pub(crate) const KIND_OT12_PK0: u16 = 0x0101;
pub(crate) const KIND_OT12_PAYLOAD: u16 = 0x0102;

fn pad_apply(key: &[u8; 32], tag: u64, data: &mut [u8]) {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&tag.to_le_bytes());
    ChaCha20::new(key, &nonce, 0).apply(data);
}

/// Sender side of a single 1-out-of-2 OT.
///
/// `tag` must be unique per transfer within a session; it domain-separates
/// the derived pads.
///
/// # Errors
///
/// [`OtError::UnequalMessageLengths`] if `m0` and `m1` differ in length,
/// [`OtError::Transport`] / [`OtError::Protocol`] on channel or peer
/// misbehavior.
pub fn ot12_send(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    m0: &[u8],
    m1: &[u8],
    tag: u64,
) -> Result<(), OtError> {
    let mut engine =
        ProtocolEngine::new(|io| async move { ot12_send_io(group, &io, rng, m0, m1, tag).await });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O sender role of a single 1-out-of-2 OT (see [`ot12_send`]).
///
/// # Errors
///
/// Same as [`ot12_send`].
pub async fn ot12_send_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    m0: &[u8],
    m1: &[u8],
    tag: u64,
) -> Result<(), OtError> {
    if m0.len() != m1.len() {
        return Err(OtError::UnequalMessageLengths);
    }
    // Step 1: commit to C.
    let big_c = commit_c_io(group, io, rng)?;
    ot12_send_precommitted_io(group, io, rng, m0, m1, tag, &big_c).await
}

/// Draws the sender's commitment `C = g^c` and transmits it.
///
/// The sender never uses the discrete log `c` — `C` only has to be a
/// group element whose discrete log the receiver does not know — so one
/// commitment can safely serve every transfer of a batch session. This
/// is the base-phase work that batch mode hoists out of the per-transfer
/// loop (one modular exponentiation and one frame per base OT).
///
/// # Errors
///
/// Transport failures from sending the commitment frame.
pub fn commit_c(group: &DhGroup, ep: &Endpoint, rng: &mut dyn RngCore) -> Result<BigUint, OtError> {
    let mut engine = ProtocolEngine::new(|io| async move { commit_c_io(group, &io, rng) });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O sender half of [`commit_c`]: draws `C` and queues the
/// commitment frame. Synchronous because the commitment never waits for
/// the peer.
///
/// # Errors
///
/// Only a driver-injected transport failure.
pub fn commit_c_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
) -> Result<BigUint, OtError> {
    let c_exp = group.random_exponent(rng);
    let big_c = group.power_g(&c_exp);
    io.send_msg(KIND_OT12_C, &group.element_bytes(&big_c))?;
    Ok(big_c)
}

/// Receives the sender's commitment `C` (the receiver half of
/// [`commit_c`]).
///
/// # Errors
///
/// Transport failures, or [`OtError::Protocol`] for an invalid element.
pub fn receive_c(group: &DhGroup, ep: &Endpoint) -> Result<BigUint, OtError> {
    let mut engine = ProtocolEngine::new(|io| async move { receive_c_io(group, &io).await });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O receiver half of [`commit_c`].
///
/// # Errors
///
/// Same as [`receive_c`].
pub async fn receive_c_io(group: &DhGroup, io: &FrameIo) -> Result<BigUint, OtError> {
    let c_bytes: Vec<u8> = io.recv_msg(KIND_OT12_C).await?;
    group
        .element_from_bytes(&c_bytes)
        .ok_or_else(|| OtError::Protocol("sender sent invalid C".into()))
}

/// Sender side of a 1-out-of-2 OT whose commitment `C` was already
/// transmitted (steps 2–3 of the protocol).
///
/// # Errors
///
/// Same as [`ot12_send`].
pub fn ot12_send_precommitted(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    m0: &[u8],
    m1: &[u8],
    tag: u64,
    big_c: &BigUint,
) -> Result<(), OtError> {
    let mut engine = ProtocolEngine::new(|io| async move {
        ot12_send_precommitted_io(group, &io, rng, m0, m1, tag, big_c).await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O sender role of [`ot12_send_precommitted`].
///
/// # Errors
///
/// Same as [`ot12_send`].
pub async fn ot12_send_precommitted_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    m0: &[u8],
    m1: &[u8],
    tag: u64,
    big_c: &BigUint,
) -> Result<(), OtError> {
    if m0.len() != m1.len() {
        return Err(OtError::UnequalMessageLengths);
    }
    // Step 2: receive PK_0, derive PK_1.
    let pk0_bytes: Vec<u8> = io.recv_msg(KIND_OT12_PK0).await?;
    let pk0 = group
        .element_from_bytes(&pk0_bytes)
        .ok_or_else(|| OtError::Protocol("receiver sent invalid PK_0".into()))?;
    let pk1 = group.mul(big_c, &group.inv(&pk0));

    // Step 3: encrypt both messages under ephemeral DH pads.
    let r = group.random_exponent(rng);
    let g_r = group.power_g(&r);
    let k0 = group.derive_key(&group.exp(&pk0, &r), &tag_context(tag, 0));
    let k1 = group.derive_key(&group.exp(&pk1, &r), &tag_context(tag, 1));
    let mut e0 = m0.to_vec();
    let mut e1 = m1.to_vec();
    pad_apply(&k0, tag, &mut e0);
    pad_apply(&k1, tag, &mut e1);

    io.send_msg(KIND_OT12_PAYLOAD, &(group.element_bytes(&g_r), (e0, e1)))?;
    Ok(())
}

/// Receiver side of a single 1-out-of-2 OT; returns `m_choice`.
///
/// # Errors
///
/// [`OtError::Transport`] / [`OtError::Protocol`] on channel or peer
/// misbehavior.
pub fn ot12_receive(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    choice: bool,
    tag: u64,
) -> Result<Vec<u8>, OtError> {
    let mut engine =
        ProtocolEngine::new(
            |io| async move { ot12_receive_io(group, &io, rng, choice, tag).await },
        );
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O receiver role of [`ot12_receive`].
///
/// # Errors
///
/// Same as [`ot12_receive`].
pub async fn ot12_receive_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    choice: bool,
    tag: u64,
) -> Result<Vec<u8>, OtError> {
    // Step 1: receive C.
    let big_c = receive_c_io(group, io).await?;
    ot12_receive_precommitted_io(group, io, rng, choice, tag, &big_c).await
}

/// Receiver side of a 1-out-of-2 OT whose commitment `C` was already
/// received (steps 2–4 of the protocol).
///
/// # Errors
///
/// Same as [`ot12_receive`].
pub fn ot12_receive_precommitted(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    choice: bool,
    tag: u64,
    big_c: &BigUint,
) -> Result<Vec<u8>, OtError> {
    let mut engine = ProtocolEngine::new(|io| async move {
        ot12_receive_precommitted_io(group, &io, rng, choice, tag, big_c).await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O receiver role of [`ot12_receive_precommitted`].
///
/// # Errors
///
/// Same as [`ot12_receive`].
pub async fn ot12_receive_precommitted_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    choice: bool,
    tag: u64,
    big_c: &BigUint,
) -> Result<Vec<u8>, OtError> {
    // Step 2: build the key pair so we know the discrete log of PK_choice
    // only.
    let x = group.random_exponent(rng);
    let pk_choice = group.power_g(&x);
    let pk0 = if choice {
        group.mul(big_c, &group.inv(&pk_choice))
    } else {
        pk_choice.clone()
    };
    io.send_msg(KIND_OT12_PK0, &group.element_bytes(&pk0))?;

    // Step 3/4: decrypt our branch.
    let (g_r_bytes, (e0, e1)): (Vec<u8>, (Vec<u8>, Vec<u8>)) =
        io.recv_msg(KIND_OT12_PAYLOAD).await?;
    let g_r: BigUint = group
        .element_from_bytes(&g_r_bytes)
        .ok_or_else(|| OtError::Protocol("sender sent invalid g^r".into()))?;
    let shared = group.exp(&g_r, &x);
    let key = group.derive_key(&shared, &tag_context(tag, u8::from(choice)));
    let mut m = if choice { e1 } else { e0 };
    pad_apply(&key, tag, &mut m);
    Ok(m)
}

fn tag_context(tag: u64, branch: u8) -> Vec<u8> {
    let mut ctx = Vec::with_capacity(9);
    ctx.extend_from_slice(&tag.to_le_bytes());
    ctx.push(branch);
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_transport::run_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_ot12(m0: &[u8], m1: &[u8], choice: bool) -> Vec<u8> {
        let group = DhGroup::modp_768();
        let (m0, m1) = (m0.to_vec(), m1.to_vec());
        let (_, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                ot12_send(group, &ep, &mut rng, &m0, &m1, 7).unwrap();
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                ot12_receive(group, &ep, &mut rng, choice, 7).unwrap()
            },
        );
        got
    }

    #[test]
    fn receiver_gets_chosen_message() {
        assert_eq!(run_ot12(b"zero!", b"one!!", false), b"zero!");
        assert_eq!(run_ot12(b"zero!", b"one!!", true), b"one!!");
    }

    #[test]
    fn unequal_lengths_rejected() {
        let group = DhGroup::modp_768();
        let (res, _) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                ot12_send(group, &ep, &mut rng, b"a", b"bb", 0)
            },
            move |_ep| {},
        );
        assert_eq!(res, Err(OtError::UnequalMessageLengths));
    }

    #[test]
    fn wrong_branch_key_does_not_decrypt() {
        // A curious receiver re-deriving the pad with the wrong branch
        // context must not recover the other message.
        let m0 = b"secret-zero".to_vec();
        let got = run_ot12(&m0, b"secret-one!", true);
        assert_ne!(got, b"secret-zero");
    }

    #[test]
    fn engine_pair_matches_blocking_path() {
        // The sans-I/O engines, pumped without any transport, produce the
        // same transfer as the blocking wrappers over a duplex channel.
        let group = DhGroup::modp_768();
        let mut rng_s = StdRng::seed_from_u64(1);
        let mut rng_r = StdRng::seed_from_u64(2);
        let mut sender = ProtocolEngine::new(|io| async move {
            ot12_send_io(group, &io, &mut rng_s, b"zero!", b"one!!", 7).await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            ot12_receive_io(group, &io, &mut rng_r, true, 7).await
        });
        let (sent, got) =
            ppcs_transport::run_engine_pair(&mut sender, &mut receiver).expect("no deadlock");
        sent.expect("send");
        assert_eq!(got.expect("receive"), run_ot12(b"zero!", b"one!!", true));
    }
}
