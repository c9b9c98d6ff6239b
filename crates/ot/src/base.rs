//! The 1-out-of-2 oblivious transfer of Naor and Pinkas ("Efficient
//! oblivious transfer protocols", §3) over a Diffie–Hellman group, with
//! the sender's `C`, `r`, `g^r` and `C^r` fixed once per commitment and
//! shared by every transfer under it. It is their Protocol 3.1 at
//! `N = 2`; [`kn`](crate::kn) runs the same protocol for any `N` under
//! the same commitment, and the IKNP extension ([`ext`](crate::ext))
//! takes its `κ` base OTs from here.
//!
//! Protocol (honest-but-curious):
//!
//! 1. Once per commitment, the sender draws `c` and `r`, sends
//!    `C = g^c` and `g^r`, and keeps `r` and `C^r = g^(c·r)`: three comb
//!    powers of `g`, none depending on any input. `c` is a full-length
//!    exponent; `r`, which every transfer raises a peer's element to, is
//!    a [short](DhGroup::random_short_exponent) one. The receiver checks
//!    both elements and builds a comb table over `g^r`.
//! 2. Per transfer, the receiver with choice bit `b` draws a full-length
//!    `x` — `PK_0` is uniform in `⟨g⟩` whatever `b` is only if `g^x` is —
//!    sets `PK_b = g^x` and `PK_{1-b} = C / PK_b`, and sends `PK_0`:
//!    `g^x`, or `C · g^(p−1−x)`, a comb power either way and never an
//!    inversion. It can know the discrete log of at most one of the two
//!    keys.
//! 3. The sender computes `PK_0^r` — its one variable-base power — and
//!    `PK_1^r = C^r / PK_0^r` without ever forming `PK_1`, draws a fresh
//!    string `R`, and sends `R, E_0 = m_0 ⊕ KDF(PK_0^r, tag, 0, R),
//!    E_1 = m_1 ⊕ KDF(PK_1^r, tag, 1, R)`.
//! 4. The receiver computes `(g^r)^x = PK_b^r` on its table and decrypts
//!    `E_b`; the other pad is indistinguishable from random without the
//!    discrete log of `PK_{1-b}` (CDH, random-oracle KDF).
//!
//! `R` is what keeps a shared `r` safe: a receiver that replays one
//! `PK_0` under one `tag` would otherwise see the same two pads twice
//! and learn the XOR of the two unchosen messages.
//!
//! The role logic lives in the sans-I/O `*_io` functions, which speak to
//! a [`FrameIo`] mailbox and never see a transport.

use std::fmt;

use num_bigint::BigUint;
use ppcs_crypto::{ChaCha20, DhGroup, FixedBase};
use ppcs_transport::FrameIo;
use rand::RngCore;

use crate::error::OtError;

/// Frame kinds used by the base OT (offset so higher layers can claim
/// their own ranges).
pub(crate) const KIND_OT12_C: u16 = 0x0100;
pub(crate) const KIND_OT12_PK0: u16 = 0x0101;
pub(crate) const KIND_OT12_PAYLOAD: u16 = 0x0102;

/// Bytes of the fresh string `R` bound into every pad of one answer.
pub(crate) const PAD_NONCE_LEN: usize = 16;

/// The sender's side of one commitment: `C`, `g^r`, and the secrets `r`
/// and `C^r` that live exactly as long as it does.
#[derive(Clone)]
pub struct SenderCommitment {
    big_c: BigUint,
    g_r: BigUint,
    pub(crate) r: BigUint,
    pub(crate) c_r: BigUint,
}

impl SenderCommitment {
    /// Draws `c` and the short `r` and pays the commitment's three comb
    /// powers of `g`; needs no peer, so it can run ahead of the session.
    pub(crate) fn draw(group: &DhGroup, rng: &mut dyn RngCore) -> Self {
        let c = group.random_exponent(rng);
        let r = group.random_short_exponent(rng);
        // g's order divides p − 1 = 2q, so the product may be reduced there.
        let c_times_r = (&c * &r) % (group.order() << 1usize);
        Self {
            big_c: group.power_g(&c),
            g_r: group.power_g(&r),
            c_r: group.power_g(&c_times_r),
            r,
        }
    }

    /// Queues the commitment frame `(C, g^r)`.
    pub(crate) fn transmit(&self, group: &DhGroup, io: &FrameIo) -> Result<(), OtError> {
        let body = (
            group.element_bytes(&self.big_c),
            group.element_bytes(&self.g_r),
        );
        Ok(io.send_msg(KIND_OT12_C, &body)?)
    }
}

impl fmt::Debug for SenderCommitment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // r and C^r are secrets.
        f.debug_struct("SenderCommitment")
            .field("big_c", &self.big_c)
            .finish_non_exhaustive()
    }
}

/// The receiver's side of one commitment: `C` and the comb table of
/// `g^r`, dropped together with it.
#[derive(Clone, Debug)]
pub struct ReceiverCommitment {
    pub(crate) big_c: BigUint,
    pub(crate) g_r: FixedBase,
}

/// A receiver's key pair for slot `σ`: `x`, the discrete log of `PK_σ`,
/// and the `PK_0` to send — `g^x` itself at `σ = 0` (`c_sigma` is
/// `None`), else `C_σ / g^x`, formed as `C_σ · g^(p−1−x)`: a comb power
/// where an inversion was. `x` is a full-length draw, so that `PK_0` is
/// uniform in `⟨g⟩` whatever `σ` is.
pub(crate) fn key_pair(
    group: &DhGroup,
    rng: &mut dyn RngCore,
    c_sigma: Option<&BigUint>,
) -> (BigUint, BigUint) {
    let x = group.random_exponent(rng);
    let pk0 = match c_sigma {
        None => group.power_g(&x),
        Some(c) => group.mul(c, &group.power_g(&((group.order() << 1usize) - &x))),
    };
    (x, pk0)
}

fn pad_apply(key: &[u8; 32], tag: u64, data: &mut [u8]) {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&tag.to_le_bytes());
    ChaCha20::new(key, &nonce, 0).apply(data);
}

/// Sender role of a single 1-out-of-2 OT under a commitment of its own.
///
/// `tag` domain-separates the derived pads.
///
/// # Errors
///
/// [`OtError::UnequalMessageLengths`] if `m0` and `m1` differ in length,
/// [`OtError::Transport`] / [`OtError::Protocol`] on channel or peer
/// misbehavior.
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
    let commitment = commit_c_io(group, io, rng)?;
    ot12_send_precommitted_io(group, io, rng, m0, m1, tag, &commitment).await
}

/// Draws a sender commitment and transmits `(C, g^r)` (step 1): the
/// whole public-key base phase of every transfer that will run under it.
/// Synchronous because the commitment never waits for the peer.
///
/// # Errors
///
/// Only a driver-injected transport failure.
pub fn commit_c_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
) -> Result<SenderCommitment, OtError> {
    let commitment = SenderCommitment::draw(group, rng);
    commitment.transmit(group, io)?;
    Ok(commitment)
}

/// Receives the sender's commitment (the receiver half of
/// [`commit_c_io`]): checks `C` and `g^r` and builds the table every
/// `(g^r)^x` under this commitment is read from.
///
/// # Errors
///
/// Transport failures, or [`OtError::Protocol`] for an invalid element.
pub async fn receive_c_io(group: &DhGroup, io: &FrameIo) -> Result<ReceiverCommitment, OtError> {
    let (c_bytes, g_r_bytes): (Vec<u8>, Vec<u8>) = io.recv_msg(KIND_OT12_C).await?;
    let element = |bytes: &[u8], what: &str| {
        group
            .element_from_bytes(bytes)
            .ok_or_else(|| OtError::Protocol(format!("sender sent invalid {what}")))
    };
    Ok(ReceiverCommitment {
        big_c: element(&c_bytes, "C")?,
        g_r: group.fixed_base(&element(&g_r_bytes, "g^r")?),
    })
}

/// Sender role of a 1-out-of-2 OT under an already transmitted
/// commitment (steps 2–3 of the protocol).
///
/// # Errors
///
/// Same as [`ot12_send_io`].
pub async fn ot12_send_precommitted_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    m0: &[u8],
    m1: &[u8],
    tag: u64,
    commitment: &SenderCommitment,
) -> Result<(), OtError> {
    if m0.len() != m1.len() {
        return Err(OtError::UnequalMessageLengths);
    }
    // Step 2: receive PK_0.
    let pk0_bytes: Vec<u8> = io.recv_msg(KIND_OT12_PK0).await?;
    let pk0 = group
        .element_from_bytes(&pk0_bytes)
        .ok_or_else(|| OtError::Protocol("receiver sent invalid PK_0".into()))?;

    // Step 3: PK_1^r = (C / PK_0)^r = C^r / PK_0^r, then encrypt both
    // messages under pads no other use of this commitment repeats.
    let z0 = group.exp(&pk0, &commitment.r);
    let z1 = group.mul(&commitment.c_r, &group.inv(&z0));
    let mut nonce = vec![0u8; PAD_NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    let k0 = group.derive_key(&z0, &pad_context(tag, 0, &nonce));
    let k1 = group.derive_key(&z1, &pad_context(tag, 1, &nonce));
    let mut e0 = m0.to_vec();
    let mut e1 = m1.to_vec();
    pad_apply(&k0, tag, &mut e0);
    pad_apply(&k1, tag, &mut e1);

    io.send_msg(KIND_OT12_PAYLOAD, &(nonce, (e0, e1)))?;
    Ok(())
}

/// Receiver role of a single 1-out-of-2 OT under a commitment of its
/// own; returns `m_choice`.
///
/// # Errors
///
/// [`OtError::Transport`] / [`OtError::Protocol`] on channel or peer
/// misbehavior.
pub async fn ot12_receive_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    choice: bool,
    tag: u64,
) -> Result<Vec<u8>, OtError> {
    let commitment = receive_c_io(group, io).await?;
    ot12_receive_precommitted_io(group, io, rng, choice, tag, &commitment).await
}

/// Receiver role of a 1-out-of-2 OT under an already received
/// commitment (steps 2–4 of the protocol).
///
/// # Errors
///
/// Same as [`ot12_receive_io`].
pub async fn ot12_receive_precommitted_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    choice: bool,
    tag: u64,
    commitment: &ReceiverCommitment,
) -> Result<Vec<u8>, OtError> {
    // Step 2: build the key pair so we know the discrete log of PK_choice
    // only.
    let (x, pk0) = key_pair(group, rng, choice.then_some(&commitment.big_c));
    io.send_msg(KIND_OT12_PK0, &group.element_bytes(&pk0))?;

    // Step 3/4: decrypt our branch.
    let (nonce, (e0, e1)): (Vec<u8>, (Vec<u8>, Vec<u8>)) = io.recv_msg(KIND_OT12_PAYLOAD).await?;
    if nonce.len() != PAD_NONCE_LEN {
        return Err(OtError::Protocol(
            "sender sent a malformed pad nonce".into(),
        ));
    }
    let shared = group.power(&commitment.g_r, &x);
    let key = group.derive_key(&shared, &pad_context(tag, u8::from(choice), &nonce));
    let mut m = if choice { e1 } else { e0 };
    pad_apply(&key, tag, &mut m);
    Ok(m)
}

fn pad_context(tag: u64, branch: u8, nonce: &[u8]) -> Vec<u8> {
    let mut ctx = Vec::with_capacity(9 + nonce.len());
    ctx.extend_from_slice(&tag.to_le_bytes());
    ctx.push(branch);
    ctx.extend_from_slice(nonce);
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_transport::{drive_blocking, run_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One 1-out-of-2 transfer, each party on its own thread under the
    /// blocking driver over a duplex channel.
    fn run_ot12(m0: &[u8], m1: &[u8], choice: bool) -> Vec<u8> {
        let group = DhGroup::modp_768();
        let (sent, got) = run_pair(
            |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut engine = ProtocolEngine::new(|io| async move {
                    ot12_send_io(group, &io, &mut rng, m0, m1, 7).await
                });
                drive_blocking(&ep, &mut engine)
            },
            |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut engine = ProtocolEngine::new(|io| async move {
                    ot12_receive_io(group, &io, &mut rng, choice, 7).await
                });
                drive_blocking(&ep, &mut engine)
            },
        );
        sent.unwrap();
        got.unwrap()
    }

    #[test]
    fn receiver_gets_chosen_message() {
        assert_eq!(run_ot12(b"zero!", b"one!!", false), b"zero!");
        assert_eq!(run_ot12(b"zero!", b"one!!", true), b"one!!");
    }

    #[test]
    fn unequal_lengths_rejected() {
        // Refused before anything is drawn or sent.
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sender = ProtocolEngine::new(|io| async move {
            ot12_send_io(group, &io, &mut rng, b"a", b"bb", 0).await
        });
        assert!(sender.poll_output().is_none());
        assert_eq!(
            sender.take_result(),
            Some(Err(OtError::UnequalMessageLengths))
        );
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
        // same transfer as the blocking driver over a duplex channel.
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

    #[test]
    fn commitment_identities_hold_on_random_elements() {
        // What the sender's single power per transfer rests on:
        // C^r = (g^r)^c, (C / PK_0)^r = C^r · (PK_0^r)⁻¹ and, for the
        // constants C_i = C^i of `kn`, (C^i)^r = (C^r)^i; and what the
        // receiver's single comb power rests on: C_σ · g^(p−1−x) is the
        // element C_σ / g^x.
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            let mut rng = StdRng::seed_from_u64(31);
            let commitment = SenderCommitment::draw(group, &mut rng);
            let c = group.random_exponent(&mut StdRng::seed_from_u64(31));
            let SenderCommitment { big_c, g_r, r, c_r } = &commitment;
            assert_eq!(big_c, &group.exp(group.generator(), &c));
            assert_eq!(g_r, &group.exp(group.generator(), r));
            assert_eq!(c_r, &group.exp(g_r, &c));
            assert_eq!(c_r, &group.exp(big_c, r));
            for _ in 0..3 {
                let pk0 = group.power_g(&group.random_exponent(&mut rng));
                let pk1 = group.mul(big_c, &group.inv(&pk0));
                let z0 = group.exp(&pk0, r);
                assert_eq!(group.exp(&pk1, r), group.mul(c_r, &group.inv(&z0)));
            }
            let (mut c_i, mut c_r_i) = (big_c.clone(), c_r.clone());
            for i in 1..26 {
                assert_eq!(group.exp(&c_i, r), c_r_i, "i = {i}");
                let (x, pk0) = key_pair(group, &mut rng, Some(&c_i));
                assert_eq!(pk0, group.mul(&c_i, &group.inv(&group.power_g(&x))));
                assert_eq!(group.mul(&pk0, &group.power_g(&x)), c_i);
                (c_i, c_r_i) = (group.mul(&c_i, big_c), group.mul(&c_r_i, c_r));
            }
        }
    }

    #[test]
    fn only_the_senders_r_is_short() {
        // r only has to keep a discrete log hard, so 256 bits serve; c
        // stays a full-length draw (the first of the commitment's two).
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            for seed in 0..64 {
                let drawn = SenderCommitment::draw(group, &mut StdRng::seed_from_u64(seed));
                assert!(drawn.r.bits() <= 256 && drawn.r > BigUint::from(1u32));
                let c = group.random_exponent(&mut StdRng::seed_from_u64(seed));
                assert_eq!(drawn.big_c, group.power_g(&c), "seed {seed}");
            }
        }
    }

    #[test]
    fn replayed_pk0_under_one_commitment_gets_fresh_pads() {
        // One r serves every transfer of a commitment, so a receiver may
        // answer two transfers of one tag with one PK_0. Were the pads a
        // function of (PK_0, r, tag) alone, E_1 ⊕ E_1' would be m_1 ⊕ m_1'.
        use ppcs_transport::Frame;
        let group = DhGroup::modp_768();
        let (m1, m1_next) = (*b"unchosen message one", *b"unchosen message two");
        let mut rng = StdRng::seed_from_u64(41);
        let mut sender = ProtocolEngine::new(|io| async move {
            let commitment = commit_c_io(group, &io, &mut rng)?;
            ot12_send_precommitted_io(group, &io, &mut rng, &[0; 20], &m1, 7, &commitment).await?;
            ot12_send_precommitted_io(group, &io, &mut rng, &[0; 20], &m1_next, 7, &commitment)
                .await
        });
        let pk0 = group.element_bytes(&group.power_g(&BigUint::from(12345u32)));
        let mut unchosen = Vec::new();
        loop {
            while let Some(out) = sender.poll_output() {
                for frame in out.frames().iter().filter(|f| f.kind == KIND_OT12_PAYLOAD) {
                    let (_, (_, e1)): (Vec<u8>, (Vec<u8>, Vec<u8>)) =
                        frame.decode_as(KIND_OT12_PAYLOAD).expect("payload");
                    unchosen.push(e1);
                }
            }
            if sender.is_done() {
                break;
            }
            sender.handle_input(Frame::encode(KIND_OT12_PK0, &pk0));
        }
        sender
            .take_result()
            .expect("done")
            .expect("both transfers sent");
        let xor = |a: &[u8], b: &[u8]| a.iter().zip(b).map(|(x, y)| x ^ y).collect::<Vec<u8>>();
        assert_eq!(unchosen.len(), 2);
        assert_ne!(xor(&unchosen[0], &unchosen[1]), xor(&m1, &m1_next));
    }
}
