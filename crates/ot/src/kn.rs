//! 1-out-of-N and k-out-of-N oblivious transfer.
//!
//! 1-out-of-N follows the classic Naor–Pinkas reduction: the sender draws
//! `⌈log₂ N⌉` key pairs, encrypts message `i` under the keys selected by
//! the bits of `i`, publishes all `N` ciphertexts, and runs one base
//! 1-out-of-2 OT per bit position so the receiver learns exactly the keys
//! for its index `σ` — hence can open only `c_σ`.
//!
//! k-out-of-N runs `k` independent 1-out-of-N queries with fresh key
//! material and fresh ciphertexts per query (reusing ciphertexts across
//! queries would let the receiver combine keys from different queries to
//! open unchosen messages). This matches the paper's use: the OMPE
//! receiver opens its `m` cover positions among the `M` submitted points.
//!
//! Every base OT of a transfer runs under one
//! [commitment](crate::base::commit_c): the `*_io` functions — the
//! sans-I/O role logic, as in [`base`](crate::base) — take it from the
//! caller, and the blocking functions open one for the transfer and
//! drive them over an `Endpoint`.

use ppcs_crypto::{ChaCha20, DhGroup, Sha256};
use ppcs_transport::{drive_blocking, Endpoint, FrameIo, ProtocolEngine};
use rand::RngCore;

use crate::base::{
    commit_c_io, ot12_receive_precommitted_io, ot12_send_precommitted_io, receive_c_io,
    ReceiverCommitment, SenderCommitment,
};
use crate::error::{read_u64_le, OtError};

pub(crate) const KIND_OT1N_CIPHERTEXTS: u16 = 0x0200;

pub(crate) fn num_bits(n: usize) -> usize {
    debug_assert!(n >= 1);
    (usize::BITS - (n - 1).max(1).leading_zeros()) as usize
}

/// Derives the per-message pad key from the bit keys selected by `index`.
pub(crate) fn message_key(bit_keys: &[[u8; 32]], index: usize, query: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ppcs-ot1n-pad");
    h.update(&query.to_le_bytes());
    h.update(&(index as u64).to_le_bytes());
    for k in bit_keys {
        h.update(k);
    }
    h.finalize()
}

pub(crate) fn encrypt_message(key: &[u8; 32], index: usize, data: &mut [u8]) {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&(index as u64).to_le_bytes());
    ChaCha20::new(key, &nonce, 0).apply(data);
}

fn check_index(index: usize, num_messages: usize) -> Result<(), OtError> {
    if index >= num_messages {
        return Err(OtError::InvalidIndex {
            index,
            num_messages,
        });
    }
    Ok(())
}

/// Checks a peer's `count ‖ length ‖ ciphertexts` table against the
/// agreed message count and returns the length of one ciphertext. Both
/// header fields are the peer's, so the size they imply is computed
/// without overflow.
pub(crate) fn table_msg_len(blob: &[u8], num_messages: usize) -> Result<usize, OtError> {
    if blob.len() < 16 {
        return Err(OtError::Protocol("ciphertext table too short".into()));
    }
    let n = read_u64_le(blob, 0, "ciphertext count")?;
    let msg_len = read_u64_le(blob, 8, "ciphertext length")?;
    if n != num_messages {
        return Err(OtError::Protocol(format!(
            "sender transferred {n} messages, receiver expected {num_messages}"
        )));
    }
    let implied = n.checked_mul(msg_len).and_then(|body| body.checked_add(16));
    if implied != Some(blob.len()) {
        return Err(OtError::Protocol("ciphertext table length mismatch".into()));
    }
    Ok(msg_len)
}

/// Sender side of one 1-out-of-N query under a commitment of its own.
///
/// `query` numbers the query within a transfer (domain separation of
/// the message pads and the base-OT tags).
///
/// # Errors
///
/// [`OtError::UnequalMessageLengths`] if messages differ in length, plus
/// transport/protocol failures.
pub fn ot1n_send(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    messages: &[Vec<u8>],
    query: u64,
) -> Result<(), OtError> {
    let mut engine = ProtocolEngine::new(|io| async move {
        let commitment = commit_c_io(group, &io, rng)?;
        ot1n_send_io(group, &io, rng, messages, query, &commitment).await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O sender role of one 1-out-of-N query whose base OTs run under
/// `commitment`.
///
/// # Errors
///
/// Same as [`ot1n_send`].
pub async fn ot1n_send_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    messages: &[Vec<u8>],
    query: u64,
    commitment: &SenderCommitment,
) -> Result<(), OtError> {
    let n = messages.len();
    if n == 0 {
        return Err(OtError::Protocol("cannot transfer zero messages".into()));
    }
    let msg_len = messages[0].len();
    if messages.iter().any(|m| m.len() != msg_len) {
        return Err(OtError::UnequalMessageLengths);
    }
    let bits = num_bits(n);

    // Fresh key pairs for each bit position.
    let mut key_pairs = Vec::with_capacity(bits);
    for _ in 0..bits {
        let mut k0 = [0u8; 32];
        let mut k1 = [0u8; 32];
        rng.fill_bytes(&mut k0);
        rng.fill_bytes(&mut k1);
        key_pairs.push((k0, k1));
    }

    // Encrypt every message under the keys its index bits select.
    let mut blob = Vec::with_capacity(n * msg_len + 16);
    blob.extend_from_slice(&(n as u64).to_le_bytes());
    blob.extend_from_slice(&(msg_len as u64).to_le_bytes());
    for (i, m) in messages.iter().enumerate() {
        let selected: Vec<[u8; 32]> = (0..bits)
            .map(|b| {
                if (i >> b) & 1 == 0 {
                    key_pairs[b].0
                } else {
                    key_pairs[b].1
                }
            })
            .collect();
        let key = message_key(&selected, i, query);
        let at = blob.len();
        blob.extend_from_slice(m);
        encrypt_message(&key, i, &mut blob[at..]);
    }
    io.send_msg(KIND_OT1N_CIPHERTEXTS, &blob)?;

    // One base OT per bit position.
    for (b, (k0, k1)) in key_pairs.iter().enumerate() {
        let tag = query.wrapping_mul(1 << 16).wrapping_add(b as u64);
        ot12_send_precommitted_io(group, io, rng, k0, k1, tag, commitment).await?;
    }
    Ok(())
}

/// Receiver side of one 1-out-of-N query; returns `m_index`.
///
/// # Errors
///
/// [`OtError::InvalidIndex`] if `index >= num_messages`, plus
/// transport/protocol failures.
pub fn ot1n_receive(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    num_messages: usize,
    index: usize,
    query: u64,
) -> Result<Vec<u8>, OtError> {
    check_index(index, num_messages)?;
    let mut engine = ProtocolEngine::new(|io| async move {
        let commitment = receive_c_io(group, &io).await?;
        ot1n_receive_io(group, &io, rng, num_messages, index, query, &commitment).await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O receiver role of one 1-out-of-N query whose base OTs run
/// under `commitment`.
///
/// # Errors
///
/// Same as [`ot1n_receive`].
pub async fn ot1n_receive_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    num_messages: usize,
    index: usize,
    query: u64,
    commitment: &ReceiverCommitment,
) -> Result<Vec<u8>, OtError> {
    check_index(index, num_messages)?;
    let blob: Vec<u8> = io.recv_msg(KIND_OT1N_CIPHERTEXTS).await?;
    let msg_len = table_msg_len(&blob, num_messages)?;

    let bits = num_bits(num_messages);
    let mut keys = Vec::with_capacity(bits);
    for b in 0..bits {
        let tag = query.wrapping_mul(1 << 16).wrapping_add(b as u64);
        let choice = (index >> b) & 1 == 1;
        let key: [u8; 32] = ot12_receive_precommitted_io(group, io, rng, choice, tag, commitment)
            .await?
            .try_into()
            .map_err(|_| OtError::Protocol("bit key has wrong length".into()))?;
        keys.push(key);
    }

    let key = message_key(&keys, index, query);
    let mut m = blob[16 + index * msg_len..16 + (index + 1) * msg_len].to_vec();
    encrypt_message(&key, index, &mut m);
    Ok(m)
}

/// Sender side of a k-out-of-N transfer (k fresh 1-out-of-N queries)
/// under a commitment of its own.
///
/// # Errors
///
/// Propagates the per-query errors of [`ot1n_send`].
pub fn otkn_send(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    messages: &[Vec<u8>],
    k: usize,
) -> Result<(), OtError> {
    let mut engine = ProtocolEngine::new(|io| async move {
        let commitment = commit_c_io(group, &io, rng)?;
        otkn_send_io(group, &io, rng, messages, k, &commitment).await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O sender role of a k-out-of-N transfer whose base OTs all run
/// under `commitment`.
///
/// # Errors
///
/// Propagates the per-query errors of [`ot1n_send`].
pub async fn otkn_send_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    messages: &[Vec<u8>],
    k: usize,
    commitment: &SenderCommitment,
) -> Result<(), OtError> {
    for query in 0..k {
        ot1n_send_io(group, io, rng, messages, query as u64, commitment).await?;
    }
    Ok(())
}

/// Receiver side of a k-out-of-N transfer; returns the messages at
/// `indices`, in order.
///
/// # Errors
///
/// Propagates the per-query errors of [`ot1n_receive`].
pub fn otkn_receive(
    group: &DhGroup,
    ep: &Endpoint,
    rng: &mut dyn RngCore,
    num_messages: usize,
    indices: &[usize],
) -> Result<Vec<Vec<u8>>, OtError> {
    let mut engine = ProtocolEngine::new(|io| async move {
        let commitment = receive_c_io(group, &io).await?;
        otkn_receive_io(group, &io, rng, num_messages, indices, &commitment).await
    });
    drive_blocking(ep, &mut engine)
}

/// Sans-I/O receiver role of a k-out-of-N transfer whose base OTs all
/// run under `commitment`.
///
/// # Errors
///
/// Propagates the per-query errors of [`ot1n_receive`].
pub async fn otkn_receive_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    num_messages: usize,
    indices: &[usize],
    commitment: &ReceiverCommitment,
) -> Result<Vec<Vec<u8>>, OtError> {
    let mut out = Vec::with_capacity(indices.len());
    for (query, &index) in indices.iter().enumerate() {
        let m = ot1n_receive_io(
            group,
            io,
            rng,
            num_messages,
            index,
            query as u64,
            commitment,
        );
        out.push(m.await?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_transport::run_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn messages(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect()
    }

    #[test]
    fn one_of_n_returns_selected() {
        let group = DhGroup::modp_768();
        for n in [1usize, 2, 3, 7, 16, 33] {
            let msgs = messages(n, 24);
            for index in [0, n / 2, n - 1] {
                let msgs_s = msgs.clone();
                let (_, got) = run_pair(
                    move |ep| {
                        let mut rng = StdRng::seed_from_u64(10);
                        ot1n_send(group, &ep, &mut rng, &msgs_s, 3).unwrap();
                    },
                    move |ep| {
                        let mut rng = StdRng::seed_from_u64(20);
                        ot1n_receive(group, &ep, &mut rng, n, index, 3).unwrap()
                    },
                );
                assert_eq!(got, msgs[index], "n={n}, index={index}");
            }
        }
    }

    #[test]
    fn k_of_n_returns_all_selected_in_order() {
        let group = DhGroup::modp_768();
        let n = 12;
        let msgs = messages(n, 16);
        let indices = vec![11usize, 0, 5, 5, 2];
        let msgs_s = msgs.clone();
        let idx = indices.clone();
        let (_, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                otkn_send(group, &ep, &mut rng, &msgs_s, 5).unwrap();
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                otkn_receive(group, &ep, &mut rng, n, &idx).unwrap()
            },
        );
        for (i, &index) in indices.iter().enumerate() {
            assert_eq!(got[i], msgs[index]);
        }
    }

    #[test]
    fn out_of_range_index_rejected() {
        let group = DhGroup::modp_768();
        let (_, res) = run_pair(
            move |_ep| {},
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                ot1n_receive(group, &ep, &mut rng, 4, 4, 0)
            },
        );
        assert_eq!(
            res.unwrap_err(),
            OtError::InvalidIndex {
                index: 4,
                num_messages: 4
            }
        );
    }

    #[test]
    fn mismatched_count_detected() {
        let group = DhGroup::modp_768();
        let msgs = messages(8, 8);
        let (_, res) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                // Sender believes there are 8 messages...
                let _ = ot1n_send(group, &ep, &mut rng, &msgs, 0);
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                // ...receiver expects 16.
                ot1n_receive(group, &ep, &mut rng, 16, 3, 0)
            },
        );
        assert!(matches!(res.unwrap_err(), OtError::Protocol(_)));
    }

    #[test]
    fn num_bits_is_correct() {
        assert_eq!(num_bits(1), 1);
        assert_eq!(num_bits(2), 1);
        assert_eq!(num_bits(3), 2);
        assert_eq!(num_bits(4), 2);
        assert_eq!(num_bits(5), 3);
        assert_eq!(num_bits(1024), 10);
        assert_eq!(num_bits(1025), 11);
    }
}
