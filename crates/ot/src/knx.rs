//! k-out-of-N oblivious transfer over the IKNP extension, by the classic
//! Naor–Pinkas reduction of 1-out-of-N to 1-out-of-2: per query the
//! sender draws `⌈log₂ N⌉` key pairs, encrypts message `i` under the keys
//! the bits of `i` select and publishes all `N` ciphertexts, and one
//! 1-out-of-2 transfer per bit position gives the receiver exactly the
//! keys of its index `σ` — hence only `c_σ`. Every query has fresh keys
//! and fresh ciphertexts (shared ones would let the receiver combine
//! keys of different queries to open unchosen messages). All
//! `k·⌈log₂N⌉` 1-out-of-2 transfers run in a single extension batch
//! costing `κ = 128` public-key operations in total, which is what makes
//! the reduction pay here; over public-key transfers [`kn`](crate::kn)
//! needs one per opened position instead. A list of transfers puts the
//! key pairs of all its queries through that one batch, numbers its
//! queries on across the list and sends one table per query, as a single
//! transfer does.

use ppcs_crypto::{ChaCha20, DhGroup, Sha256};
use ppcs_transport::FrameIo;
use rand::RngCore;

use crate::api::{ObliviousTransfer, OtSelect};
use crate::error::{check_indices, read_u64_le, OtError};
use crate::ext::{iknp_receive_io, iknp_send_io};

const KIND_KNX_TABLE: u16 = 0x0290;

fn num_bits(n: usize) -> usize {
    debug_assert!(n >= 1);
    (usize::BITS - (n - 1).max(1).leading_zeros()) as usize
}

/// Derives the per-message pad key from the bit keys selected by `index`.
fn message_key(bit_keys: &[[u8; 32]], index: usize, query: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ppcs-ot1n-pad");
    h.update(&query.to_le_bytes());
    h.update(&(index as u64).to_le_bytes());
    for k in bit_keys {
        h.update(k);
    }
    h.finalize()
}

fn encrypt_message(key: &[u8; 32], index: usize, data: &mut [u8]) {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&(index as u64).to_le_bytes());
    ChaCha20::new(key, &nonce, 0).apply(data);
}

/// Checks a peer's `count ‖ length ‖ ciphertexts` table against the
/// agreed message count and returns the length of one ciphertext. Both
/// header fields are the peer's, so the size they imply is computed
/// without overflow.
fn table_msg_len(blob: &[u8], num_messages: usize) -> Result<usize, OtError> {
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

/// k-out-of-N OT engine backed by the IKNP extension.
///
/// Amortizes the public-key cost across the whole selection: one batch
/// of `κ` base OTs regardless of `k` and `N`. The engine of choice when
/// a session transfers many positions (large decoy factors or large
/// masking degrees).
///
/// # Examples
///
/// ```
/// use ppcs_ot::{ot_receive_io, ot_send_io, IknpOt, ObliviousTransfer, OtBatchState};
/// use ppcs_transport::{run_engine_pair, ProtocolEngine};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let sel = IknpOt::fast_insecure().select();
/// let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 8]).collect();
/// let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
/// let (no_batch, sent) = (OtBatchState::default(), &msgs);
/// let mut sender = ProtocolEngine::new(|io| async move {
///     ot_send_io(sel, &no_batch, &io, &mut rng_s, sent, 2).await
/// });
/// let mut receiver = ProtocolEngine::new(|io| async move {
///     ot_receive_io(sel, &OtBatchState::default(), &io, &mut rng_r, 16, &[3, 9]).await
/// });
/// let (send, got) = run_engine_pair(&mut sender, &mut receiver).unwrap();
/// send.unwrap();
/// assert_eq!(got.unwrap(), vec![msgs[3].clone(), msgs[9].clone()]);
/// ```
#[derive(Clone, Debug)]
pub struct IknpOt {
    group: &'static DhGroup,
}

impl IknpOt {
    /// Security-grade engine (2048-bit base OTs).
    pub fn new() -> Self {
        Self {
            group: DhGroup::modp_2048(),
        }
    }

    /// Fast engine over the 768-bit test group — tests and benches only.
    pub fn fast_insecure() -> Self {
        Self {
            group: DhGroup::modp_768(),
        }
    }
}

impl Default for IknpOt {
    fn default() -> Self {
        Self::new()
    }
}

/// Sans-I/O sender role of a list of extension-backed k-out-of-N
/// transfers, each given as its `N` messages and its `k`.
///
/// # Errors
///
/// [`OtError::UnequalMessageLengths`], zero-message transfers, plus
/// transport/protocol failures.
pub(crate) async fn knx_send_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    transfers: &[(&[Vec<u8>], usize)],
) -> Result<(), OtError> {
    for (messages, _) in transfers {
        let first = messages
            .first()
            .ok_or_else(|| OtError::Protocol("cannot transfer zero messages".into()))?;
        if messages.iter().any(|m| m.len() != first.len()) {
            return Err(OtError::UnequalMessageLengths);
        }
    }

    // Fresh 32-byte key pairs for every (query, bit) slot of every
    // transfer, shipped through one extension batch.
    let mut pairs = Vec::new();
    let mut key_table = Vec::new();
    for &(messages, k) in transfers {
        let bits = num_bits(messages.len());
        for _query in 0..k {
            let mut per_query = Vec::with_capacity(bits);
            for _bit in 0..bits {
                let mut k0 = [0u8; 32];
                let mut k1 = [0u8; 32];
                rng.fill_bytes(&mut k0);
                rng.fill_bytes(&mut k1);
                pairs.push((k0.to_vec(), k1.to_vec()));
                per_query.push((k0, k1));
            }
            key_table.push((messages, per_query));
        }
    }
    iknp_send_io(group, io, rng, &pairs).await?;

    // Per-query encrypted message tables.
    for (query, (messages, per_query)) in key_table.iter().enumerate() {
        let (n, msg_len) = (messages.len(), messages[0].len());
        let mut blob = Vec::with_capacity(16 + n * msg_len);
        blob.extend_from_slice(&(n as u64).to_le_bytes());
        blob.extend_from_slice(&(msg_len as u64).to_le_bytes());
        for (i, msg) in messages.iter().enumerate() {
            let selected: Vec<[u8; 32]> = per_query
                .iter()
                .enumerate()
                .map(|(b, (k0, k1))| if (i >> b) & 1 == 0 { *k0 } else { *k1 })
                .collect();
            let key = message_key(&selected, i, query as u64);
            let mut c = msg.clone();
            encrypt_message(&key, i, &mut c);
            blob.extend_from_slice(&c);
        }
        io.send_msg(KIND_KNX_TABLE, &blob)?;
    }
    Ok(())
}

/// Sans-I/O receiver role of a list of extension-backed k-out-of-N
/// transfers, each given as its `N` and the indices it opens; returns the
/// opened messages of every transfer, in list order.
///
/// # Errors
///
/// [`OtError::InvalidIndex`] on out-of-range indices, plus
/// transport/protocol failures.
pub(crate) async fn knx_receive_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    transfers: &[(usize, &[usize])],
) -> Result<Vec<Vec<u8>>, OtError> {
    let mut queries = Vec::new();
    for &(num_messages, indices) in transfers {
        check_indices(indices, num_messages)?;
        let bits = num_bits(num_messages);
        queries.extend(indices.iter().map(|&index| (num_messages, bits, index)));
    }
    let choices: Vec<bool> = queries
        .iter()
        .flat_map(|&(_, bits, index)| (0..bits).map(move |b| (index >> b) & 1 == 1))
        .collect();
    let keys_flat = iknp_receive_io(group, io, rng, &choices).await?;

    let mut out = Vec::with_capacity(queries.len());
    let mut bit_keys = keys_flat.iter();
    for (query, &(num_messages, bits, index)) in queries.iter().enumerate() {
        let blob: Vec<u8> = io.recv_msg(KIND_KNX_TABLE).await?;
        let msg_len = table_msg_len(&blob, num_messages)?;
        let keys = bit_keys
            .by_ref()
            .take(bits)
            .map(|key| <[u8; 32]>::try_from(key.as_slice()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| OtError::Protocol("bit key has wrong length".into()))?;
        let key = message_key(&keys, index, query as u64);
        let mut m = blob[16 + index * msg_len..16 + (index + 1) * msg_len].to_vec();
        encrypt_message(&key, index, &mut m);
        out.push(m);
    }
    Ok(out)
}

impl ObliviousTransfer for IknpOt {
    fn name(&self) -> &'static str {
        if core::ptr::eq(self.group, DhGroup::modp_2048()) {
            "iknp-2048"
        } else {
            "iknp-768"
        }
    }

    fn select(&self) -> OtSelect {
        OtSelect::Iknp { group: self.group }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ot_receive_io, ot_send_io, OtBatchState};
    use crate::error::Transfer;
    use ppcs_transport::{run_engine_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One transfer through `ot`'s dispatch path, engines pumped against
    /// each other: the sender offers `msgs` with `k = indices.len()`, the
    /// receiver opens `indices` of `n`.
    fn transfer(
        ot: &dyn ObliviousTransfer,
        msgs: &[Vec<u8>],
        n: usize,
        indices: &[usize],
    ) -> Transfer {
        let (sel, no_batch) = (ot.select(), &OtBatchState::default());
        let mut rng_s = StdRng::seed_from_u64(5);
        let mut rng_r = StdRng::seed_from_u64(6);
        let mut sender = ProtocolEngine::new(|io| async move {
            ot_send_io(sel, no_batch, &io, &mut rng_s, msgs, indices.len()).await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            ot_receive_io(sel, no_batch, &io, &mut rng_r, n, indices).await
        });
        run_engine_pair(&mut sender, &mut receiver).expect("no deadlock")
    }

    fn exercise(n: usize, indices: Vec<usize>) {
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![(i * 13) as u8; 24]).collect();
        let (send, got) = transfer(&IknpOt::fast_insecure(), &msgs, n, &indices);
        send.expect("send");
        let got = got.expect("receive");
        for (g, &i) in got.iter().zip(&indices) {
            assert_eq!(g, &msgs[i], "index {i}");
        }
    }

    #[test]
    fn small_selection() {
        exercise(8, vec![0, 7, 3]);
    }

    #[test]
    fn larger_selection_with_repeats() {
        exercise(33, vec![32, 0, 16, 16, 5, 21, 9]);
    }

    #[test]
    fn single_message_universe() {
        exercise(1, vec![0, 0]);
    }

    #[test]
    fn rejects_out_of_range() {
        let msgs = vec![vec![0u8; 4]; 4];
        let (_, res) = transfer(&IknpOt::fast_insecure(), &msgs, 4, &[4]);
        assert_eq!(
            res.unwrap_err(),
            OtError::InvalidIndex {
                index: 4,
                num_messages: 4
            }
        );
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

    #[test]
    fn agrees_with_plain_naor_pinkas_engine() {
        // Both engines implement the same ideal functionality.
        use crate::api::NaorPinkasOt;
        let msgs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 8]).collect();
        let indices = [9usize, 2, 2, 0];
        let engines: [&dyn ObliviousTransfer; 2] =
            [&IknpOt::fast_insecure(), &NaorPinkasOt::fast_insecure()];
        for engine in engines {
            let (send, got) = transfer(engine, &msgs, 10, &indices);
            send.expect("send");
            let got = got.expect("receive");
            for (g, &i) in got.iter().zip(&indices) {
                assert_eq!(g, &msgs[i], "{}", engine.name());
            }
        }
    }
}
