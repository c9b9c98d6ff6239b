//! k-out-of-N oblivious transfer by `k` batched instances of the
//! 1-out-of-N protocol of Naor and Pinkas ("Efficient oblivious transfer
//! protocols", Protocol 3.1), all under one
//! [commitment](crate::base::commit_c_io) `(C, g^r)` and in two frames — one
//! round trip — per transfer (honest-but-curious).
//!
//! The protocol's constants are the powers of the commitment's own `C`,
//! `C_i = C^i` for `i = 1 … N−1`, as in the 1-out-of-n form of Chou and
//! Orlandi's "Simplest OT" (LATINCRYPT 2015): nothing is drawn or sent
//! for them. The sender forms `C_i^r = (C^r)^i` and the receiver `C^σ`
//! by group products.
//!
//! 1. **Keys, R→S.** For each of its `k` indices `σ` the receiver draws a
//!    full-length `x` — `PK_0` is uniform in `⟨g⟩` whatever `σ` is only
//!    if `g^x` is — sets `PK_σ = g^x` and sends `PK_0 = PK_σ` (`σ = 0`) or
//!    `C_σ / PK_σ` (`base::key_pair`). Since `PK_i = C_i / PK_0`, knowing
//!    the discrete logs of two keys `PK_i`, `PK_j` means knowing that of
//!    `C_i / C_j = C^(i−j)`, hence `c` itself, as `0 < |i − j| < N ≪ q`.
//!    The sender checks the count against the agreed `k`.
//! 2. **Tables, S→R.** Per query the sender computes `z_0 = PK_0^r` — its
//!    one variable-base power, `r` being the commitment's short exponent
//!    — and `z_i = PK_i^r = C_i^r / z_0` without ever forming `PK_i`, all
//!    `k` values `z_0` inverted [together](DhGroup::inv_many); it draws a
//!    fresh string `R` and sends `R, E_0 … E_{N−1}` with
//!    `E_i = m_i ⊕ KDF(z_i; query, i, R)`. The receiver reads
//!    `(g^r)^x = z_σ` off the commitment's table and opens `E_σ`; every
//!    other `z_j = z_σ · (C^r)^(j−σ)` determines `C^r`, so its pad is
//!    indistinguishable from random (CDH on `(C, g^r)`, random-oracle
//!    KDF).
//!
//! A *list* of transfers runs in the same two frames: the keys of every
//! transfer, in list order, in one keys frame, and one tables frame that
//! holds, per transfer, its `k ‖ N ‖ length` header and its `k` tables.
//! Query numbers run on across the list, and every `z_0` of the list is
//! inverted in the same batch. A list of one transfer is the transfer
//! above, byte for byte.
//!
//! Everything the sender holds before the keys arrive is the
//! commitment's; per list it pays `N − 2` products for its largest `N`,
//! per query one power. One `r` serves every query of every transfer of
//! a commitment, so a receiver may answer two queries with one `PK_0` and
//! meet the same `z_i` twice: the fresh `R` (and the query number) in the
//! KDF context is what keeps the two pads of a slot apart, where equal
//! pads would give away `m_i ⊕ m_i′`.
//!
//! The reduction of 1-out-of-N to `⌈log₂ N⌉` 1-out-of-2 transfers lives
//! in [`knx`](crate::knx), where those transfers are cheap. The `*_io`
//! functions are the sans-I/O role logic, as in [`base`](crate::base),
//! and take the commitment from the caller.

use num_bigint::BigUint;
use ppcs_crypto::{ChaCha20, DhGroup};
use ppcs_transport::FrameIo;
use rand::RngCore;

use crate::base::{key_pair, ReceiverCommitment, SenderCommitment, PAD_NONCE_LEN};
use crate::error::{check_indices, read_u64_le, OtError};

pub(crate) const KIND_OT1N_KEYS: u16 = 0x0201;
pub(crate) const KIND_OT1N_TABLES: u16 = 0x0202;

/// Bytes of the `k ‖ N ‖ length` header of a tables frame.
const TABLES_HEADER_LEN: usize = 24;

/// `data ⊕ KDF(z; query, index, R)`: encrypts or opens slot `index` of
/// the table answering `query`. The context makes the key single-use,
/// so the stream cipher's nonce is constant.
fn pad(group: &DhGroup, z: &BigUint, query: usize, index: usize, nonce: &[u8], data: &mut [u8]) {
    let mut context = b"ot1n".to_vec();
    context.extend_from_slice(&(query as u64).to_le_bytes());
    context.extend_from_slice(&(index as u64).to_le_bytes());
    context.extend_from_slice(nonce);
    ChaCha20::new(&group.derive_key(z, &context), &[0; 12], 0).apply(data);
}

/// Checks the `k ‖ N ‖ length ‖ tables` section of one transfer at the
/// head of a peer's tables frame against the agreed counts; returns the
/// length of one ciphertext and the section's tables. All three header
/// fields are the peer's, so the size they imply is computed without
/// overflow.
fn tables_section(blob: &[u8], k: usize, num_messages: usize) -> Result<(usize, &[u8]), OtError> {
    let their_k = read_u64_le(blob, 0, "query count")?;
    let their_n = read_u64_le(blob, 8, "ciphertext count")?;
    let msg_len = read_u64_le(blob, 16, "ciphertext length")?;
    if (their_k, their_n) != (k, num_messages) {
        return Err(OtError::Protocol(format!(
            "sender answered {their_k} queries over {their_n} messages, \
             receiver expected {k} over {num_messages}"
        )));
    }
    let implied = their_n
        .checked_mul(msg_len)
        .and_then(|table| table.checked_add(PAD_NONCE_LEN))
        .and_then(|table| table.checked_mul(their_k))
        .and_then(|body| body.checked_add(TABLES_HEADER_LEN));
    match implied.and_then(|end| blob.get(TABLES_HEADER_LEN..end)) {
        Some(tables) => Ok((msg_len, tables)),
        None => Err(OtError::Protocol("tables frame length mismatch".into())),
    }
}

/// `base^1 … base^count`, by group products: the constants `C_i = C^i`
/// on the receiver's side, their powers `(C^r)^i` on the sender's.
fn powers(group: &DhGroup, base: &BigUint, count: usize) -> Vec<BigUint> {
    let next = |power: &BigUint| Some(group.mul(power, base));
    std::iter::successors(Some(base.clone()), next)
        .take(count)
        .collect()
}

/// Splits a frame of concatenated group elements, each in range. The
/// caller has checked how many the frame holds.
fn elements(group: &DhGroup, body: &[u8], what: &str) -> Result<Vec<BigUint>, OtError> {
    let chunks = body.chunks_exact(group.element_len());
    if !chunks.remainder().is_empty() {
        return Err(OtError::Protocol(format!("truncated {what}")));
    }
    chunks
        .map(|bytes| {
            group
                .element_from_bytes(bytes)
                .ok_or_else(|| OtError::Protocol(format!("peer sent an invalid {what}")))
        })
        .collect()
}

/// Sans-I/O sender role of a list of k-out-of-N transfers, each given
/// as its `N` messages and its `k`, under `commitment`.
///
/// # Errors
///
/// [`OtError::UnequalMessageLengths`] if the messages of a transfer
/// differ in length, [`OtError::Protocol`] if the receiver opens another
/// number of positions than the list's `Σk` or sends a malformed key,
/// plus transport failures.
pub async fn otkn_send_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    transfers: &[(&[Vec<u8>], usize)],
    commitment: &SenderCommitment,
) -> Result<(), OtError> {
    let mut max_n = 0;
    for (messages, _) in transfers {
        let first = messages
            .first()
            .ok_or_else(|| OtError::Protocol("cannot transfer zero messages".into()))?;
        if messages.iter().any(|m| m.len() != first.len()) {
            return Err(OtError::UnequalMessageLengths);
        }
        max_n = max_n.max(messages.len());
    }

    // While the keys are on their way: C_i^r = (C^r)^i.
    let c_r_powers = powers(group, &commitment.c_r, max_n.saturating_sub(1));

    // Step 1: one PK_0 per opened position of every transfer.
    let keys: Vec<u8> = io.recv_msg(KIND_OT1N_KEYS).await?;
    let opened = keys.len() / group.element_len();
    let k: usize = transfers.iter().map(|&(_, k)| k).sum();
    if opened != k {
        return Err(OtError::Protocol(format!(
            "receiver opened {opened} positions, agreed k = {k}"
        )));
    }
    let keys = elements(group, &keys, "PK_0")?;

    // Step 2: z_0 = PK_0^r, z_i = (C^r)^i / z_0, every pad under a fresh R.
    let z0s: Vec<BigUint> = keys
        .iter()
        .map(|pk0| group.exp(pk0, &commitment.r))
        .collect();
    let z0_invs = group.inv_many(&z0s);
    let mut queries = z0s.iter().zip(&z0_invs).enumerate();
    let mut tables = Vec::new();
    for &(messages, k) in transfers {
        let (n, msg_len) = (messages.len(), messages[0].len());
        tables.reserve(TABLES_HEADER_LEN + k * (PAD_NONCE_LEN + n * msg_len));
        for field in [k, n, msg_len] {
            tables.extend_from_slice(&(field as u64).to_le_bytes());
        }
        for (query, (z0, z0_inv)) in queries.by_ref().take(k) {
            let mut nonce = [0u8; PAD_NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            tables.extend_from_slice(&nonce);
            for (i, m) in messages.iter().enumerate() {
                let z_i = match i {
                    0 => z0.clone(),
                    _ => group.mul(&c_r_powers[i - 1], z0_inv),
                };
                let at = tables.len();
                tables.extend_from_slice(m);
                pad(group, &z_i, query, i, &nonce, &mut tables[at..]);
            }
        }
    }
    io.send_msg(KIND_OT1N_TABLES, &tables)?;
    Ok(())
}

/// Sans-I/O receiver role of a list of k-out-of-N transfers, each given
/// as its `N` and the indices it opens, under `commitment`; returns the
/// opened messages of every transfer, in list order.
///
/// # Errors
///
/// [`OtError::InvalidIndex`] if an index is `>= N` of its transfer,
/// [`OtError::Protocol`] for tables that are malformed or disagree with
/// a transfer's `N` and index count, plus transport failures.
pub async fn otkn_receive_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    transfers: &[(usize, &[usize])],
    commitment: &ReceiverCommitment,
) -> Result<Vec<Vec<u8>>, OtError> {
    let mut max_n = 0;
    for &(num_messages, indices) in transfers {
        check_indices(indices, num_messages)?;
        max_n = max_n.max(num_messages);
    }

    // Step 1: PK_σ = g^x, so only PK_σ's discrete log is known.
    let constants = powers(group, &commitment.big_c, max_n.saturating_sub(1));
    let opened = transfers.iter().flat_map(|&(_, indices)| indices);
    let mut exponents = Vec::new();
    let mut keys = Vec::new();
    for &index in opened.clone() {
        let (x, pk0) = key_pair(group, rng, index.checked_sub(1).map(|i| &constants[i]));
        keys.extend_from_slice(&group.element_bytes(&pk0));
        exponents.push(x);
    }
    io.send_msg(KIND_OT1N_KEYS, &keys)?;

    // Step 2: z_σ = (g^r)^x opens E_σ of its query's table.
    let tables: Vec<u8> = io.recv_msg(KIND_OT1N_TABLES).await?;
    let mut rest = &tables[..];
    let mut sealed = Vec::with_capacity(exponents.len());
    for &(num_messages, indices) in transfers {
        let (msg_len, section) = tables_section(rest, indices.len(), num_messages)?;
        rest = &rest[TABLES_HEADER_LEN + section.len()..];
        let table_len = PAD_NONCE_LEN + num_messages * msg_len;
        sealed.extend(
            section
                .chunks_exact(table_len)
                .zip(indices)
                .map(|(table, &index)| {
                    let (nonce, slots) = table.split_at(PAD_NONCE_LEN);
                    (nonce, &slots[index * msg_len..][..msg_len])
                }),
        );
    }
    if !rest.is_empty() {
        return Err(OtError::Protocol("tables frame length mismatch".into()));
    }
    Ok(sealed
        .into_iter()
        .zip(opened.zip(&exponents))
        .enumerate()
        .map(|(query, ((nonce, slot), (&index, x)))| {
            let mut m = slot.to_vec();
            let z = group.power(&commitment.g_r, x);
            pad(group, &z, query, index, nonce, &mut m);
            m
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{commit_c_io, receive_c_io, KIND_OT12_C};
    use crate::error::Transfer;
    use ppcs_transport::{run_engine_pair, Frame, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn messages(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect()
    }

    /// One transfer under a commitment of its own: the sender offers
    /// `msgs` with its `k`, the receiver opens `indices` of `n`.
    fn transfer(msgs: &[Vec<u8>], k: usize, n: usize, indices: &[usize]) -> Transfer {
        let group = DhGroup::modp_768();
        let mut rng_s = StdRng::seed_from_u64(10);
        let mut rng_r = StdRng::seed_from_u64(20);
        let mut sender = ProtocolEngine::new(|io| async move {
            let commitment = commit_c_io(group, &io, &mut rng_s)?;
            otkn_send_io(group, &io, &mut rng_s, &[(msgs, k)], &commitment).await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            let commitment = receive_c_io(group, &io).await?;
            otkn_receive_io(group, &io, &mut rng_r, &[(n, indices)], &commitment).await
        });
        run_engine_pair(&mut sender, &mut receiver).expect("no deadlock")
    }

    #[test]
    fn one_of_n_returns_selected() {
        for n in [1usize, 2, 3, 7, 16, 33] {
            let msgs = messages(n, 24);
            for index in [0, n / 2, n - 1] {
                let (sent, got) = transfer(&msgs, 1, n, &[index]);
                sent.unwrap();
                assert_eq!(got.unwrap(), [msgs[index].clone()], "n={n}, index={index}");
            }
        }
    }

    #[test]
    fn k_of_n_returns_all_selected_in_order() {
        let n = 12;
        let msgs = messages(n, 16);
        let indices = [11usize, 0, 5, 5, 2];
        let (sent, got) = transfer(&msgs, 5, n, &indices);
        sent.unwrap();
        let got = got.unwrap();
        for (i, &index) in indices.iter().enumerate() {
            assert_eq!(got[i], msgs[index]);
        }
    }

    #[test]
    fn out_of_range_index_rejected() {
        let (_, res) = transfer(&messages(4, 8), 2, 4, &[1, 4]);
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
        // Sender believes there are 8 messages, receiver expects 16.
        let (_, res) = transfer(&messages(8, 8), 1, 16, &[3]);
        assert!(matches!(res.unwrap_err(), OtError::Protocol(_)));
    }

    #[test]
    fn receivers_x_is_a_full_length_draw() {
        // Only the sender's r is short. PK_0 must be uniform in ⟨g⟩ for the
        // chooser's privacy to be perfect, so x stays the draw from
        // [2, q): at σ = 0 the key on the wire is g^x for exactly that x.
        for group in [DhGroup::modp_768(), DhGroup::modp_2048()] {
            let mut rng = StdRng::seed_from_u64(5);
            let commitment = ReceiverCommitment {
                big_c: group.power_g(&BigUint::from(3u32)),
                g_r: group.fixed_base(&group.power_g(&BigUint::from(5u32))),
            };
            let mut receiver = ProtocolEngine::new(|io| async move {
                otkn_receive_io(group, &io, &mut rng, &[(4, &[0, 2])], &commitment).await
            });
            let out = receiver.poll_output().expect("the keys frame");
            let keys: Vec<u8> = out.frames()[0].decode_as(KIND_OT1N_KEYS).unwrap();
            let mut same_seed = StdRng::seed_from_u64(5);
            let x = group.random_exponent(&mut same_seed);
            assert_eq!(
                keys[..group.element_len()],
                group.element_bytes(&group.power_g(&x))
            );
            // …and at σ = 2 it is C² / g^x′ for the next such draw.
            let x_next = group.random_exponent(&mut same_seed);
            let c_squared = group.power_g(&BigUint::from(6u32));
            let pk0_next = group.mul(&c_squared, &group.inv(&group.power_g(&x_next)));
            assert_eq!(keys[group.element_len()..], group.element_bytes(&pk0_next));
        }
    }

    /// One answered query as it crossed the wire: `R, E_0 … E_{N−1}`.
    struct Table {
        nonce: Vec<u8>,
        slots: Vec<Vec<u8>>,
    }

    /// Runs a sender through `transfers` against a scripted receiver that
    /// opens two positions in each, with the keys `keys_for` makes of the
    /// constants `C_1 … C_{N−1}`; returns `g^r` and the tables in order.
    fn script_receiver(
        group: &'static DhGroup,
        rng: &mut dyn RngCore,
        transfers: &[&[Vec<u8>]],
        mut keys_for: impl FnMut(&[BigUint]) -> [BigUint; 2],
    ) -> (BigUint, Vec<Table>) {
        let mut sender = ProtocolEngine::new(|io| async move {
            let commitment = commit_c_io(group, &io, rng)?;
            for &messages in transfers {
                otkn_send_io(group, &io, rng, &[(messages, 2)], &commitment).await?;
            }
            Ok::<_, OtError>(())
        });
        let (mut big_c, mut g_r) = (BigUint::default(), BigUint::default());
        let mut tables = Vec::new();
        loop {
            let Some(out) = sender.poll_output() else {
                assert!(
                    sender.is_done(),
                    "the sender waits for a frame out of script"
                );
                break;
            };
            for frame in out.frames() {
                // The commitment opens the first transfer, a transfer's
                // tables the next one.
                if frame.kind == KIND_OT12_C {
                    let (c, r): (Vec<u8>, Vec<u8>) = frame.decode_as(KIND_OT12_C).unwrap();
                    big_c = group.element_from_bytes(&c).unwrap();
                    g_r = group.element_from_bytes(&r).unwrap();
                } else {
                    let blob: Vec<u8> = frame.decode_as(KIND_OT1N_TABLES).unwrap();
                    let n = transfers[tables.len() / 2].len();
                    let (msg_len, section) = tables_section(&blob, 2, n).unwrap();
                    let answered = section.chunks_exact(PAD_NONCE_LEN + n * msg_len);
                    tables.extend(answered.map(|table| {
                        let (nonce, slots) = table.split_at(PAD_NONCE_LEN);
                        Table {
                            nonce: nonce.to_vec(),
                            slots: slots.chunks_exact(msg_len).map(<[u8]>::to_vec).collect(),
                        }
                    }));
                }
                if let Some(next) = transfers.get(tables.len() / 2) {
                    let constants = powers(group, &big_c, next.len() - 1);
                    let keys = keys_for(&constants).map(|pk0| group.element_bytes(&pk0));
                    sender.handle_input(Frame::encode(KIND_OT1N_KEYS, &keys.concat()));
                }
            }
        }
        let sent = sender.take_result().expect("done");
        sent.expect("all transfers sent");
        (g_r, tables)
    }

    fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
        a.iter().zip(b).map(|(x, y)| x ^ y).collect()
    }

    #[test]
    fn replayed_pk0_under_one_commitment_gets_fresh_pads() {
        // One r serves every query of a transfer and every transfer of a
        // commitment, so a receiver may send one PK_0 four times and meet
        // the same z_i in all four tables. Were a pad a function of
        // (z_i, i) alone — or of (z_i, query, i), across transfers —
        // E_i ⊕ E_i' would be m_i ⊕ m_i'.
        let group = DhGroup::modp_768();
        let first = messages(5, 20);
        let second: Vec<Vec<u8>> = first.iter().rev().cloned().collect();
        let pk0 = group.power_g(&BigUint::from(12345u32));
        let mut rng = StdRng::seed_from_u64(41);
        let (_, tables) = script_receiver(group, &mut rng, &[&first, &second], |_| {
            [pk0.clone(), pk0.clone()]
        });
        assert_eq!(tables.len(), 4);
        let sent = [&first, &first, &second, &second];
        for a in 0..4 {
            for b in a + 1..4 {
                for (i, (m_a, m_b)) in sent[a].iter().zip(sent[b]).enumerate() {
                    assert_ne!(
                        xor(&tables[a].slots[i], &tables[b].slots[i]),
                        xor(m_a, m_b),
                        "tables {a} and {b} pad slot {i} alike"
                    );
                }
            }
        }
    }

    /// An RNG that returns one byte forever: the sender's `R` repeats.
    struct Stuck;

    impl RngCore for Stuck {
        fn next_u32(&mut self) -> u32 {
            0x0707_0707
        }
        fn next_u64(&mut self) -> u64 {
            0x0707_0707_0707_0707
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(7);
        }
    }

    #[test]
    fn query_number_separates_pads_when_r_repeats() {
        // Belt and braces: with R stuck, the two queries of one transfer
        // still get different pads for one PK_0, from the query number.
        let group = DhGroup::modp_768();
        let msgs = messages(4, 20);
        let pk0 = group.power_g(&BigUint::from(777u32));
        let (_, tables) =
            script_receiver(group, &mut Stuck, &[&msgs], |_| [pk0.clone(), pk0.clone()]);
        assert_eq!(tables[0].nonce, tables[1].nonce);
        for i in 0..4 {
            assert_ne!(tables[0].slots[i], tables[1].slots[i], "slot {i}");
        }
    }

    #[test]
    fn query_numbers_run_on_across_a_list() {
        // With R stuck, two transfers of one list answered for one PK_0
        // differ only by their query numbers: were those restarted per
        // transfer, equal messages would get equal ciphertexts.
        let group = DhGroup::modp_768();
        let msgs = messages(4, 20);
        let pk0 = group.element_bytes(&group.power_g(&BigUint::from(777u32)));
        let mut sender = ProtocolEngine::new(|io| async move {
            let mut rng = Stuck;
            let commitment = commit_c_io(group, &io, &mut rng)?;
            let list: [(&[Vec<u8>], usize); 2] = [(&msgs, 1), (&msgs, 1)];
            otkn_send_io(group, &io, &mut rng, &list, &commitment).await
        });
        while sender.poll_output().is_some() {}
        sender.handle_input(Frame::encode(KIND_OT1N_KEYS, &[pk0.clone(), pk0].concat()));
        let out = sender.poll_output().expect("the tables frame");
        let blob: Vec<u8> = out.frames()[0].decode_as(KIND_OT1N_TABLES).unwrap();
        let (_, first) = tables_section(&blob, 1, 4).unwrap();
        let (_, second) = tables_section(&blob[TABLES_HEADER_LEN + first.len()..], 1, 4).unwrap();
        assert_eq!(first[..PAD_NONCE_LEN], second[..PAD_NONCE_LEN], "R repeats");
        assert_ne!(first[PAD_NONCE_LEN..], second[PAD_NONCE_LEN..]);
    }

    #[test]
    fn honest_key_opens_only_its_own_slot() {
        // The receiver's z = (g^r)^x is the pad key of E_σ and of no
        // other slot, whichever index that slot is tried under.
        let group = DhGroup::modp_768();
        let x = group.random_exponent(&mut StdRng::seed_from_u64(7));
        let pk = group.power_g(&x);
        for n in [1usize, 2, 3, 8, 26] {
            let msgs = messages(n, 16);
            for sigma in 0..n {
                let mut rng = StdRng::seed_from_u64(100 + sigma as u64);
                let (g_r, tables) = script_receiver(group, &mut rng, &[&msgs], |constants| {
                    // By the definition, not by `key_pair`: C_σ / PK_σ.
                    let pk0 = match sigma {
                        0 => pk.clone(),
                        _ => group.mul(&constants[sigma - 1], &group.inv(&pk)),
                    };
                    [pk0.clone(), pk0]
                });
                let z = group.exp(&g_r, &x);
                for (query, table) in tables.iter().enumerate() {
                    for (i, slot) in table.slots.iter().enumerate() {
                        for tried_as in [i, sigma] {
                            let mut m = slot.clone();
                            pad(group, &z, query, tried_as, &table.nonce, &mut m);
                            assert_eq!(
                                m == msgs[i],
                                i == sigma,
                                "n={n}, σ={sigma}, slot {i} opened as slot {tried_as}"
                            );
                        }
                    }
                }
            }
        }
    }
}
