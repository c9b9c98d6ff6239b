//! IKNP oblivious-transfer extension (Ishai–Kilian–Nissim–Petrank,
//! CRYPTO'03, semi-honest variant).
//!
//! A batch of `m` 1-out-of-2 OTs costs only `κ = 128` public-key base
//! OTs (run in the *reverse* direction) plus symmetric work — the
//! standard trick that makes OT-heavy protocols such as the paper's
//! k-out-of-N selection practical at scale.
//!
//! Construction sketch: the extension receiver holds choice bits
//! `r ∈ {0,1}^m` and two `m×κ` bit matrices `T⁰ = PRG(seeds⁰)`,
//! `T¹ = PRG(seeds¹)`; the base OTs give the sender one seed column per
//! position according to its secret `s ∈ {0,1}^κ`. After the receiver
//! publishes `U = T⁰ ⊕ T¹ ⊕ r·1ᵀ`, the sender's matrix `Q` satisfies
//! `q_j = t_j ⊕ r_j·s` row-wise, so `H(j, q_j)` and `H(j, q_j ⊕ s)` are
//! pads for `m_{j,0}`/`m_{j,1}` of which the receiver can compute
//! exactly `H(j, t_j) = H(j, q_j ⊕ r_j·s)` — its chosen one.

use ppcs_crypto::{ChaCha20, DhGroup, Sha256};
use ppcs_transport::FrameIo;
use rand::RngCore;

use crate::base::{
    commit_c_io, ot12_receive_precommitted_io, ot12_send_precommitted_io, receive_c_io,
};
use crate::error::{read_u32_le, OtError};

/// Computational security parameter: number of base OTs / matrix columns.
pub(crate) const KAPPA: usize = 128;

const KIND_EXT_U: u16 = 0x0280;
const KIND_EXT_PAYLOAD: u16 = 0x0281;

/// Tag space offset for the reverse-direction base OTs.
const BASE_TAG_OFFSET: u64 = 0x4000_0000;

fn prg_column(seed: &[u8; 32], column: usize, bytes: usize) -> Vec<u8> {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&(column as u64).to_le_bytes());
    nonce[8] = 0xEE;
    ChaCha20::new(seed, &nonce, 0).keystream(bytes)
}

fn row_hash(row_index: usize, row: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ppcs-iknp-row");
    h.update(&(row_index as u64).to_le_bytes());
    h.update(row);
    h.finalize()
}

#[inline]
fn get_bit(bytes: &[u8], idx: usize) -> bool {
    bytes[idx / 8] >> (idx % 8) & 1 == 1
}

#[inline]
fn set_bit(bytes: &mut [u8], idx: usize, v: bool) {
    if v {
        bytes[idx / 8] |= 1 << (idx % 8);
    } else {
        bytes[idx / 8] &= !(1 << (idx % 8));
    }
}

/// Transposes a column-major bit matrix (`cols` vectors of `row_bytes`)
/// into row-major `κ`-bit rows.
fn transpose_columns(columns: &[Vec<u8>], num_rows: usize) -> Vec<Vec<u8>> {
    let row_bytes = columns.len().div_ceil(8);
    let mut rows = vec![vec![0u8; row_bytes]; num_rows];
    for (c, col) in columns.iter().enumerate() {
        for (r, row) in rows.iter_mut().enumerate() {
            set_bit(row, c, get_bit(col, r));
        }
    }
    rows
}

/// Sans-I/O sender role of an IKNP batch: transfers `pairs[j] = (m₀, m₁)`
/// such that the receiver learns exactly one of each pair.
///
/// Both messages of a pair must have equal length; different pairs may
/// differ.
///
/// # Errors
///
/// [`OtError::UnequalMessageLengths`] on a malformed pair, plus
/// transport/protocol failures.
pub(crate) async fn iknp_send_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    pairs: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), OtError> {
    let m = pairs.len();
    if m == 0 {
        return Ok(());
    }
    for (a, b) in pairs {
        if a.len() != b.len() {
            return Err(OtError::UnequalMessageLengths);
        }
    }
    let col_bytes = m.div_ceil(8);

    // Reverse-direction base OTs, all under one commitment: we are the
    // *receiver* with secret choice bits s.
    let mut s_bits = vec![0u8; KAPPA.div_ceil(8)];
    rng.fill_bytes(&mut s_bits);
    let mut q_columns = Vec::with_capacity(KAPPA);
    let mut seeds = Vec::with_capacity(KAPPA);
    let commitment = receive_c_io(group, io).await?;
    for i in 0..KAPPA {
        let (choice, tag) = (get_bit(&s_bits, i), BASE_TAG_OFFSET + i as u64);
        let seed: [u8; 32] = ot12_receive_precommitted_io(group, io, rng, choice, tag, &commitment)
            .await?
            .try_into()
            .map_err(|_| OtError::Protocol("base-OT seed has wrong length".into()))?;
        seeds.push(seed);
    }

    // Receive U and build Q column-wise: q_i = PRG(seed_i) ⊕ s_i·u_i.
    let u_blob: Vec<u8> = io.recv_msg(KIND_EXT_U).await?;
    if u_blob.len() != KAPPA * col_bytes {
        return Err(OtError::Protocol(format!(
            "U matrix has {} bytes, expected {}",
            u_blob.len(),
            KAPPA * col_bytes
        )));
    }
    for i in 0..KAPPA {
        let mut col = prg_column(&seeds[i], i, col_bytes);
        if get_bit(&s_bits, i) {
            for (c, u) in col
                .iter_mut()
                .zip(&u_blob[i * col_bytes..(i + 1) * col_bytes])
            {
                *c ^= u;
            }
        }
        q_columns.push(col);
    }
    let q_rows = transpose_columns(&q_columns, m);

    // Pad and ship both branches of every pair.
    let mut payload = Vec::new();
    let s_row = {
        // s as a κ-bit row for the q_j ⊕ s branch.
        let mut row = vec![0u8; KAPPA.div_ceil(8)];
        row.copy_from_slice(&s_bits[..KAPPA.div_ceil(8)]);
        row
    };
    for (j, (m0, m1)) in pairs.iter().enumerate() {
        let pad0 = row_hash(j, &q_rows[j]);
        let mut q1 = q_rows[j].clone();
        for (q, s) in q1.iter_mut().zip(&s_row) {
            *q ^= s;
        }
        let pad1 = row_hash(j, &q1);

        payload.extend_from_slice(&(m0.len() as u32).to_le_bytes());
        payload.extend(xor_stream(&pad0, j, m0));
        payload.extend(xor_stream(&pad1, j, m1));
    }
    io.send_msg(KIND_EXT_PAYLOAD, &payload)?;
    Ok(())
}

/// Sans-I/O receiver role of an IKNP batch: learns `pairs[j].(choices[j])`.
///
/// # Errors
///
/// Transport/protocol failures.
pub(crate) async fn iknp_receive_io(
    group: &DhGroup,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    choices: &[bool],
) -> Result<Vec<Vec<u8>>, OtError> {
    let m = choices.len();
    if m == 0 {
        return Ok(Vec::new());
    }
    let col_bytes = m.div_ceil(8);

    // Choice bits as a column.
    let mut r_col = vec![0u8; col_bytes];
    for (j, &c) in choices.iter().enumerate() {
        set_bit(&mut r_col, j, c);
    }

    // Base OTs under one commitment (we are the sender of seed pairs).
    let mut seed_pairs = Vec::with_capacity(KAPPA);
    let commitment = commit_c_io(group, io, rng)?;
    for i in 0..KAPPA {
        let mut s0 = [0u8; 32];
        let mut s1 = [0u8; 32];
        rng.fill_bytes(&mut s0);
        rng.fill_bytes(&mut s1);
        let tag = BASE_TAG_OFFSET + i as u64;
        ot12_send_precommitted_io(group, io, rng, &s0, &s1, tag, &commitment).await?;
        seed_pairs.push((s0, s1));
    }

    // T⁰ columns and the public U = T⁰ ⊕ T¹ ⊕ r.
    let mut t_columns = Vec::with_capacity(KAPPA);
    let mut u_blob = Vec::with_capacity(KAPPA * col_bytes);
    for (i, (s0, s1)) in seed_pairs.iter().enumerate() {
        let t0 = prg_column(s0, i, col_bytes);
        let t1 = prg_column(s1, i, col_bytes);
        for j in 0..col_bytes {
            u_blob.push(t0[j] ^ t1[j] ^ r_col[j]);
        }
        t_columns.push(t0);
    }
    io.send_msg(KIND_EXT_U, &u_blob)?;

    let t_rows = transpose_columns(&t_columns, m);

    // Open our branch of every pair.
    let payload: Vec<u8> = io.recv_msg(KIND_EXT_PAYLOAD).await?;
    let mut out = Vec::with_capacity(m);
    let mut cursor = 0usize;
    for (j, &choice) in choices.iter().enumerate() {
        if cursor + 4 > payload.len() {
            return Err(OtError::Protocol("truncated extension payload".into()));
        }
        let len = read_u32_le(&payload, cursor, "extension pair length")?;
        cursor += 4;
        if cursor + 2 * len > payload.len() {
            return Err(OtError::Protocol("truncated extension payload".into()));
        }
        let branch = if choice {
            &payload[cursor + len..cursor + 2 * len]
        } else {
            &payload[cursor..cursor + len]
        };
        let pad = row_hash(j, &t_rows[j]);
        out.push(xor_stream(&pad, j, branch));
        cursor += 2 * len;
    }
    if cursor != payload.len() {
        return Err(OtError::Protocol(
            "trailing bytes in extension payload".into(),
        ));
    }
    Ok(out)
}

/// Expands a 32-byte pad into a keystream and XORs it over `data`
/// (domain-separated per row).
fn xor_stream(pad: &[u8; 32], row: usize, data: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&(row as u64).to_le_bytes());
    nonce[8] = 0xDD;
    let mut out = data.to_vec();
    ChaCha20::new(pad, &nonce, 0).apply(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_transport::{run_engine_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_iknp(pairs: &[(Vec<u8>, Vec<u8>)], choices: &[bool]) -> Vec<Vec<u8>> {
        let group = DhGroup::modp_768();
        let mut rng_s = StdRng::seed_from_u64(1);
        let mut rng_r = StdRng::seed_from_u64(2);
        let mut sender =
            ProtocolEngine::new(
                |io| async move { iknp_send_io(group, &io, &mut rng_s, pairs).await },
            );
        let mut receiver = ProtocolEngine::new(|io| async move {
            iknp_receive_io(group, &io, &mut rng_r, choices).await
        });
        let (send, got) = run_engine_pair(&mut sender, &mut receiver).expect("no deadlock");
        send.expect("send");
        got.expect("receive")
    }

    #[test]
    fn batch_returns_chosen_branches() {
        let m = 300;
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..m)
            .map(|j| {
                (
                    format!("zero-{j}").into_bytes(),
                    format!("one!-{j}").into_bytes(),
                )
            })
            .collect();
        let choices: Vec<bool> = (0..m).map(|j| j % 3 == 0).collect();
        let got = run_iknp(&pairs, &choices);
        for (j, (msg, &c)) in got.iter().zip(&choices).enumerate() {
            let want = if c { &pairs[j].1 } else { &pairs[j].0 };
            assert_eq!(msg, want, "row {j}");
        }
    }

    #[test]
    fn variable_length_pairs() {
        let pairs = vec![
            (vec![1u8; 4], vec![2u8; 4]),
            (vec![3u8; 64], vec![4u8; 64]),
            (vec![5u8; 1], vec![6u8; 1]),
        ];
        let got = run_iknp(&pairs, &[true, false, true]);
        assert_eq!(got[0], vec![2u8; 4]);
        assert_eq!(got[1], vec![3u8; 64]);
        assert_eq!(got[2], vec![6u8; 1]);
    }

    #[test]
    fn empty_batch_is_ok() {
        assert!(run_iknp(&[], &[]).is_empty());
    }

    #[test]
    fn unequal_pair_rejected() {
        // Refused before the base OTs start.
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = [(vec![1], vec![2, 3])];
        let mut sender =
            ProtocolEngine::new(
                |io| async move { iknp_send_io(group, &io, &mut rng, &pairs).await },
            );
        assert!(sender.poll_output().is_none());
        assert_eq!(
            sender.take_result(),
            Some(Err(OtError::UnequalMessageLengths))
        );
    }

    #[test]
    fn transpose_is_involutive_on_square() {
        let mut rng = StdRng::seed_from_u64(9);
        let cols: Vec<Vec<u8>> = (0..16)
            .map(|_| (0..2).map(|_| rng.gen()).collect())
            .collect();
        let rows = transpose_columns(&cols, 16);
        let back = transpose_columns(&rows, 16);
        for (a, b) in cols.iter().zip(&back) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bit_helpers() {
        let mut b = vec![0u8; 2];
        set_bit(&mut b, 3, true);
        set_bit(&mut b, 11, true);
        assert!(get_bit(&b, 3));
        assert!(get_bit(&b, 11));
        assert!(!get_bit(&b, 4));
        set_bit(&mut b, 3, false);
        assert!(!get_bit(&b, 3));
    }
}
