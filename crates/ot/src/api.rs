//! The object-safe k-out-of-N OT interface consumed by OMPE, plus two of
//! its engines: cryptographic Naor–Pinkas and the ideal-functionality
//! simulator used for large-scale functional benchmarks.
//!
//! An engine is a name and an [`OtSelect`] value — a plain `Copy`
//! selector that role logic threads through without borrowing the
//! engine. The [`ot_send_list_io`]/[`ot_receive_list_io`] dispatch
//! functions execute the selected engine's sans-I/O role over a
//! [`FrameIo`]. They run a *list* of k-out-of-N transfers in one
//! exchange: one query message and one answer message for the whole
//! list (the extension engine sends one table per query, as it does for
//! a single transfer). [`ot_send_io`]/[`ot_receive_io`] are the list of
//! one, byte for byte what a single transfer always put on the wire.

use ppcs_crypto::DhGroup;
use ppcs_telemetry::Phase;
use ppcs_transport::FrameIo;
use rand::RngCore;

use crate::base::{commit_c_io, receive_c_io, ReceiverCommitment, SenderCommitment};
use crate::error::{check_indices, OtError};
use crate::kn::{otkn_receive_io, otkn_send_io};
use crate::knx::{knx_receive_io, knx_send_io};

const KIND_SIM_INDICES: u16 = 0x0300;
const KIND_SIM_MESSAGES: u16 = 0x0301;

/// Per-batch OT session state: base-phase material an engine draws once
/// and reuses for every transfer of a batch. Created by
/// [`ot_begin_send_io`] / [`ot_begin_receive_io`]; opaque to callers.
/// The default state is no batch: a Naor–Pinkas transfer under it
/// commits for itself.
#[derive(Clone, Debug, Default)]
pub struct OtBatchState {
    /// Naor–Pinkas: this side's half of the commitment exchanged once
    /// per batch. Both `None` for engines without a base phase, and for
    /// a transfer outside any batch, which then commits for itself.
    np_send: Option<SenderCommitment>,
    np_receive: Option<ReceiverCommitment>,
}

impl OtBatchState {
    /// Sender batch state over an already transmitted commitment.
    pub(crate) fn sender(commitment: SenderCommitment) -> Self {
        Self {
            np_send: Some(commitment),
            ..Self::default()
        }
    }

    fn receiver(commitment: ReceiverCommitment) -> Self {
        Self {
            np_receive: Some(commitment),
            ..Self::default()
        }
    }
}

/// Transport-free engine selector for sans-I/O role logic.
///
/// Obtained from [`ObliviousTransfer::select`]; `Copy`, so role
/// functions can thread it through without borrowing the engine. Each
/// variant carries exactly the configuration its sans-I/O roles need.
#[derive(Clone, Copy, Debug)]
pub enum OtSelect {
    /// Cryptographic Naor–Pinkas k-out-of-N over the given group.
    NaorPinkas {
        /// The MODP group of the commitment and the transfers under it.
        group: &'static DhGroup,
    },
    /// IKNP-extension-backed k-out-of-N over the given base-OT group.
    Iknp {
        /// The MODP group for the `κ` base OTs.
        group: &'static DhGroup,
    },
    /// Ideal-functionality simulator (no cryptography).
    TrustedSim,
}

/// A k-out-of-N oblivious transfer engine: a name for reports and the
/// transport-free [`OtSelect`] its roles run under.
///
/// The roles are the sans-I/O dispatchers: the sender runs
/// [`ot_send_io`] with all `N` messages (and the agreed `k`), the
/// receiver [`ot_receive_io`] with its `k` indices and gets exactly those
/// messages back, in order. A batch of transfers sets up its base phase
/// once with [`ot_begin_send_io`] / [`ot_begin_receive_io`].
pub trait ObliviousTransfer: Send + Sync {
    /// A short label for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// The transport-free selector for this engine.
    fn select(&self) -> OtSelect;
}

/// Sans-I/O sender-side base-phase setup for a batch of transfers with
/// the engine selected by `sel`.
///
/// A no-op for engines without a base phase. The Naor–Pinkas engine
/// draws and transmits its commitment `(C, g^r)` here, so every
/// transfer of the batch runs under it instead of opening one of its
/// own. The peer runs [`ot_begin_receive_io`] symmetrically.
///
/// # Errors
///
/// Transport failures while transmitting setup material.
pub async fn ot_begin_send_io(
    sel: OtSelect,
    io: &FrameIo,
    rng: &mut dyn RngCore,
) -> Result<OtBatchState, OtError> {
    match sel {
        OtSelect::NaorPinkas { group } => {
            let _span = ppcs_telemetry::span(Phase::BaseOt);
            Ok(OtBatchState::sender(commit_c_io(group, io, rng)?))
        }
        OtSelect::Iknp { .. } | OtSelect::TrustedSim => Ok(OtBatchState::default()),
    }
}

/// Sans-I/O receiver half of [`ot_begin_send_io`].
///
/// # Errors
///
/// Transport failures while receiving setup material.
pub async fn ot_begin_receive_io(sel: OtSelect, io: &FrameIo) -> Result<OtBatchState, OtError> {
    match sel {
        OtSelect::NaorPinkas { group } => {
            let _span = ppcs_telemetry::span(Phase::BaseOt);
            Ok(OtBatchState::receiver(receive_c_io(group, io).await?))
        }
        OtSelect::Iknp { .. } | OtSelect::TrustedSim => Ok(OtBatchState::default()),
    }
}

/// Sans-I/O sender side of a k-out-of-N transfer with the engine
/// selected by `sel`, reusing per-batch `state`: the
/// [list](ot_send_list_io) of one.
///
/// # Errors
///
/// Engine-specific [`OtError`]s; all report transport failures and
/// unequal message lengths.
pub async fn ot_send_io(
    sel: OtSelect,
    state: &OtBatchState,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    messages: &[Vec<u8>],
    k: usize,
) -> Result<(), OtError> {
    ot_send_list_io(sel, state, io, rng, &[(messages, k)]).await
}

/// Sans-I/O receiver side of a k-out-of-N transfer with the engine
/// selected by `sel`, reusing per-batch `state`; returns the messages at
/// `indices`, in order. The [list](ot_receive_list_io) of one.
///
/// # Errors
///
/// Engine-specific [`OtError`]s; all validate index ranges.
pub async fn ot_receive_io(
    sel: OtSelect,
    state: &OtBatchState,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    num_messages: usize,
    indices: &[usize],
) -> Result<Vec<Vec<u8>>, OtError> {
    ot_receive_list_io(sel, state, io, rng, &[(num_messages, indices)]).await
}

/// Sans-I/O sender side of a list of k-out-of-N transfers, each given as
/// its `N` messages and its `k`, in one exchange with the engine selected
/// by `sel`, reusing per-batch `state`. Under Naor–Pinkas without a
/// batch `state`, the list commits once for itself.
///
/// # Errors
///
/// Engine-specific [`OtError`]s; all report transport failures, unequal
/// message lengths and a receiver that opens another number of positions
/// than the list's `k`s add up to.
pub async fn ot_send_list_io(
    sel: OtSelect,
    state: &OtBatchState,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    transfers: &[(&[Vec<u8>], usize)],
) -> Result<(), OtError> {
    match sel {
        OtSelect::NaorPinkas { group } => {
            let _span = ppcs_telemetry::span(Phase::KnOt);
            let own;
            let commitment = match &state.np_send {
                Some(shared) => shared,
                None => {
                    own = commit_c_io(group, io, rng)?;
                    &own
                }
            };
            otkn_send_io(group, io, rng, transfers, commitment).await
        }
        OtSelect::Iknp { group } => {
            let _span = ppcs_telemetry::span(Phase::OtExt);
            knx_send_io(group, io, rng, transfers).await
        }
        OtSelect::TrustedSim => {
            let _span = ppcs_telemetry::span(Phase::KnOt);
            sim_send_io(io, transfers).await
        }
    }
}

/// Sans-I/O receiver side of [`ot_send_list_io`]: each transfer given as
/// its `N` and the indices it opens; returns the opened messages of every
/// transfer, in list order.
///
/// # Errors
///
/// Engine-specific [`OtError`]s; all check each transfer's indices
/// against its own `N`.
pub async fn ot_receive_list_io(
    sel: OtSelect,
    state: &OtBatchState,
    io: &FrameIo,
    rng: &mut dyn RngCore,
    transfers: &[(usize, &[usize])],
) -> Result<Vec<Vec<u8>>, OtError> {
    match sel {
        OtSelect::NaorPinkas { group } => {
            let _span = ppcs_telemetry::span(Phase::KnOt);
            let own;
            let commitment = match &state.np_receive {
                Some(shared) => shared,
                None => {
                    own = receive_c_io(group, io).await?;
                    &own
                }
            };
            otkn_receive_io(group, io, rng, transfers, commitment).await
        }
        OtSelect::Iknp { group } => {
            let _span = ppcs_telemetry::span(Phase::OtExt);
            knx_receive_io(group, io, rng, transfers).await
        }
        OtSelect::TrustedSim => {
            let _span = ppcs_telemetry::span(Phase::KnOt);
            sim_receive_io(io, transfers).await
        }
    }
}

/// Sans-I/O sender role of the ideal-functionality simulator (see
/// [`TrustedSimOt`]) for a list of transfers. Its answer carries no
/// lengths, so every message of the list has one length.
///
/// # Errors
///
/// [`OtError::UnequalMessageLengths`], [`OtError::InvalidIndex`] for an
/// index outside its own transfer's range, malformed peer blobs, plus
/// transport failures.
pub(crate) async fn sim_send_io(
    io: &FrameIo,
    transfers: &[(&[Vec<u8>], usize)],
) -> Result<(), OtError> {
    let mut all = transfers.iter().flat_map(|(messages, _)| messages.iter());
    let msg_len = all.clone().next().map_or(0, Vec::len);
    if all.any(|m| m.len() != msg_len) {
        return Err(OtError::UnequalMessageLengths);
    }
    let blob: Vec<u8> = io.recv_msg(KIND_SIM_INDICES).await?;
    if !blob.len().is_multiple_of(8) {
        return Err(OtError::Protocol("malformed index blob".into()));
    }
    let mut indices = Vec::with_capacity(blob.len() / 8);
    for off in (0..blob.len()).step_by(8) {
        indices.push(crate::error::read_u64_le(&blob, off, "sim index")?);
    }
    let k: usize = transfers.iter().map(|&(_, k)| k).sum();
    if indices.len() != k {
        return Err(OtError::Protocol(format!(
            "receiver opened {} positions, agreed k = {k}",
            indices.len()
        )));
    }
    let mut out = Vec::with_capacity(indices.len() * msg_len);
    let mut opened = indices.into_iter();
    for &(messages, k) in transfers {
        for i in opened.by_ref().take(k) {
            let m = messages.get(i).ok_or(OtError::InvalidIndex {
                index: i,
                num_messages: messages.len(),
            })?;
            out.extend_from_slice(m);
        }
    }
    io.send_msg(KIND_SIM_MESSAGES, &out)?;
    Ok(())
}

/// Sans-I/O receiver role of the ideal-functionality simulator (see
/// [`TrustedSimOt`]) for a list of transfers.
///
/// # Errors
///
/// [`OtError::InvalidIndex`], malformed peer blobs, plus transport
/// failures.
pub(crate) async fn sim_receive_io(
    io: &FrameIo,
    transfers: &[(usize, &[usize])],
) -> Result<Vec<Vec<u8>>, OtError> {
    let mut blob = Vec::new();
    for &(num_messages, indices) in transfers {
        check_indices(indices, num_messages)?;
        blob.extend(indices.iter().flat_map(|&i| (i as u64).to_le_bytes()));
    }
    io.send_msg(KIND_SIM_INDICES, &blob)?;
    let out: Vec<u8> = io.recv_msg(KIND_SIM_MESSAGES).await?;
    let k = blob.len() / 8;
    if k == 0 {
        return Ok(Vec::new());
    }
    if !out.len().is_multiple_of(k) {
        return Err(OtError::Protocol("malformed message blob".into()));
    }
    // Not `chunks_exact`: a blob of empty messages has length zero.
    let msg_len = out.len() / k;
    Ok((0..k)
        .map(|q| out[q * msg_len..][..msg_len].to_vec())
        .collect())
}

/// Cryptographic k-out-of-N OT: Naor–Pinkas 1-out-of-N over a MODP
/// group, once per opened position (see [`otkn_send_io`]).
///
/// # Examples
///
/// ```
/// use ppcs_ot::{ot_receive_io, ot_send_io, NaorPinkasOt, ObliviousTransfer, OtBatchState};
/// use ppcs_transport::{run_engine_pair, ProtocolEngine};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let sel = NaorPinkasOt::fast_insecure().select(); // 768-bit group: tests only
/// let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 4]).collect();
/// let (mut rng_s, mut rng_r) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(2));
/// // Outside a batch, the transfer commits for itself.
/// let (no_batch, sent) = (OtBatchState::default(), &msgs);
/// let mut sender = ProtocolEngine::new(|io| async move {
///     ot_send_io(sel, &no_batch, &io, &mut rng_s, sent, 2).await
/// });
/// let mut receiver = ProtocolEngine::new(|io| async move {
///     ot_receive_io(sel, &OtBatchState::default(), &io, &mut rng_r, 8, &[6, 1]).await
/// });
/// let (sent, got) = run_engine_pair(&mut sender, &mut receiver).unwrap();
/// sent.unwrap();
/// assert_eq!(got.unwrap(), vec![msgs[6].clone(), msgs[1].clone()]);
/// ```
#[derive(Clone, Debug)]
pub struct NaorPinkasOt {
    group: &'static DhGroup,
}

impl NaorPinkasOt {
    /// Security-grade engine over the RFC 3526 2048-bit MODP group.
    pub fn new() -> Self {
        Self {
            group: DhGroup::modp_2048(),
        }
    }

    /// Fast engine over a 768-bit group — for tests and micro-benchmarks
    /// only; 768-bit discrete logs are not a modern security margin.
    pub fn fast_insecure() -> Self {
        Self {
            group: DhGroup::modp_768(),
        }
    }

    /// The underlying group.
    pub fn group(&self) -> &'static DhGroup {
        self.group
    }
}

impl Default for NaorPinkasOt {
    fn default() -> Self {
        Self::new()
    }
}

impl ObliviousTransfer for NaorPinkasOt {
    fn name(&self) -> &'static str {
        if core::ptr::eq(self.group, DhGroup::modp_2048()) {
            "naor-pinkas-2048"
        } else {
            "naor-pinkas-768"
        }
    }

    fn select(&self) -> OtSelect {
        OtSelect::NaorPinkas { group: self.group }
    }
}

/// Ideal-functionality OT: the receiver reveals its indices to an assumed
/// trusted channel and gets exactly the selected messages back.
///
/// This models the OT as an ideal functionality so that protocol-level
/// experiments can run at dataset scale (Fig. 9 of the paper sweeps tens
/// of thousands of classifications). It provides **no sender privacy
/// against the transport** and must never be used where the OT's
/// cryptographic guarantees matter; the benchmark harness reports which
/// engine produced each number.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrustedSimOt;

impl TrustedSimOt {
    /// Creates the simulator engine.
    pub fn new() -> Self {
        Self
    }
}

impl ObliviousTransfer for TrustedSimOt {
    fn name(&self) -> &'static str {
        "trusted-sim"
    }

    fn select(&self) -> OtSelect {
        OtSelect::TrustedSim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Transfer;
    use ppcs_transport::{drive_blocking, run_engine_pair, run_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One transfer outside any batch: the sender offers `messages` with
    /// its `k`, the receiver opens `indices`, each party on its own thread
    /// under the blocking driver over a duplex channel.
    fn blocking_transfer(
        sel: OtSelect,
        messages: &[Vec<u8>],
        k: usize,
        indices: &[usize],
    ) -> Transfer {
        let no_batch = &OtBatchState::default();
        run_pair(
            |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut engine = ProtocolEngine::new(|io| async move {
                    ot_send_io(sel, no_batch, &io, &mut rng, messages, k).await
                });
                drive_blocking(&ep, &mut engine)
            },
            |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                let n = messages.len();
                let mut engine = ProtocolEngine::new(|io| async move {
                    ot_receive_io(sel, no_batch, &io, &mut rng, n, indices).await
                });
                drive_blocking(&ep, &mut engine)
            },
        )
    }

    fn exercise(ot: impl ObliviousTransfer) {
        let msgs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 8]).collect();
        let indices = [9usize, 0, 4];
        let (sent, got) = blocking_transfer(ot.select(), &msgs, 3, &indices);
        sent.unwrap();
        for (g, &i) in got.unwrap().iter().zip(&indices) {
            assert_eq!(g, &msgs[i]);
        }
    }

    #[test]
    fn naor_pinkas_engine_works() {
        exercise(NaorPinkasOt::fast_insecure());
    }

    #[test]
    fn trusted_sim_engine_works() {
        exercise(TrustedSimOt::new());
    }

    #[test]
    fn trusted_sim_rejects_wrong_k() {
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        // Receiver tries to open 3 positions when k = 2.
        let (sent, _) = blocking_transfer(TrustedSimOt.select(), &msgs, 2, &[0, 1, 2]);
        assert!(matches!(sent.unwrap_err(), OtError::Protocol(_)));
    }

    #[test]
    fn naor_pinkas_rejects_wrong_k() {
        // The keys frame shows the sender how many positions the receiver
        // opens: more or fewer than agreed is an error, not a wait.
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let sel = NaorPinkasOt::fast_insecure().select();
        for (opened, indices) in [(3, &[0usize, 1, 2][..]), (1, &[3][..])] {
            let (sent, _) = blocking_transfer(sel, &msgs, 2, indices);
            assert_eq!(
                sent.unwrap_err(),
                OtError::Protocol(format!("receiver opened {opened} positions, agreed k = 2"))
            );
        }
    }

    /// `rounds` transfers of `messages`, two positions each, after one
    /// base phase; the engines are pumped against each other.
    fn batch(sel: OtSelect, messages: &[Vec<u8>], rounds: usize) -> Vec<Vec<Vec<u8>>> {
        let n = messages.len();
        let mut rng_s = StdRng::seed_from_u64(5);
        let mut rng_r = StdRng::seed_from_u64(6);
        let mut sender = ProtocolEngine::new(|io| async move {
            let state = ot_begin_send_io(sel, &io, &mut rng_s).await?;
            for _ in 0..rounds {
                ot_send_io(sel, &state, &io, &mut rng_s, messages, 2).await?;
            }
            Ok::<_, OtError>(())
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            let state = ot_begin_receive_io(sel, &io).await?;
            let mut got = Vec::with_capacity(rounds);
            for r in 0..rounds {
                got.push(ot_receive_io(sel, &state, &io, &mut rng_r, n, &[r, n - 1 - r]).await?);
            }
            Ok::<_, OtError>(got)
        });
        let (sent, got) = run_engine_pair(&mut sender, &mut receiver).expect("no deadlock");
        sent.expect("send");
        got.expect("receive")
    }

    #[test]
    fn batched_transfers_share_one_commitment() {
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 8]).collect();
        let got = batch(NaorPinkasOt::fast_insecure().select(), &msgs, 3);
        for (r, round) in got.iter().enumerate() {
            assert_eq!(round[0], msgs[r]);
            assert_eq!(round[1], msgs[5 - r]);
        }
    }

    #[test]
    fn default_batch_state_is_a_noop() {
        // The simulator has no base phase: its batch state is the default
        // one, and its transfers run under it.
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sender = ProtocolEngine::new(|io| async move {
            let state = ot_begin_send_io(OtSelect::TrustedSim, &io, &mut rng).await?;
            Ok::<_, OtError>(state.np_send.is_none())
        });
        assert!(sender.poll_output().is_none(), "no base-phase frame");
        assert_eq!(sender.take_result(), Some(Ok(true)));
        let opened = vec![msgs[0].clone(), msgs[3].clone()];
        assert_eq!(batch(OtSelect::TrustedSim, &msgs, 1), [opened]);
    }

    #[test]
    fn engines_report_names() {
        assert_eq!(NaorPinkasOt::new().name(), "naor-pinkas-2048");
        assert_eq!(NaorPinkasOt::fast_insecure().name(), "naor-pinkas-768");
        assert_eq!(TrustedSimOt::new().name(), "trusted-sim");
    }

    #[test]
    fn dispatch_matches_blocking_engines() {
        // The sans-I/O dispatch path, pumped with no transport, must
        // return the same messages as the blocking driver over a duplex
        // channel for every engine.
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i ^ 0x5A; 6]).collect();
        let indices = [7usize, 0, 3];
        for sel in [
            NaorPinkasOt::fast_insecure().select(),
            crate::knx::IknpOt::fast_insecure().select(),
            TrustedSimOt::new().select(),
        ] {
            let (msgs_s, idx) = (&msgs, &indices);
            let mut rng_s = StdRng::seed_from_u64(11);
            let mut rng_r = StdRng::seed_from_u64(12);
            let mut sender = ProtocolEngine::new(|io| async move {
                let state = ot_begin_send_io(sel, &io, &mut rng_s).await?;
                ot_send_io(sel, &state, &io, &mut rng_s, msgs_s, 3).await
            });
            let mut receiver = ProtocolEngine::new(|io| async move {
                let state = ot_begin_receive_io(sel, &io).await?;
                ot_receive_io(sel, &state, &io, &mut rng_r, 8, idx).await
            });
            let (sent, received) = run_engine_pair(&mut sender, &mut receiver).expect("pump");
            sent.expect("send ok");
            let got = received.expect("receive ok");
            for (g, &i) in got.iter().zip(&indices) {
                assert_eq!(g, &msgs[i], "engine {sel:?}, index {i}");
            }
            let (sent, blocking) = blocking_transfer(sel, &msgs, 3, &indices);
            sent.expect("blocking send ok");
            assert_eq!(
                got,
                blocking.expect("blocking receive ok"),
                "engine {sel:?}"
            );
        }
    }
}
