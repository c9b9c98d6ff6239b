//! The object-safe k-out-of-N OT interface consumed by OMPE, plus two of
//! its engines: cryptographic Naor–Pinkas and the ideal-functionality
//! simulator used for large-scale functional benchmarks.
//!
//! Role logic written sans-I/O cannot hold a `&dyn ObliviousTransfer`
//! *and* stay transport-free (the trait's blocking methods take an
//! `Endpoint`), so each engine exposes an [`OtSelect`] value — a plain
//! `Copy` selector — and the [`ot_send_list_io`]/[`ot_receive_list_io`]
//! dispatch functions execute the corresponding sans-I/O role over a
//! [`FrameIo`]. They run a *list* of k-out-of-N transfers in one
//! exchange: one query message and one answer message for the whole
//! list (the extension engine sends one table per query, as it does for
//! a single transfer). [`ot_send_io`]/[`ot_receive_io`] are the list of
//! one, byte for byte what a single transfer always put on the wire. The
//! blocking trait methods remain thin wrappers that drive the same role
//! logic over an `Endpoint`.

use ppcs_crypto::DhGroup;
use ppcs_telemetry::Phase;
use ppcs_transport::{drive_blocking, Endpoint, FrameIo, ProtocolEngine};
use rand::RngCore;

use crate::base::{
    commit_c, commit_c_io, receive_c, receive_c_io, ReceiverCommitment, SenderCommitment,
};
use crate::error::{check_indices, OtError};
use crate::kn::{otkn_receive_io, otkn_send_io};
use crate::knx::{knx_receive_io, knx_send_io};

const KIND_SIM_INDICES: u16 = 0x0300;
const KIND_SIM_MESSAGES: u16 = 0x0301;

/// Per-batch OT session state: base-phase material an engine draws once
/// and reuses for every transfer of a batch. Created by
/// [`ObliviousTransfer::begin_batch_send`] /
/// [`ObliviousTransfer::begin_batch_receive`]; opaque to callers.
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

/// A k-out-of-N oblivious transfer engine.
///
/// The sender calls [`send`](ObliviousTransfer::send) with all `N`
/// messages (and the agreed `k`); the receiver calls
/// [`receive`](ObliviousTransfer::receive) with its `k` indices and gets
/// exactly those messages back, in order.
pub trait ObliviousTransfer: Send + Sync {
    /// Sender side of a k-out-of-N transfer.
    ///
    /// # Errors
    ///
    /// Implementation-specific [`OtError`]s; all report transport
    /// failures and unequal message lengths.
    fn send(
        &self,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        messages: &[Vec<u8>],
        k: usize,
    ) -> Result<(), OtError>;

    /// Receiver side; returns the messages at `indices`.
    ///
    /// # Errors
    ///
    /// Implementation-specific [`OtError`]s; all validate index ranges.
    fn receive(
        &self,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        num_messages: usize,
        indices: &[usize],
    ) -> Result<Vec<Vec<u8>>, OtError>;

    /// A short label for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// The transport-free selector for this engine, consumed by sans-I/O
    /// role logic via [`ot_send_io`] / [`ot_receive_io`].
    fn select(&self) -> OtSelect;

    /// One-time sender-side base-phase setup for a batch of transfers
    /// over `ep`.
    ///
    /// The default is a no-op for engines without a base phase. The
    /// Naor–Pinkas engine draws and transmits its commitment
    /// `(C, g^r)` here, so every transfer of the batch runs under it
    /// instead of opening one of its own. The peer must call
    /// [`begin_batch_receive`](ObliviousTransfer::begin_batch_receive)
    /// symmetrically.
    ///
    /// # Errors
    ///
    /// Transport failures while transmitting setup material.
    fn begin_batch_send(
        &self,
        _ep: &Endpoint,
        _rng: &mut dyn RngCore,
    ) -> Result<OtBatchState, OtError> {
        Ok(OtBatchState::default())
    }

    /// Receiver half of [`begin_batch_send`](ObliviousTransfer::begin_batch_send).
    ///
    /// # Errors
    ///
    /// Transport failures while receiving setup material.
    fn begin_batch_receive(&self, _ep: &Endpoint) -> Result<OtBatchState, OtError> {
        Ok(OtBatchState::default())
    }

    /// [`send`](ObliviousTransfer::send) reusing per-batch state.
    ///
    /// # Errors
    ///
    /// Same as [`send`](ObliviousTransfer::send).
    fn send_batched(
        &self,
        _state: &OtBatchState,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        messages: &[Vec<u8>],
        k: usize,
    ) -> Result<(), OtError> {
        self.send(ep, rng, messages, k)
    }

    /// [`receive`](ObliviousTransfer::receive) reusing per-batch state.
    ///
    /// # Errors
    ///
    /// Same as [`receive`](ObliviousTransfer::receive).
    fn receive_batched(
        &self,
        _state: &OtBatchState,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        num_messages: usize,
        indices: &[usize],
    ) -> Result<Vec<Vec<u8>>, OtError> {
        self.receive(ep, rng, num_messages, indices)
    }
}

/// Sans-I/O sender-side base-phase setup for the engine selected by
/// `sel` (see [`ObliviousTransfer::begin_batch_send`]).
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
pub async fn sim_send_io(io: &FrameIo, transfers: &[(&[Vec<u8>], usize)]) -> Result<(), OtError> {
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
pub async fn sim_receive_io(
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
/// use ppcs_ot::{NaorPinkasOt, ObliviousTransfer};
/// use ppcs_transport::run_pair;
/// use rand::SeedableRng;
///
/// let ot = NaorPinkasOt::fast_insecure(); // 768-bit group: tests only
/// let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 4]).collect();
/// let msgs2 = msgs.clone();
/// let ot2 = ot.clone();
/// let (_, got) = run_pair(
///     move |ep| {
///         let mut rng = rand::rngs::StdRng::seed_from_u64(1);
///         ot.send(&ep, &mut rng, &msgs, 2).unwrap();
///     },
///     move |ep| {
///         let mut rng = rand::rngs::StdRng::seed_from_u64(2);
///         ot2.receive(&ep, &mut rng, 8, &[6, 1]).unwrap()
///     },
/// );
/// assert_eq!(got, vec![msgs2[6].clone(), msgs2[1].clone()]);
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
    fn send(
        &self,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        messages: &[Vec<u8>],
        k: usize,
    ) -> Result<(), OtError> {
        self.send_batched(&OtBatchState::default(), ep, rng, messages, k)
    }

    fn receive(
        &self,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        num_messages: usize,
        indices: &[usize],
    ) -> Result<Vec<Vec<u8>>, OtError> {
        self.receive_batched(&OtBatchState::default(), ep, rng, num_messages, indices)
    }

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

    fn begin_batch_send(
        &self,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
    ) -> Result<OtBatchState, OtError> {
        Ok(OtBatchState::sender(commit_c(self.group, ep, rng)?))
    }

    fn begin_batch_receive(&self, ep: &Endpoint) -> Result<OtBatchState, OtError> {
        Ok(OtBatchState::receiver(receive_c(self.group, ep)?))
    }

    fn send_batched(
        &self,
        state: &OtBatchState,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        messages: &[Vec<u8>],
        k: usize,
    ) -> Result<(), OtError> {
        let mut engine = ProtocolEngine::new(|io| async move {
            ot_send_io(self.select(), state, &io, rng, messages, k).await
        });
        drive_blocking(ep, &mut engine)
    }

    fn receive_batched(
        &self,
        state: &OtBatchState,
        ep: &Endpoint,
        rng: &mut dyn RngCore,
        num_messages: usize,
        indices: &[usize],
    ) -> Result<Vec<Vec<u8>>, OtError> {
        let mut engine = ProtocolEngine::new(|io| async move {
            ot_receive_io(self.select(), state, &io, rng, num_messages, indices).await
        });
        drive_blocking(ep, &mut engine)
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
    fn send(
        &self,
        ep: &Endpoint,
        _rng: &mut dyn RngCore,
        messages: &[Vec<u8>],
        k: usize,
    ) -> Result<(), OtError> {
        let mut engine =
            ProtocolEngine::new(|io| async move { sim_send_io(&io, &[(messages, k)]).await });
        drive_blocking(ep, &mut engine)
    }

    fn receive(
        &self,
        ep: &Endpoint,
        _rng: &mut dyn RngCore,
        num_messages: usize,
        indices: &[usize],
    ) -> Result<Vec<Vec<u8>>, OtError> {
        let mut engine = ProtocolEngine::new(|io| async move {
            sim_receive_io(&io, &[(num_messages, indices)]).await
        });
        drive_blocking(ep, &mut engine)
    }

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
    use ppcs_transport::run_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exercise(ot: impl ObliviousTransfer + Clone + 'static) {
        let msgs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 8]).collect();
        let msgs_s = msgs.clone();
        let ot_r = ot.clone();
        let indices = vec![9usize, 0, 4];
        let idx = indices.clone();
        let (_, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                ot.send(&ep, &mut rng, &msgs_s, 3).unwrap();
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                ot_r.receive(&ep, &mut rng, 10, &idx).unwrap()
            },
        );
        for (g, &i) in got.iter().zip(&indices) {
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
        let ot = TrustedSimOt::new();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let (res, _) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                TrustedSimOt::new().send(&ep, &mut rng, &msgs, 2)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                // Receiver tries to open 3 positions when k = 2.
                let _ = ot.receive(&ep, &mut rng, 4, &[0, 1, 2]);
            },
        );
        assert!(matches!(res.unwrap_err(), OtError::Protocol(_)));
    }

    #[test]
    fn naor_pinkas_rejects_wrong_k() {
        // The keys frame shows the sender how many positions the receiver
        // opens: more or fewer than agreed is an error, not a wait.
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        for (opened, indices) in [(3, &[0usize, 1, 2][..]), (1, &[3][..])] {
            let msgs = msgs.clone();
            let (res, _) = run_pair(
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(1);
                    NaorPinkasOt::fast_insecure().send(&ep, &mut rng, &msgs, 2)
                },
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(2);
                    let _ = NaorPinkasOt::fast_insecure().receive(&ep, &mut rng, 4, indices);
                },
            );
            assert_eq!(
                res.unwrap_err(),
                OtError::Protocol(format!("receiver opened {opened} positions, agreed k = 2"))
            );
        }
    }

    #[test]
    fn batched_transfers_share_one_commitment() {
        let ot = NaorPinkasOt::fast_insecure();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 8]).collect();
        let msgs_s = msgs.clone();
        let ot_r = ot.clone();
        let rounds = 3usize;
        let (_, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(5);
                let state = ot.begin_batch_send(&ep, &mut rng).unwrap();
                for _ in 0..rounds {
                    ot.send_batched(&state, &ep, &mut rng, &msgs_s, 2).unwrap();
                }
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(6);
                let state = ot_r.begin_batch_receive(&ep).unwrap();
                (0..rounds)
                    .map(|r| {
                        ot_r.receive_batched(&state, &ep, &mut rng, 6, &[r, 5 - r])
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            },
        );
        for (r, round) in got.iter().enumerate() {
            assert_eq!(round[0], msgs[r]);
            assert_eq!(round[1], msgs[5 - r]);
        }
    }

    #[test]
    fn default_batch_state_is_a_noop() {
        let ot = TrustedSimOt::new();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let msgs_s = msgs.clone();
        let (_, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                let state = TrustedSimOt::new().begin_batch_send(&ep, &mut rng).unwrap();
                TrustedSimOt::new()
                    .send_batched(&state, &ep, &mut rng, &msgs_s, 1)
                    .unwrap();
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                let state = ot.begin_batch_receive(&ep).unwrap();
                ot.receive_batched(&state, &ep, &mut rng, 4, &[2]).unwrap()
            },
        );
        assert_eq!(got, vec![msgs[2].clone()]);
    }

    #[test]
    fn engines_report_names() {
        assert_eq!(NaorPinkasOt::new().name(), "naor-pinkas-2048");
        assert_eq!(NaorPinkasOt::fast_insecure().name(), "naor-pinkas-768");
        assert_eq!(TrustedSimOt::new().name(), "trusted-sim");
    }

    #[test]
    fn dispatch_matches_blocking_engines() {
        // The sans-I/O dispatch path must return the same messages as the
        // blocking trait methods for every engine.
        use ppcs_transport::{run_engine_pair, ProtocolEngine};
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i ^ 0x5A; 6]).collect();
        let indices = vec![7usize, 0, 3];
        for sel in [
            NaorPinkasOt::fast_insecure().select(),
            crate::knx::IknpOt::fast_insecure().select(),
            TrustedSimOt::new().select(),
        ] {
            let msgs_s = msgs.clone();
            let idx = indices.clone();
            let mut rng_s = StdRng::seed_from_u64(11);
            let mut rng_r = StdRng::seed_from_u64(12);
            let mut sender = ProtocolEngine::new(|io| async move {
                let state = ot_begin_send_io(sel, &io, &mut rng_s).await?;
                ot_send_io(sel, &state, &io, &mut rng_s, &msgs_s, 3).await
            });
            let mut receiver = ProtocolEngine::new(|io| async move {
                let state = ot_begin_receive_io(sel, &io).await?;
                ot_receive_io(sel, &state, &io, &mut rng_r, 8, &idx).await
            });
            let (sent, received) = run_engine_pair(&mut sender, &mut receiver).expect("pump");
            sent.expect("send ok");
            let got = received.expect("receive ok");
            for (g, &i) in got.iter().zip(&indices) {
                assert_eq!(g, &msgs[i], "engine {sel:?}, index {i}");
            }
        }
    }
}
