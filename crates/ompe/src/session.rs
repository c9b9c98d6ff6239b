//! Batch OMPE sessions: per-batch state reuse and coalesced transport.
//!
//! A classification batch runs one OMPE round per sample over the same
//! channel and parameter set. The session types here hoist everything a
//! round does not need to redo out of the per-round loop:
//!
//! * the sender's masking-polynomial storage is allocated once and
//!   refreshed in place each round (fresh randomness, no reallocation);
//! * the receiver's cover-polynomial storage is reused the same way;
//! * the OT engine's base-phase material (the Naor–Pinkas commitment
//!   `C = g^c`) is drawn and transmitted once per batch instead of once
//!   per base transfer;
//! * the receiver's point clouds for a whole batch travel in a single
//!   coalesced frame — one framed write instead of one per round;
//! * the rounds' oblivious transfers form one list
//!   ([`send_rounds_io`](OmpeSenderSession::send_rounds_io) /
//!   [`fetch_io`](OmpeReceiverSession::fetch_io)): one query message,
//!   sent in the same flight as the clouds, and one answer message for
//!   the whole batch, so a batch of any size is one round trip.
//!
//! A session's rounds may differ in degree bound
//! ([`set_degree_bound`](OmpeSenderSession::set_degree_bound)).
//!
//! The role logic lives in the `*_io` methods, written sans-I/O against a
//! [`FrameIo`] mailbox and an [`OtSelect`] engine selector — no
//! `Endpoint` appears in this crate, so any driver (blocking, reactor,
//! in-memory pair, transcript replay) can pump them. The single-round
//! entry points in [`crate::protocol`] run one-round sessions with no
//! batch state.

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};
use ppcs_math::{interp_batch, interpolate_at_zero, interpolate_at_zero_weighted};
use ppcs_math::{Algebra, Fp256, PolyEval, Polynomial};
use ppcs_ot::{ot_begin_receive_io, ot_begin_send_io, ot_begin_send_precomputed_io};
use ppcs_ot::{ot_receive_list_io, ot_send_list_io};
use ppcs_ot::{OtBatchState, OtSelect};
use ppcs_telemetry::Phase;
use ppcs_transport::{decode_seq, encode_seq, Encodable, Frame, FrameIo, TransportError};
use rand::seq::index::sample;
use rand::RngCore;

use crate::error::OmpeError;
use crate::offline::{params_fingerprint, OmpeSenderOffline};
use crate::protocol::{OmpeParams, KIND_OMPE_POINTS};

fn encode_elems<E: Encodable>(elems: &[E]) -> Bytes {
    let mut out = BytesMut::new();
    encode_seq(elems, &mut out);
    out.freeze()
}

/// One received point cloud: the `N` abscissae and the `N·r` flattened
/// input coordinates (row-major).
pub(crate) type PointCloud = (Vec<Fp256>, Vec<Fp256>);

/// Sender-side batch session: owns the per-batch state reused by every
/// [`send_round_io`](OmpeSenderSession::send_round_io).
#[derive(Debug)]
pub struct OmpeSenderSession {
    params: OmpeParams,
    /// Masking-polynomial storage, refreshed in place each round.
    mask: Polynomial,
    /// Masking polynomials drawn offline; each round consumes one before
    /// falling back to an inline refresh.
    prepared_masks: VecDeque<Polynomial>,
    ot_state: OtBatchState,
}

impl OmpeSenderSession {
    /// Sets up the per-batch state: masking-polynomial storage plus the
    /// OT engine's base-phase material (transmitted to the peer, which
    /// must set up an [`OmpeReceiverSession`] symmetrically).
    ///
    /// # Errors
    ///
    /// Transport failures during the OT base phase.
    pub async fn new_io(
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        params: OmpeParams,
    ) -> Result<Self, OmpeError> {
        let ot_state = ot_begin_send_io(sel, io, rng).await?;
        Ok(Self {
            params,
            mask: Polynomial::zero(),
            prepared_masks: VecDeque::new(),
            ot_state,
        })
    }

    /// Sets up the per-batch state from precomputed offline material: the
    /// OT base-phase commitment goes out without a single exponentiation
    /// and the offline masking polynomials are moved into the session,
    /// where each round consumes one before falling back to an inline
    /// refresh. Synchronous — the offline split leaves the sender's base
    /// phase with nothing to await.
    ///
    /// # Errors
    ///
    /// [`OmpeError::ConfigMismatch`] if `offline` was produced under a
    /// different OT engine, group, or parameter set; transport failures.
    pub fn new_precomputed_io(
        io: &FrameIo,
        sel: OtSelect,
        params: OmpeParams,
        offline: OmpeSenderOffline,
    ) -> Result<Self, OmpeError> {
        let expected = params_fingerprint(sel, &params);
        if offline.fingerprint != expected {
            return Err(OmpeError::ConfigMismatch {
                expected,
                actual: offline.fingerprint,
            });
        }
        let ot_state = ot_begin_send_precomputed_io(sel, io, &offline.commitment)?;
        Ok(Self {
            params,
            mask: Polynomial::zero(),
            prepared_masks: offline.masks,
            ot_state,
        })
    }

    /// A one-round session with no batch state; backs the single-shot
    /// [`ompe_send_io`](crate::protocol::ompe_send_io).
    pub(crate) fn single_shot(params: OmpeParams) -> Self {
        Self {
            params,
            mask: Polynomial::zero(),
            prepared_masks: VecDeque::new(),
            ot_state: OtBatchState::default(),
        }
    }

    /// Obliviously evaluates `secret` on the receiver's next hidden
    /// input (one OMPE round within the batch): the
    /// [`send_rounds_io`](OmpeSenderSession::send_rounds_io) of one.
    ///
    /// # Errors
    ///
    /// [`OmpeError::SecretMismatch`] if `secret` exceeds the agreed
    /// degree bound, plus transport/OT/protocol failures.
    pub async fn send_round_io<A, P>(
        &mut self,
        alg: &A,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        secret: &P,
    ) -> Result<(), OmpeError>
    where
        A: Algebra,
        P: PolyEval<A> + ?Sized,
    {
        self.send_rounds_io(alg, io, sel, rng, &[secret]).await
    }

    /// Runs one round per secret, in order, as one exchange: the
    /// receiver's point clouds arrive first, and the answers of all the
    /// rounds go through one oblivious-transfer list — one query message
    /// and one answer message for all of them.
    ///
    /// # Errors
    ///
    /// Same as [`send_round_io`](OmpeSenderSession::send_round_io).
    pub async fn send_rounds_io<A, P>(
        &mut self,
        alg: &A,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        secrets: &[&P],
    ) -> Result<(), OmpeError>
    where
        A: Algebra,
        P: PolyEval<A> + ?Sized,
    {
        let clouds = self.recv_clouds_io(alg, io, secrets).await?;
        self.answer_clouds_io(alg, io, sel, rng, secrets, &clouds)
            .await
    }

    /// Sets the degree bound of the rounds that follow. Rounds of one
    /// session may differ in degree bound; they share its `σ`, decoy
    /// factor and oblivious-transfer state.
    ///
    /// # Errors
    ///
    /// [`OmpeError::Params`] if the bound is zero or exceeds the caps of
    /// [`OmpeParams::new`].
    pub fn set_degree_bound(&mut self, degree_bound: usize) -> Result<(), OmpeError> {
        let (sigma, decoys) = (self.params.sigma, self.params.decoy_factor);
        self.params = OmpeParams::new(degree_bound, sigma, decoys)?;
        Ok(())
    }

    /// Checks every secret against the degree bound, then receives and
    /// validates one point cloud per secret: `N` distinct nonzero
    /// abscissae and `N` `r`-dimensional input vectors. The receiver
    /// sends all the clouds and its one transfer-list query in one
    /// flight, so every cloud is drained before the list's transfer
    /// starts — otherwise its receive would pop a queued point cloud
    /// instead of the query.
    async fn recv_clouds_io<A, P>(
        &self,
        alg: &A,
        io: &FrameIo,
        secrets: &[&P],
    ) -> Result<Vec<PointCloud>, OmpeError>
    where
        A: Algebra,
        P: PolyEval<A> + ?Sized,
    {
        let bound = self.params.degree_bound;
        if let Some(secret) = secrets.iter().find(|s| s.total_degree() > bound) {
            return Err(OmpeError::SecretMismatch(format!(
                "secret has total degree {}, agreed bound is {bound}",
                secret.total_degree(),
            )));
        }
        let n_points = self.params.num_points();
        let mut clouds = Vec::with_capacity(secrets.len());
        for secret in secrets {
            let _span = ppcs_telemetry::span(Phase::OmpePointCloud);
            let frame = io.recv().await?;
            if frame.kind != KIND_OMPE_POINTS {
                return Err(OmpeError::Transport(TransportError::UnexpectedFrame {
                    expected: KIND_OMPE_POINTS,
                    got: frame.kind,
                    payload_len: frame.payload.len(),
                }));
            }
            let mut payload = frame.payload;
            let xs: Vec<Fp256> = decode_seq(&mut payload)?;
            // Validate the abscissa count before decoding the (much larger)
            // coordinate block: an oversized cloud is rejected on the first
            // sequence instead of being fully materialized first.
            if xs.len() != n_points {
                return Err(OmpeError::Protocol(format!(
                    "receiver submitted {} points, parameters require {n_points}",
                    xs.len()
                )));
            }
            // `M(0) = 0`: the answer at a zero abscissa is the unmasked
            // `P(y)` for a `y` of the peer's choosing. A repeated one makes
            // its own retrieval singular — no honest receiver sends either.
            if xs
                .iter()
                .enumerate()
                .any(|(i, x)| alg.is_zero(x) || xs[..i].contains(x))
            {
                return Err(OmpeError::Protocol(
                    "receiver submitted a zero or repeated abscissa".into(),
                ));
            }
            let ys_flat: Vec<Fp256> = decode_seq(&mut payload)?;
            if !payload.is_empty() {
                return Err(OmpeError::Transport(TransportError::Decode(format!(
                    "frame kind 0x{KIND_OMPE_POINTS:04x}: {} trailing bytes after point cloud",
                    payload.len()
                ))));
            }
            let expected = n_points * secret.num_vars();
            if ys_flat.len() != expected {
                return Err(OmpeError::Protocol(format!(
                    "receiver submitted {} input coordinates, expected {expected}",
                    ys_flat.len(),
                )));
            }
            clouds.push((xs, ys_flat));
        }
        Ok(clouds)
    }

    /// Masks and evaluates every received point cloud, then transfers
    /// the answers of all of them as one oblivious-transfer list.
    pub(crate) async fn answer_clouds_io<A, P>(
        &mut self,
        alg: &A,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        secrets: &[&P],
        clouds: &[PointCloud],
    ) -> Result<(), OmpeError>
    where
        A: Algebra,
        P: PolyEval<A> + ?Sized,
    {
        let params = self.params;
        let mut answers = Vec::with_capacity(clouds.len());
        for (secret, (xs, ys_flat)) in secrets.iter().zip(clouds) {
            let _span = ppcs_telemetry::span(Phase::OmpeMask);
            let r = secret.num_vars();

            // Fresh masking polynomial M with M(0) = 0 and degree exactly
            // D: the next one drawn offline if the session was
            // precomputed and it has this round's degree, else drawn
            // inline into the storage set up at session creation.
            let degree = params.composite_degree();
            match self
                .prepared_masks
                .pop_front_if(|mask| mask.degree() == degree)
            {
                Some(mask) => self.mask = mask,
                None => self
                    .mask
                    .refresh_random_with_constant(alg, degree, alg.zero(), rng),
            }

            // Q(x_i, y_i) = M(x_i) + P(y_i) for every submitted point.
            // M is evaluated over the whole cloud in one batched pass.
            let mask_values = self.mask.eval_many(xs);
            let round: Vec<Vec<u8>> = mask_values
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let q = alg.add(m, &secret.eval(alg, &ys_flat[i * r..(i + 1) * r]));
                    encode_elems(std::slice::from_ref(&q)).to_vec()
                })
                .collect();
            answers.push(round);
        }

        // n-out-of-N oblivious transfer of every round's answers.
        let transfers: Vec<(&[Vec<u8>], usize)> = answers
            .iter()
            .map(|round| (round.as_slice(), params.num_covers()))
            .collect();
        ot_send_list_io(sel, &self.ot_state, io, rng, &transfers).await?;
        Ok(())
    }
}

/// One receiver round built but not yet transmitted — online by the
/// session, or from a precomputed [`BlindRound`](crate::BlindRound): the
/// point-cloud frame plus the local state needed to finish after the
/// oblivious transfer.
#[derive(Debug)]
pub struct PreparedRound {
    frame: Frame,
    xs: Vec<Fp256>,
    cover_positions: Vec<usize>,
}

impl PreparedRound {
    /// Assembles a round and frames its point cloud: the abscissae, then
    /// the flattened input vectors, as two sequences straight in the
    /// frame's payload. The offline path binds precomputed blind rounds
    /// into exactly this shape.
    pub(crate) fn new(xs: Vec<Fp256>, ys_flat: &[Fp256], cover_positions: Vec<usize>) -> Self {
        let elems = xs.len() + ys_flat.len();
        let mut payload = BytesMut::with_capacity(16 + elems * Fp256::MIN_WIRE_LEN);
        encode_seq(&xs, &mut payload);
        encode_seq(ys_flat, &mut payload);
        let frame = Frame {
            kind: KIND_OMPE_POINTS,
            payload: payload.freeze(),
        };
        Self {
            frame,
            xs,
            cover_positions,
        }
    }

    /// The point-cloud frame to transmit (cheap to clone; the payload is
    /// reference-counted).
    pub fn frame(&self) -> Frame {
        self.frame.clone()
    }

    /// The abscissae of the genuine covers, in the order retrieval
    /// returns their masked answers.
    pub(crate) fn cover_xs(&self) -> Vec<Fp256> {
        self.cover_positions.iter().map(|&p| self.xs[p]).collect()
    }
}

/// Receiver-side batch session: owns the per-batch state reused by every
/// round.
#[derive(Debug)]
pub struct OmpeReceiverSession {
    params: OmpeParams,
    /// Cover-polynomial storage, refreshed in place each round.
    cover_polys: Vec<Polynomial>,
    ot_state: OtBatchState,
}

impl OmpeReceiverSession {
    /// Sets up the per-batch state, consuming the sender's OT base-phase
    /// material from the mailbox.
    ///
    /// # Errors
    ///
    /// Transport failures during the OT base phase.
    pub async fn new_io(
        io: &FrameIo,
        sel: OtSelect,
        params: OmpeParams,
    ) -> Result<Self, OmpeError> {
        let ot_state = ot_begin_receive_io(sel, io).await?;
        Ok(Self {
            params,
            cover_polys: Vec::new(),
            ot_state,
        })
    }

    /// A one-round session with no batch state; backs the single-shot
    /// [`ompe_receive_io`](crate::protocol::ompe_receive_io).
    pub(crate) fn single_shot(params: OmpeParams) -> Self {
        Self {
            params,
            cover_polys: Vec::new(),
            ot_state: OtBatchState::default(),
        }
    }

    /// Builds one round's point cloud without transmitting it, so that a
    /// whole batch of rounds can go out in one coalesced write.
    ///
    /// # Errors
    ///
    /// [`OmpeError::Params`] on an empty input vector.
    pub(crate) fn prepare_round(
        &mut self,
        alg: &impl Algebra,
        rng: &mut dyn RngCore,
        alpha: &[Fp256],
    ) -> Result<PreparedRound, OmpeError> {
        if alpha.is_empty() {
            return Err(OmpeError::Params("input vector must be non-empty".into()));
        }
        let _span = ppcs_telemetry::span(Phase::OmpePointCloud);
        let params = &self.params;
        let r = alpha.len();
        let n_covers = params.num_covers();
        let n_points = params.num_points();

        // Hide each input coordinate as the constant term of a random
        // degree-σ polynomial, refreshing the session's storage.
        self.cover_polys.truncate(r);
        while self.cover_polys.len() < r {
            self.cover_polys.push(Polynomial::zero());
        }
        for (poly, a) in self.cover_polys.iter_mut().zip(alpha) {
            poly.refresh_random_with_constant(alg, params.sigma, *a, rng);
        }

        // Distinct nonzero abscissae for all N points.
        let xs = draw_distinct_points(alg, n_points, rng);

        // Choose which positions are genuine covers.
        let cover_positions: Vec<usize> = sample(rng, n_points, n_covers).into_vec();
        let mut is_cover = vec![false; n_points];
        for &pos in &cover_positions {
            is_cover[pos] = true;
        }

        // Build the submitted input vectors: S(x) at covers, disguises
        // elsewhere. Each cover polynomial is evaluated over all genuine
        // cover abscissae in one batched pass; the disguise draws stay
        // interleaved in position order so the RNG stream is identical to
        // the point-at-a-time construction.
        let cover_xs: Vec<Fp256> = (0..n_points)
            .filter(|&i| is_cover[i])
            .map(|i| xs[i])
            .collect();
        let cover_evals: Vec<Vec<Fp256>> = self
            .cover_polys
            .iter()
            .map(|poly| poly.eval_many(&cover_xs))
            .collect();
        let mut ys_flat = Vec::with_capacity(n_points * r);
        let mut cover_rank = 0usize;
        for &cover in is_cover.iter().take(n_points) {
            if cover {
                for evals in &cover_evals {
                    ys_flat.push(evals[cover_rank]);
                }
                cover_rank += 1;
            } else {
                for _ in 0..r {
                    ys_flat.push(alg.random_mask(rng));
                }
            }
        }

        Ok(PreparedRound::new(xs, &ys_flat, cover_positions))
    }

    /// Runs the oblivious transfer and interpolation for a prepared
    /// round whose point-cloud frame has already been transmitted;
    /// returns `P(α)`.
    ///
    /// # Errors
    ///
    /// Transport/OT/interpolation failures.
    pub(crate) async fn finish_round_io(
        &self,
        alg: &impl Algebra,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        round: &PreparedRound,
    ) -> Result<Fp256, OmpeError> {
        let values = self.fetch_io(io, sel, rng, &[round]).await?.concat();
        // Interpolate R(v) = M(v) + P(S(v)) and evaluate at zero:
        // R(0) = M(0) + P(S(0)) = P(α).
        let _span = ppcs_telemetry::span(Phase::OmpeInterpolate);
        let points: Vec<_> = round.cover_xs().into_iter().zip(values).collect();
        Ok(interpolate_at_zero(alg, &points)?)
    }

    /// Finishes rounds whose point-cloud frames have already been
    /// transmitted, each given with its precomputed Lagrange-at-zero
    /// weights (a bound [`BlindRound`](crate::BlindRound)), in one
    /// oblivious-transfer list; returns every round's `P(α)`, in order.
    ///
    /// # Errors
    ///
    /// Transport/OT failures, and [`OmpeError::Interpolation`] for
    /// weights that do not fit their round.
    pub async fn finish_weighted_io(
        &self,
        alg: &impl Algebra,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        rounds: &[(PreparedRound, Vec<Fp256>)],
    ) -> Result<Vec<Fp256>, OmpeError> {
        let prepared: Vec<&PreparedRound> = rounds.iter().map(|(round, _)| round).collect();
        let values = self.fetch_io(io, sel, rng, &prepared).await?;
        let _span = ppcs_telemetry::span(Phase::OmpeInterpolate);
        let mut out = Vec::with_capacity(rounds.len());
        for ((_, weights), ys) in rounds.iter().zip(&values) {
            out.push(interpolate_at_zero_weighted(alg, weights, ys)?);
        }
        Ok(out)
    }

    /// The oblivious-transfer half of finishing `rounds`: fetches and
    /// decodes every round's masked answers at its cover positions, all
    /// rounds in one transfer list, and returns them per round, in cover
    /// selection order.
    pub(crate) async fn fetch_io(
        &self,
        io: &FrameIo,
        sel: OtSelect,
        rng: &mut dyn RngCore,
        rounds: &[&PreparedRound],
    ) -> Result<Vec<Vec<Fp256>>, OmpeError> {
        let transfers: Vec<(usize, &[usize])> = rounds
            .iter()
            .map(|round| (round.xs.len(), round.cover_positions.as_slice()))
            .collect();
        let raw = ot_receive_list_io(sel, &self.ot_state, io, rng, &transfers).await?;
        let mut raw = raw.into_iter();
        let mut out = Vec::with_capacity(rounds.len());
        for round in rounds {
            let mut values = Vec::with_capacity(round.cover_positions.len());
            for raw_value in raw.by_ref().take(round.cover_positions.len()) {
                let values_in: Vec<Fp256> = decode_seq(&mut Bytes::from(raw_value))
                    .map_err(|e| OmpeError::Protocol(format!("bad OT payload: {e}")))?;
                let [value] = <[Fp256; 1]>::try_from(values_in).map_err(|_| {
                    OmpeError::Protocol("OT payload is not a single element".into())
                })?;
                values.push(value);
            }
            out.push(values);
        }
        Ok(out)
    }
}

/// Sender side of a batch of OMPE rounds: evaluates `secrets[i]` on the
/// receiver's `i`-th hidden input, every round's answers in one
/// transfer list ([`OmpeSenderSession::send_rounds_io`]).
///
/// # Errors
///
/// Any error of [`OmpeSenderSession::send_rounds_io`].
pub async fn ompe_send_batch_io<A, P>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    secrets: &[P],
    params: &OmpeParams,
) -> Result<(), OmpeError>
where
    A: Algebra,
    P: PolyEval<A>,
{
    if secrets.is_empty() {
        return Ok(());
    }
    let secrets: Vec<&P> = secrets.iter().collect();
    let mut session = OmpeSenderSession::new_io(io, sel, rng, *params).await?;
    session.send_rounds_io(alg, io, sel, rng, &secrets).await
}

/// Receiver side of a batch of OMPE rounds: learns `P_i(α_i)` for every
/// private input. All point clouds and the one transfer-list query
/// leave in one flight, and one answer message comes back.
///
/// # Errors
///
/// Any round's error; the batch stops at the first failure.
pub async fn ompe_receive_batch_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    alphas: &[Vec<Fp256>],
    params: &OmpeParams,
) -> Result<Vec<Fp256>, OmpeError>
where
    A: Algebra,
{
    if alphas.is_empty() {
        return Ok(Vec::new());
    }
    let mut session = OmpeReceiverSession::new_io(io, sel, *params).await?;
    let rounds: Vec<PreparedRound> = alphas
        .iter()
        .map(|alpha| session.prepare_round(alg, rng, alpha))
        .collect::<Result<_, _>>()?;
    // One flight carries every round's point cloud and the transfer
    // list's query.
    let frames: Vec<Frame> = rounds.iter().map(PreparedRound::frame).collect();
    io.hold();
    io.send_coalesced(&frames)?;
    let prepared: Vec<&PreparedRound> = rounds.iter().collect();
    let values = session.fetch_io(io, sel, rng, &prepared).await?;
    // Retrieve all the constant terms through one batched
    // interpolation: a single Fermat inversion serves the batch. It
    // runs after the answers arrive, where it overlaps whatever the
    // sender still does after sending them.
    let _span = ppcs_telemetry::span(Phase::OmpeInterpolate);
    let systems: Vec<Vec<_>> = rounds
        .iter()
        .zip(values)
        .map(|(round, values)| round.cover_xs().into_iter().zip(values).collect())
        .collect();
    Ok(interp_batch(alg, &systems)?)
}

/// Draws `count` pairwise-distinct nonzero evaluation points.
pub(crate) fn draw_distinct_points(
    alg: &impl Algebra,
    count: usize,
    rng: &mut dyn RngCore,
) -> Vec<Fp256> {
    let mut xs: Vec<Fp256> = Vec::with_capacity(count);
    while xs.len() < count {
        let candidate = alg.random_point(rng);
        if xs.contains(&candidate) {
            continue;
        }
        xs.push(candidate);
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use ppcs_math::{FixedFpAlgebra, MvPolynomial};
    use ppcs_ot::{NaorPinkasOt, ObliviousTransfer, TrustedSimOt};
    use ppcs_transport::{drive_blocking, run_engine_pair, run_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    static SIM: TrustedSimOt = TrustedSimOt;

    /// A whole batch, sender and receiver engines pumped against each
    /// other with no transport; returns the receiver's values.
    fn engine_batch<P: PolyEval<FixedFpAlgebra>>(
        sel: OtSelect,
        secrets: &[P],
        alphas: &[Vec<Fp256>],
        params: &OmpeParams,
        seeds: (u64, u64),
    ) -> Vec<Fp256> {
        let alg = &FixedFpAlgebra::new(16);
        let mut rng_s = StdRng::seed_from_u64(seeds.0);
        let mut rng_r = StdRng::seed_from_u64(seeds.1);
        let mut sender = ProtocolEngine::new(|io| async move {
            ompe_send_batch_io(alg, &io, sel, &mut rng_s, secrets, params).await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            ompe_receive_batch_io(alg, &io, sel, &mut rng_r, alphas, params).await
        });
        let (sent, received) = run_engine_pair(&mut sender, &mut receiver).expect("pump");
        sent.expect("send ok");
        received.expect("receive ok")
    }

    /// The same batch with each party on its own thread under the
    /// blocking driver over a duplex channel; returns the receiver's
    /// values and the frames its endpoint sent.
    fn blocking_batch<P: PolyEval<FixedFpAlgebra> + Sync>(
        secrets: &[P],
        alphas: &[Vec<Fp256>],
        params: &OmpeParams,
        seeds: (u64, u64),
    ) -> (Vec<Fp256>, u64) {
        let (alg, sel) = (&FixedFpAlgebra::new(16), SIM.select());
        let (sent, received) = run_pair(
            |ep| {
                let mut rng = StdRng::seed_from_u64(seeds.0);
                let mut sender = ProtocolEngine::new(|io| async move {
                    ompe_send_batch_io(alg, &io, sel, &mut rng, secrets, params).await
                });
                drive_blocking(&ep, &mut sender)
            },
            |ep| {
                let mut rng = StdRng::seed_from_u64(seeds.1);
                let mut receiver = ProtocolEngine::new(|io| async move {
                    ompe_receive_batch_io(alg, &io, sel, &mut rng, alphas, params).await
                });
                let values = drive_blocking(&ep, &mut receiver);
                (values, ep.stats().frames_sent)
            },
        );
        sent.expect("send ok");
        (received.0.expect("receive ok"), received.1)
    }

    #[test]
    fn batch_matches_sequential_over_field() {
        let alg = FixedFpAlgebra::new(16);
        let weights = vec![alg.encode(1.5, 1), alg.encode(-2.0, 1)];
        let secret = MvPolynomial::affine(&alg, &weights, alg.encode(3.0, 2));
        let params = OmpeParams::new(1, 5, 4).unwrap();
        let inputs: Vec<Vec<_>> = (0..8)
            .map(|i| {
                let v = f64::from(i) * 0.25 - 1.0;
                vec![alg.encode(v, 1), alg.encode(-v, 1)]
            })
            .collect();
        let secrets = vec![secret; inputs.len()];
        let values = engine_batch(SIM.select(), &secrets, &inputs, &params, (21, 22));
        for (input, got) in inputs.iter().zip(&values) {
            let a = alg.decode(&input[0], 1);
            let b = alg.decode(&input[1], 1);
            let want = 1.5 * a - 2.0 * b + 3.0;
            assert!(
                (alg.decode(got, 2) - want).abs() < 1e-3,
                "{} vs {want}",
                alg.decode(got, 2)
            );
        }
    }

    #[test]
    fn batch_point_clouds_travel_in_one_frame() {
        let alg = FixedFpAlgebra::new(16);
        let secret = MvPolynomial::affine(&alg, &[alg.encode_int(2)], alg.encode_int(1));
        let params = OmpeParams::new(1, 3, 2).unwrap();
        let secrets = vec![secret; 4];
        let alphas: Vec<Vec<Fp256>> = (0..4).map(|i| vec![alg.encode_int(i)]).collect();
        let (values, frames_sent) = blocking_batch(&secrets, &alphas, &params, (31, 32));
        // ONE frame carries all four point clouds and the sim OT's
        // index list for all four rounds.
        assert_eq!(frames_sent, 1, "one coalesced frame: clouds ‖ indices");
        for (i, v) in (0..).zip(&values) {
            assert_eq!(*v, alg.encode_int(2 * i + 1));
        }
    }

    #[test]
    fn batch_works_over_naor_pinkas_with_shared_commitment() {
        let alg = FixedFpAlgebra::new(16);
        let int = |v| alg.encode_int(v);
        let secret = MvPolynomial::affine(&alg, &[int(1), int(-1)], int(5));
        let params = OmpeParams::new(1, 2, 2).unwrap();
        let secrets = vec![secret; 3];
        let alphas: Vec<Vec<Fp256>> = [[10, 5], [-5, 2], [20, 20]]
            .map(|a| a.map(int).to_vec())
            .to_vec();
        let expected: Vec<Fp256> = alphas.iter().map(|a| a[0] - a[1] + int(5)).collect();
        let sel = NaorPinkasOt::fast_insecure().select();
        let values = engine_batch(sel, &secrets, &alphas, &params, (41, 42));
        assert_eq!(values, expected);
    }

    /// A secret that must never be evaluated: the cloud is refused first.
    struct Untouchable;

    impl PolyEval<FixedFpAlgebra> for Untouchable {
        fn num_vars(&self) -> usize {
            1
        }
        fn total_degree(&self) -> usize {
            1
        }
        fn eval(&self, _: &FixedFpAlgebra, _: &[Fp256]) -> Fp256 {
            panic!("the sender evaluated its secret on a malformed cloud");
        }
    }

    /// Sends `cloud` as a hostile receiver's first frame to each sender
    /// entry point (single, batch, offline batch) and returns their
    /// results.
    fn send_against(cloud: &Frame) -> Vec<Result<(), OmpeError>> {
        use crate::offline::{ompe_send_batch_offline_io, OmpeSenderOffline};
        use crate::protocol::ompe_send_io;

        let alg = FixedFpAlgebra::new(16);
        let params = OmpeParams::new(1, 2, 2).unwrap();
        let sel = SIM.select();
        (0..3)
            .map(|entry_point| {
                let (alg, params, secrets) = (&alg, &params, &[Untouchable]);
                let mut rng_s = StdRng::seed_from_u64(6);
                let mut sender = ProtocolEngine::new(|io| async move {
                    let rng = &mut rng_s;
                    match entry_point {
                        0 => ompe_send_io(alg, &io, sel, rng, &secrets[0], params).await,
                        1 => ompe_send_batch_io(alg, &io, sel, rng, secrets, params).await,
                        _ => {
                            let pack = OmpeSenderOffline::precompute(alg, sel, params, 1, rng);
                            ompe_send_batch_offline_io(alg, &io, sel, rng, secrets, params, pack)
                                .await
                        }
                    }
                });
                let frame = cloud.clone();
                let mut hostile =
                    ProtocolEngine::new(
                        |io| async move { io.send(frame).map_err(OmpeError::from) },
                    );
                let (sent, _) =
                    ppcs_transport::run_engine_pair(&mut sender, &mut hostile).expect("pump");
                sent
            })
            .collect()
    }

    /// A point-cloud payload: both sequences, nothing around them.
    fn cloud(xs: &[Fp256], ys_flat: &[Fp256]) -> BytesMut {
        let mut payload = BytesMut::new();
        encode_seq(xs, &mut payload);
        encode_seq(ys_flat, &mut payload);
        payload
    }

    #[test]
    fn zero_or_repeated_abscissa_is_refused_by_every_sender_entry_point() {
        let alg = FixedFpAlgebra::new(16);
        let params = OmpeParams::new(1, 2, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let honest = draw_distinct_points(&alg, params.num_points(), &mut rng);
        // x = 0 would be answered with M(0) + P(y) = P(y), unmasked.
        let mut zeroed = honest.clone();
        zeroed[3] = alg.zero();
        let mut repeated = honest.clone();
        repeated[4] = repeated[1];
        for xs in [zeroed, repeated] {
            let frame = Frame {
                kind: KIND_OMPE_POINTS,
                payload: cloud(&xs, &honest).freeze(),
            };
            for (entry_point, sent) in send_against(&frame).iter().enumerate() {
                assert!(
                    matches!(sent, Err(OmpeError::Protocol(m)) if m.contains("abscissa")),
                    "entry point {entry_point}: {sent:?}"
                );
            }
        }
    }

    #[test]
    fn a_cloud_with_a_trailing_byte_is_refused_by_every_sender_entry_point() {
        let alg = FixedFpAlgebra::new(16);
        let params = OmpeParams::new(1, 2, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let xs = draw_distinct_points(&alg, params.num_points(), &mut rng);
        let mut payload = cloud(&xs, &xs);
        payload.put_u8(0);
        let frame = Frame {
            kind: KIND_OMPE_POINTS,
            payload: payload.freeze(),
        };
        for (entry_point, sent) in send_against(&frame).iter().enumerate() {
            assert!(
                matches!(sent, Err(OmpeError::Transport(TransportError::Decode(m))) if m.contains("1 trailing bytes")),
                "entry point {entry_point}: {sent:?}"
            );
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        // Neither role sends or waits for anything.
        let alg = FixedFpAlgebra::new(16);
        let params = OmpeParams::new(1, 2, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut receiver = ProtocolEngine::new(|io| async move {
            ompe_receive_batch_io(&alg, &io, SIM.select(), &mut rng, &[], &params).await
        });
        assert!(receiver.poll_output().is_none());
        assert_eq!(receiver.take_result().expect("done").unwrap(), []);
    }

    #[test]
    fn engine_batch_matches_blocking_batch() {
        // The same batch, run once over threads + duplex under the
        // blocking driver and once as an engine pair with no transport,
        // must produce identical values.
        let alg = FixedFpAlgebra::new(16);
        let enc = |v| alg.encode(v, 1);
        let secret = MvPolynomial::affine(&alg, &[enc(2.0), enc(-1.0)], alg.encode(0.25, 2));
        let params = OmpeParams::new(1, 3, 2).unwrap();
        let secrets = vec![secret; 3];
        let alphas: Vec<Vec<Fp256>> = [[1.0, 2.0], [-0.5, 0.5], [3.0, 0.0]]
            .map(|a| a.map(enc).to_vec())
            .to_vec();
        let (blocking_values, _) = blocking_batch(&secrets, &alphas, &params, (51, 52));
        let engine_values = engine_batch(SIM.select(), &secrets, &alphas, &params, (51, 52));
        assert_eq!(engine_values, blocking_values);
    }
}
