//! Offline/online phase split for OMPE.
//!
//! Everything an OMPE round does that is independent of the actual
//! inputs can run ahead of time, from reactor idle slots or a background
//! fill thread:
//!
//! * the **sender's** offline pack ([`OmpeSenderOffline`]) holds the OT
//!   base-phase commitment (one modular exponentiation for Naor–Pinkas)
//!   plus a queue of pre-drawn masking polynomials `M` with `M(0) = 0`;
//! * the **receiver's** offline pack ([`OmpeReceiverOffline`]) holds
//!   [*blind rounds*](BlindRound): full point clouds drawn for a fixed
//!   input dimension with every cover polynomial's constant term left at
//!   zero, plus the Lagrange-at-zero weights over the cover abscissae,
//!   which are public points of `1..=N` and need no field inversion
//!   ([`lagrange_zero_weights_small`]). The online phase binds an input
//!   `α` by shifting each cover column by `α_i` (`S_i = S̄_i + α_i`); the
//!   inline construction is a blind round drawn and bound at once, so
//!   for a fixed RNG stream both send the same bytes, and the retrieval
//!   interpolation collapses to one dot product.
//!
//! Offline material is **bound to the configuration that produced it**:
//! each pack carries a [`params_fingerprint`] mixing the OT engine
//! selector with the OMPE parameter set, and consumption under any other
//! configuration is refused with [`OmpeError::ConfigMismatch`] — stale
//! pool entries can never silently serve a session with different
//! security parameters. When a pack runs dry mid-batch the session falls
//! back to the inline (monolithic) construction, so exhaustion degrades
//! latency, never correctness.

use std::collections::VecDeque;

use bytes::BytesMut;
use ppcs_math::{lagrange_zero_weights_small, Algebra, Fp256, PolyEval, Polynomial};
use ppcs_ot::{select_fingerprint, OtOfflineCommitment, OtSelect};
use ppcs_telemetry::Phase;
use ppcs_transport::{Encodable, Frame, FrameIo};
use rand::seq::index::sample;
use rand::RngCore;

use crate::error::OmpeError;
use crate::protocol::{OmpeParams, KIND_OMPE_POINTS};
use crate::session::{OmpeReceiverSession, OmpeSenderSession, PreparedRound};

/// SplitMix64 finalizer: the avalanche step used to fold parameter words
/// into the fingerprint.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprints an (OT engine, OMPE parameter set) configuration.
///
/// Offline packs record this value at precompute time; the online phase
/// refuses material whose fingerprint does not match the consuming
/// session's configuration. Distinct engines, groups, and parameter sets
/// map to distinct fingerprints (up to 64-bit collisions).
pub fn params_fingerprint(sel: OtSelect, params: &OmpeParams) -> u64 {
    let mut h = select_fingerprint(sel);
    for v in [
        params.degree_bound as u64,
        params.sigma as u64,
        params.decoy_factor as u64,
    ] {
        h = mix64(h ^ mix64(v.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    }
    h
}

/// Sender-side offline pack: the input-independent half of a sender
/// session, produced ahead of time and consumed by
/// [`OmpeSenderSession::new_precomputed_io`].
#[derive(Debug)]
pub struct OmpeSenderOffline {
    pub(crate) fingerprint: u64,
    pub(crate) commitment: OtOfflineCommitment,
    pub(crate) masks: VecDeque<Polynomial>,
}

impl OmpeSenderOffline {
    /// Draws the OT base-phase commitment and `rounds` masking
    /// polynomials (`M(0) = 0`, degree exactly the composite degree), all
    /// off the critical path.
    pub fn precompute(
        alg: &impl Algebra,
        sel: OtSelect,
        params: &OmpeParams,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        let _span = ppcs_telemetry::span(Phase::Precompute);
        Self {
            fingerprint: params_fingerprint(sel, params),
            commitment: OtOfflineCommitment::precompute(sel, rng),
            masks: VecDeque::new(),
        }
        .with_masks(alg, params, rounds, rng)
    }

    /// Queues `rounds` more masking polynomials of `params`' composite
    /// degree after those already drawn: the pack of a session whose
    /// rounds [differ in degree bound](OmpeSenderSession::set_degree_bound).
    /// A round consumes the next mask only if it has that round's degree.
    pub fn with_masks(
        mut self,
        alg: &impl Algebra,
        params: &OmpeParams,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        let degree = params.composite_degree();
        for _ in 0..rounds {
            let mask = Polynomial::random_with_constant(alg, degree, alg.zero(), rng);
            self.masks.push_back(mask);
        }
        self
    }

    /// The configuration fingerprint this pack was produced under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// How many rounds' worth of masking polynomials remain.
    pub fn rounds_available(&self) -> usize {
        self.masks.len()
    }
}

/// One precomputed receiver round: a full point cloud with zero-constant
/// cover polynomials, ready to be bound to an input vector.
///
/// [`draw`](Self::draw) a round, then [`bind`](Self::bind) it to its
/// input once that exists; the bound rounds finish through
/// [`OmpeReceiverSession::finish_rounds_io`]. The cloud's abscissae are
/// the public points `1..=N`: position `k` (0-based) is `x = k + 1`, so
/// only its coordinates travel.
#[derive(Debug)]
pub struct BlindRound {
    /// `N`, the number of points.
    points: usize,
    /// Cover positions in OT-selection (sample) order.
    cover_positions: Vec<usize>,
    /// The flattened submitted inputs with `S̄_i(x)` (zero constant) at
    /// covers and disguises elsewhere; binding adds `α_i` per cover slot.
    base_ys: Vec<Fp256>,
    /// Lagrange-at-zero weights over the cover abscissae, in selection
    /// order — the order retrieval returns the masked answers in.
    zero_weights: Vec<Fp256>,
    /// Input dimension the round was drawn for.
    dim: usize,
}

impl BlindRound {
    /// Draws one blind round of `params` for inputs of dimension `dim`:
    /// the cover polynomials, the cover positions, then the disguises in
    /// position order. Each cover polynomial's Horner steps at `x ≤ N`
    /// are products by a word, and the retrieval weights over the
    /// covers cost no inversion.
    ///
    /// # Errors
    ///
    /// [`OmpeError::Params`] if `dim` is zero.
    pub fn draw(
        alg: &impl Algebra,
        params: &OmpeParams,
        dim: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self, OmpeError> {
        if dim == 0 {
            return Err(OmpeError::Params("input dimension must be ≥ 1".into()));
        }
        let n_points = params.num_points();
        let cover_polys: Vec<Polynomial> = (0..dim)
            .map(|_| Polynomial::random_with_constant(alg, params.sigma, alg.zero(), rng))
            .collect();
        let cover_positions = sample(rng, n_points, params.num_covers()).into_vec();
        let mut is_cover = vec![false; n_points];
        for &pos in &cover_positions {
            is_cover[pos] = true;
        }
        let mut base_ys = Vec::with_capacity(n_points * dim);
        for (pos, &cover) in is_cover.iter().enumerate() {
            if cover {
                base_ys.extend(cover_polys.iter().map(|poly| poly.eval_u64(pos as u64 + 1)));
            } else {
                base_ys.extend((0..dim).map(|_| alg.random_mask(rng)));
            }
        }
        let cover_xs: Vec<u64> = cover_positions.iter().map(|&p| p as u64 + 1).collect();
        Ok(Self {
            points: n_points,
            zero_weights: lagrange_zero_weights_small(&cover_xs)?,
            cover_positions,
            base_ys,
            dim,
        })
    }

    /// Binds the blind round to a concrete input: shifts each cover
    /// column by `α_i` and encodes the point-cloud frame, the `N·dim`
    /// coordinates row-major and nothing else. Consumes the round —
    /// binding is the online phase's hot path, and moving the
    /// precomputed vectors keeps it allocation-free apart from the wire
    /// frame itself.
    ///
    /// # Errors
    ///
    /// [`OmpeError::Params`] if `alpha` is not of the round's dimension.
    pub fn bind(mut self, alg: &impl Algebra, alpha: &[Fp256]) -> Result<PreparedRound, OmpeError> {
        if alpha.len() != self.dim {
            return Err(OmpeError::Params(format!(
                "offline round was precomputed for dimension {}, input has dimension {}",
                self.dim,
                alpha.len()
            )));
        }
        let _span = ppcs_telemetry::span(Phase::OmpePointCloud);
        for &pos in &self.cover_positions {
            let row = &mut self.base_ys[pos * self.dim..(pos + 1) * self.dim];
            for (y, a) in row.iter_mut().zip(alpha) {
                *y = alg.add(y, a);
            }
        }
        let mut payload = BytesMut::with_capacity(self.base_ys.len() * Fp256::MIN_WIRE_LEN);
        for y in &self.base_ys {
            y.encode(&mut payload);
        }
        Ok(PreparedRound {
            frame: Frame {
                kind: KIND_OMPE_POINTS,
                payload: payload.freeze(),
            },
            points: self.points,
            cover_positions: self.cover_positions,
            zero_weights: self.zero_weights,
        })
    }
}

/// Receiver-side offline pack: blind rounds for a fixed parameter set and
/// input dimension, consumed by [`ompe_receive_batch_offline_io`].
#[derive(Debug)]
pub struct OmpeReceiverOffline {
    fingerprint: u64,
    dim: usize,
    rounds: VecDeque<BlindRound>,
}

impl OmpeReceiverOffline {
    /// Draws `rounds` blind rounds for inputs of dimension `dim`.
    ///
    /// # Errors
    ///
    /// [`OmpeError::Params`] if `dim` is zero.
    pub fn precompute(
        alg: &impl Algebra,
        sel: OtSelect,
        params: &OmpeParams,
        dim: usize,
        rounds: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self, OmpeError> {
        let _span = ppcs_telemetry::span(Phase::Precompute);
        let drawn = (0..rounds)
            .map(|_| BlindRound::draw(alg, params, dim, rng))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            fingerprint: params_fingerprint(sel, params),
            dim,
            rounds: drawn.into(),
        })
    }

    /// The configuration fingerprint this pack was produced under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The input dimension the rounds were drawn for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// How many blind rounds remain.
    pub fn rounds_available(&self) -> usize {
        self.rounds.len()
    }

    pub(crate) fn pop_round(&mut self) -> Option<BlindRound> {
        self.rounds.pop_front()
    }
}

/// Sender side of a batch of OMPE rounds using precomputed offline
/// material: the online phase is reduced to evaluating the secret on the
/// received clouds and running their one oblivious-transfer list.
///
/// The offline pack is consumed whole (its commitment is single-use);
/// rounds beyond the pack's mask supply fall back to inline draws.
///
/// # Errors
///
/// [`OmpeError::ConfigMismatch`] if `offline` was produced under a
/// different configuration, plus every error of
/// [`ompe_send_batch_io`](crate::session::ompe_send_batch_io).
pub async fn ompe_send_batch_offline_io<A, P>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    secrets: &[P],
    params: &OmpeParams,
    offline: OmpeSenderOffline,
) -> Result<(), OmpeError>
where
    A: Algebra,
    P: PolyEval<A>,
{
    if secrets.is_empty() {
        return Ok(());
    }
    let secrets: Vec<&P> = secrets.iter().collect();
    OmpeSenderSession::new_precomputed_io(io, sel, *params, offline)?
        .send_rounds_io(alg, io, sel, rng, &secrets)
        .await
}

/// Single-round sender using precomputed offline material; backs the
/// multiclass and similarity protocols' offline paths.
///
/// # Errors
///
/// Same as [`ompe_send_batch_offline_io`].
pub async fn ompe_send_offline_io<A, P>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    secret: &P,
    params: &OmpeParams,
    offline: OmpeSenderOffline,
) -> Result<(), OmpeError>
where
    A: Algebra,
    P: PolyEval<A> + ?Sized,
{
    let mut session = OmpeSenderSession::new_precomputed_io(io, sel, *params, offline)?;
    session.send_round_io(alg, io, sel, rng, secret).await
}

/// Receiver side of a batch of OMPE rounds using precomputed blind
/// rounds: the online phase binds each input into a ready point cloud
/// and retrieves each value through a dot product with its weights.
/// Rounds beyond the pack's supply fall back to the inline construction.
///
/// # Errors
///
/// [`OmpeError::ConfigMismatch`] if `offline` was produced under a
/// different configuration, plus every error of
/// [`ompe_receive_batch_io`](crate::session::ompe_receive_batch_io).
pub async fn ompe_receive_batch_offline_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    alphas: &[Vec<Fp256>],
    params: &OmpeParams,
    offline: &mut OmpeReceiverOffline,
) -> Result<Vec<Fp256>, OmpeError>
where
    A: Algebra,
{
    if alphas.is_empty() {
        return Ok(Vec::new());
    }
    let expected = params_fingerprint(sel, params);
    if offline.fingerprint != expected {
        return Err(OmpeError::ConfigMismatch {
            expected,
            actual: offline.fingerprint,
        });
    }
    let session = OmpeReceiverSession::new_io(io, sel, *params).await?;
    let mut rounds = Vec::with_capacity(alphas.len());
    for alpha in alphas {
        rounds.push(match offline.pop_round() {
            Some(blind) => blind.bind(alg, alpha)?,
            None => session.prepare_round(alg, rng, alpha)?,
        });
    }
    // One flight: every point cloud and the transfer list's query.
    let frames: Vec<Frame> = rounds.iter().map(PreparedRound::frame).collect();
    io.hold();
    io.send_coalesced(&frames)?;
    session.finish_rounds_io(alg, io, sel, rng, &rounds).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ompe_receive_batch_io, ompe_send_batch_io};
    use ppcs_math::{FixedFpAlgebra, MvPolynomial};
    use ppcs_ot::{NaorPinkasOt, ObliviousTransfer, TrustedSimOt};
    use ppcs_transport::{run_engine_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    static SIM: TrustedSimOt = TrustedSimOt;

    fn test_setup() -> (
        FixedFpAlgebra,
        MvPolynomial<FixedFpAlgebra>,
        Vec<Vec<Fp256>>,
        OmpeParams,
    ) {
        let alg = FixedFpAlgebra::new(16);
        let weights = vec![alg.encode(1.5, 1), alg.encode(-2.0, 1)];
        let secret = MvPolynomial::affine(&alg, &weights, alg.encode(3.0, 2));
        let alphas: Vec<Vec<_>> = (0..4)
            .map(|i| {
                let v = f64::from(i) * 0.25 - 0.5;
                vec![alg.encode(v, 1), alg.encode(-v, 1)]
            })
            .collect();
        let params = OmpeParams::new(1, 4, 3).unwrap();
        (alg, secret, alphas, params)
    }

    fn run_monolithic(sel: OtSelect, seed_s: u64, seed_r: u64) -> Vec<Fp256> {
        let (alg, secret, alphas, params) = test_setup();
        let secrets = vec![secret; alphas.len()];
        let mut rng_s = StdRng::seed_from_u64(seed_s);
        let mut rng_r = StdRng::seed_from_u64(seed_r);
        let mut sender = ProtocolEngine::new(|io| async move {
            ompe_send_batch_io(&alg, &io, sel, &mut rng_s, &secrets, &params).await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            ompe_receive_batch_io(&alg, &io, sel, &mut rng_r, &alphas, &params).await
        });
        let (sent, received) = run_engine_pair(&mut sender, &mut receiver).expect("pump");
        sent.expect("send ok");
        received.expect("receive ok")
    }

    fn run_offline(
        sel: OtSelect,
        seed_s: u64,
        seed_r: u64,
        sender_rounds: usize,
        receiver_rounds: usize,
    ) -> Vec<Fp256> {
        let (alg, secret, alphas, params) = test_setup();
        let secrets = vec![secret; alphas.len()];
        // Sender offline material comes from an unrelated RNG: the masks
        // cancel at zero, so the outputs cannot depend on it. The
        // receiver threads ONE stream through precompute and the online
        // phase, mirroring the monolithic prepare-then-finish order.
        let mut rng_off = StdRng::seed_from_u64(seed_s ^ 0xDEAD_BEEF);
        let sender_off =
            OmpeSenderOffline::precompute(&alg, sel, &params, sender_rounds, &mut rng_off);
        let mut rng_s = StdRng::seed_from_u64(seed_s);
        let mut rng_r = StdRng::seed_from_u64(seed_r);
        let mut receiver_off =
            OmpeReceiverOffline::precompute(&alg, sel, &params, 2, receiver_rounds, &mut rng_r)
                .unwrap();
        let mut sender = ProtocolEngine::new(|io| async move {
            ompe_send_batch_offline_io(&alg, &io, sel, &mut rng_s, &secrets, &params, sender_off)
                .await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            ompe_receive_batch_offline_io(
                &alg,
                &io,
                sel,
                &mut rng_r,
                &alphas,
                &params,
                &mut receiver_off,
            )
            .await
        });
        let (sent, received) = run_engine_pair(&mut sender, &mut receiver).expect("pump");
        sent.expect("send ok");
        received.expect("receive ok")
    }

    #[test]
    fn offline_batch_is_bit_identical_to_monolithic() {
        let sel = SIM.select();
        let mono = run_monolithic(sel, 21, 22);
        let off = run_offline(sel, 21, 22, 4, 4);
        assert_eq!(mono, off, "offline/online split must not change outputs");
    }

    #[test]
    fn offline_batch_over_naor_pinkas() {
        static CELL: std::sync::OnceLock<NaorPinkasOt> = std::sync::OnceLock::new();
        let ot: &'static dyn ObliviousTransfer = CELL.get_or_init(NaorPinkasOt::fast_insecure);
        let sel = ot.select();
        let mono = run_monolithic(sel, 31, 32);
        let off = run_offline(sel, 31, 32, 4, 4);
        assert_eq!(mono, off);
    }

    #[test]
    fn exhausted_packs_fall_back_inline() {
        // Fewer offline rounds than batch rounds on both sides: the tail
        // runs inline and the outputs stay correct (not bit-identical to
        // the monolithic run — the RNG streams diverge — but exact).
        let (alg, _, alphas, _) = test_setup();
        let sel = SIM.select();
        let values = run_offline(sel, 51, 52, 1, 2);
        for (alpha, got) in alphas.iter().zip(&values) {
            let a = alg.decode(&alpha[0], 1);
            let b = alg.decode(&alpha[1], 1);
            let want = 1.5 * a - 2.0 * b + 3.0;
            assert!(
                (alg.decode(got, 2) - want).abs() < 1e-3,
                "{} vs {want}",
                alg.decode(got, 2)
            );
        }
    }

    #[test]
    fn blind_round_binds_to_monolithic_bytes() {
        // Same RNG stream ⇒ the bound point-cloud frame is byte-identical
        // to the monolithic construction.
        let (alg, _, alphas, params) = test_setup();
        let sel = SIM.select();
        let alpha = &alphas[1];
        let mut rng_mono = StdRng::seed_from_u64(7);
        let mono = OmpeReceiverSession::single_shot(params);
        let round_mono = mono.prepare_round(&alg, &mut rng_mono, alpha).unwrap();
        let mut rng_off = StdRng::seed_from_u64(7);
        let mut off =
            OmpeReceiverOffline::precompute(&alg, sel, &params, 2, 1, &mut rng_off).unwrap();
        let blind = off.pop_round().unwrap();
        let round_off = blind.bind(&alg, alpha).unwrap();
        assert_eq!(round_mono.frame().payload, round_off.frame().payload);
        assert_eq!(round_off.zero_weights, round_mono.zero_weights);
        assert_eq!(round_off.zero_weights.len(), params.num_covers());
    }

    #[test]
    fn cross_config_consumption_is_refused() {
        let (alg, secret, alphas, params) = test_setup();
        let sel = SIM.select();
        let other = OmpeParams::new(1, 5, 3).unwrap();
        assert_ne!(
            params_fingerprint(sel, &params),
            params_fingerprint(sel, &other)
        );

        // Sender pack produced under `other`, consumed under `params`.
        let mut rng = StdRng::seed_from_u64(61);
        let stale = OmpeSenderOffline::precompute(&alg, sel, &other, 1, &mut rng);
        let io = FrameIo::new();
        let err = OmpeSenderSession::new_precomputed_io(&io, sel, params, stale).unwrap_err();
        assert!(matches!(err, OmpeError::ConfigMismatch { .. }), "{err}");

        // Receiver pack produced under `other`, consumed under `params`.
        let mut stale_r =
            OmpeReceiverOffline::precompute(&alg, sel, &other, 2, 1, &mut rng).unwrap();
        let mut rng_r = StdRng::seed_from_u64(62);
        let mut receiver = ProtocolEngine::new(|io| async move {
            ompe_receive_batch_offline_io(
                &alg,
                &io,
                sel,
                &mut rng_r,
                &alphas,
                &params,
                &mut stale_r,
            )
            .await
        });
        let mut idle = ProtocolEngine::new(|_io| async move { Ok::<(), OmpeError>(()) });
        let (received, _) = run_engine_pair(&mut receiver, &mut idle).expect("pump");
        assert!(matches!(
            received.unwrap_err(),
            OmpeError::ConfigMismatch { .. }
        ));
        let _ = secret;
    }

    #[test]
    fn fingerprints_separate_parameter_sets() {
        let sel = SIM.select();
        let sets = [
            OmpeParams::new(1, 4, 3).unwrap(),
            OmpeParams::new(1, 4, 4).unwrap(),
            OmpeParams::new(1, 5, 3).unwrap(),
            OmpeParams::new(2, 4, 3).unwrap(),
            OmpeParams::new(4, 1, 3).unwrap(),
        ];
        let prints: Vec<u64> = sets.iter().map(|p| params_fingerprint(sel, p)).collect();
        for (i, a) in prints.iter().enumerate() {
            for (j, b) in prints.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "sets {i} and {j} collide");
            }
        }
    }
}
