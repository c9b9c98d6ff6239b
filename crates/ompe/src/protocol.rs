//! The OMPE sender and receiver.

use ppcs_math::{Algebra, Fp256, PolyEval};
use ppcs_ot::OtSelect;
use ppcs_transport::FrameIo;
use rand::RngCore;

use crate::error::OmpeError;
use crate::session::{OmpeReceiverSession, OmpeSenderSession};

/// A point cloud: the `N·r` input coordinates, row-major, of the points
/// at the public abscissae `1..=N`, with no length prefix.
pub(crate) const KIND_OMPE_POINTS: u16 = 0x0400;

/// Public parameters both parties must agree on before running OMPE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OmpeParams {
    /// Public upper bound on the total degree of the sender's secret
    /// polynomial (`p` in the paper's nonlinear protocol, 1 for linear).
    pub degree_bound: usize,
    /// Degree of the receiver's input-masking polynomials (`q` in the
    /// paper). Larger values raise the interpolation threshold an
    /// eavesdropper would need.
    pub sigma: usize,
    /// Decoy multiplier (`m` such that `N = n·m` points are submitted,
    /// `k` in the paper's notation for the classification scheme).
    /// A factor of 1 disables decoys — only meaningful together with the
    /// ideal-functionality OT in functional-benchmark mode.
    pub decoy_factor: usize,
}

impl OmpeParams {
    /// Largest accepted composite degree `degree_bound · sigma`.
    ///
    /// Parameter sets are often decoded from peer-supplied bytes, so the
    /// constructor bounds them above as well as below: the interpolation
    /// work and point-cloud size are polynomial in these values, and an
    /// unchecked peer-chosen degree is a resource-exhaustion vector. The
    /// largest parameter sets in the paper's experiments are two orders
    /// of magnitude below these caps.
    pub const MAX_COMPOSITE_DEGREE: usize = 4096;
    /// Largest accepted total point count `(D + 1) · decoy_factor`.
    pub const MAX_POINTS: usize = 65536;

    /// Validates and builds a parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`OmpeError::Params`] if any parameter is zero, or if the
    /// composite degree or total point count exceeds its cap.
    pub fn new(degree_bound: usize, sigma: usize, decoy_factor: usize) -> Result<Self, OmpeError> {
        if degree_bound == 0 {
            return Err(OmpeError::Params("degree_bound must be ≥ 1".into()));
        }
        if sigma == 0 {
            return Err(OmpeError::Params("sigma must be ≥ 1".into()));
        }
        if decoy_factor == 0 {
            return Err(OmpeError::Params("decoy_factor must be ≥ 1".into()));
        }
        let composite = degree_bound
            .checked_mul(sigma)
            .filter(|&d| d <= Self::MAX_COMPOSITE_DEGREE)
            .ok_or_else(|| {
                OmpeError::Params(format!(
                    "composite degree {degree_bound}·{sigma} exceeds cap {}",
                    Self::MAX_COMPOSITE_DEGREE
                ))
            })?;
        (composite + 1)
            .checked_mul(decoy_factor)
            .filter(|&n| n <= Self::MAX_POINTS)
            .ok_or_else(|| {
                OmpeError::Params(format!(
                    "point count ({composite}+1)·{decoy_factor} exceeds cap {}",
                    Self::MAX_POINTS
                ))
            })?;
        Ok(Self {
            degree_bound,
            sigma,
            decoy_factor,
        })
    }

    /// The composite degree `D = degree_bound · sigma` of the masked
    /// univariate polynomial the receiver reconstructs.
    pub fn composite_degree(&self) -> usize {
        self.degree_bound * self.sigma
    }

    /// The number of genuine cover points, `n = D + 1`.
    pub fn num_covers(&self) -> usize {
        self.composite_degree() + 1
    }

    /// The total number of submitted points, `N = n · decoy_factor`.
    pub fn num_points(&self) -> usize {
        self.num_covers() * self.decoy_factor
    }
}

/// Sender side of OMPE: obliviously evaluates `secret` on the receiver's
/// hidden input, over a [`FrameIo`] mailbox and an [`OtSelect`] engine
/// selector.
///
/// # Errors
///
/// [`OmpeError::SecretMismatch`] if `secret` exceeds the agreed degree
/// bound, plus transport/OT/protocol failures.
pub async fn ompe_send_io<A, P>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    secret: &P,
    params: &OmpeParams,
) -> Result<(), OmpeError>
where
    A: Algebra,
    P: PolyEval<A> + ?Sized,
{
    OmpeSenderSession::single_shot(*params)
        .send_round_io(alg, io, sel, rng, secret)
        .await
}

/// Receiver side of OMPE: learns `P(α)` for the private input `alpha`.
///
/// # Errors
///
/// [`OmpeError::Params`] on empty input, plus transport/OT/interpolation
/// failures.
pub async fn ompe_receive_io<A>(
    alg: &A,
    io: &FrameIo,
    sel: OtSelect,
    rng: &mut dyn RngCore,
    alpha: &[Fp256],
    params: &OmpeParams,
) -> Result<Fp256, OmpeError>
where
    A: Algebra,
{
    let session = OmpeReceiverSession::single_shot(*params);
    let round = session.prepare_round(alg, rng, alpha)?;
    io.send(round.frame())?;
    let values = session
        .finish_rounds_io(alg, io, sel, rng, &[round])
        .await?;
    let &[value] = &values[..] else {
        return Err(OmpeError::Protocol("one round returned no value".into()));
    };
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_math::{FixedFpAlgebra, MvPolynomial};
    use ppcs_ot::{NaorPinkasOt, ObliviousTransfer};
    use ppcs_transport::{run_engine_pair, ProtocolEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One single-shot evaluation, sender and receiver engines pumped
    /// against each other; returns both parties' results.
    fn run_roles(
        alg: &FixedFpAlgebra,
        secret: &MvPolynomial<FixedFpAlgebra>,
        alpha: &[Fp256],
        (params_s, params_r): (&OmpeParams, &OmpeParams),
        sel: OtSelect,
        seed: u64,
    ) -> (Result<(), OmpeError>, Result<Fp256, OmpeError>) {
        let mut rng_s = StdRng::seed_from_u64(seed);
        let mut rng_r = StdRng::seed_from_u64(seed + 1);
        let mut sender = ProtocolEngine::new(|io| async move {
            ompe_send_io(alg, &io, sel, &mut rng_s, secret, params_s).await
        });
        let mut receiver = ProtocolEngine::new(|io| async move {
            ompe_receive_io(alg, &io, sel, &mut rng_r, alpha, params_r).await
        });
        run_engine_pair(&mut sender, &mut receiver).expect("no deadlock")
    }

    fn run_ompe(
        alg: FixedFpAlgebra,
        secret: MvPolynomial<FixedFpAlgebra>,
        alpha: Vec<Fp256>,
        params: OmpeParams,
        sel: OtSelect,
        seed: u64,
    ) -> Fp256 {
        let (sent, value) = run_roles(&alg, &secret, &alpha, (&params, &params), sel, seed);
        sent.unwrap();
        value.unwrap()
    }

    const SIM: OtSelect = OtSelect::TrustedSim;

    #[test]
    fn linear_polynomial_over_f64() {
        // Every value is a multiple of 2^-16, so the field meets the float
        // decision value exactly, seed after seed.
        let alg = FixedFpAlgebra::new(16);
        let enc = |v: &[f64]| v.iter().map(|x| alg.encode(*x, 1)).collect::<Vec<_>>();
        let secret = MvPolynomial::affine(&alg, &enc(&[1.5, -2.0, 0.25]), alg.encode(3.0, 2));
        let alpha = enc(&[2.0, 1.0, 4.0]);
        let want = 1.5 * 2.0 - 2.0 + 0.25 * 4.0 + 3.0;
        let params = OmpeParams::new(1, 5, 4).unwrap();
        for seed in 0..5 {
            let got = run_ompe(alg, secret.clone(), alpha.clone(), params, SIM, seed * 17);
            assert_eq!(alg.decode(&got, 2), want, "seed {seed}");
        }
    }

    #[test]
    fn linear_polynomial_over_field_is_exact() {
        let alg = FixedFpAlgebra::new(16);
        let weights = vec![alg.encode(1.5, 1), alg.encode(-2.0, 1)];
        let bias = alg.encode(3.0, 2);
        let secret = MvPolynomial::affine(&alg, &weights, bias);
        let alpha = vec![alg.encode(0.5, 1), alg.encode(-0.25, 1)];
        let params = OmpeParams::new(1, 5, 4).unwrap();
        let got = run_ompe(alg, secret, alpha, params, SIM, 3);
        let want = 1.5 * 0.5 - 2.0 * -0.25 + 3.0;
        assert!(
            (alg.decode(&got, 2) - want).abs() < 1e-3,
            "{} vs {want}",
            alg.decode(&got, 2)
        );
    }

    #[test]
    fn degree_four_two_variate_over_field() {
        // The similarity polynomial shape: degree 4 in 2 variables.
        let alg = FixedFpAlgebra::new(12);
        // P(y1,y2) = (y1 - 1)^2 · y2^2, expanded; inputs at scale 1, so a
        // degree-k term needs its coefficient at scale (4-k) for a
        // uniform output scale of 4.
        let terms = vec![
            (alg.encode(1.0, 0), vec![2, 2]),
            (alg.encode(-2.0, 1), vec![1, 2]),
            (alg.encode(1.0, 2), vec![0, 2]),
        ];
        let secret = MvPolynomial::from_terms(2, terms);
        let alpha = vec![alg.encode(3.0, 1), alg.encode(-2.0, 1)];
        let params = OmpeParams::new(4, 2, 3).unwrap();
        let got = run_ompe(alg, secret, alpha, params, SIM, 4);
        let want = (3.0f64 - 1.0).powi(2) * 4.0;
        assert!(
            (alg.decode(&got, 4) - want).abs() < 1e-2,
            "{} vs {want}",
            alg.decode(&got, 4)
        );
    }

    #[test]
    fn works_over_real_naor_pinkas_ot() {
        let alg = FixedFpAlgebra::new(16);
        let int = |v| alg.encode_int(v);
        let secret = MvPolynomial::affine(&alg, &[int(2), int(1)], int(-5));
        let params = OmpeParams::new(1, 3, 2).unwrap();
        let sel = NaorPinkasOt::fast_insecure().select();
        let got = run_ompe(alg, secret, vec![int(5), int(5)], params, sel, 9);
        assert_eq!(got, int(10 + 5 - 5));
    }

    #[test]
    fn sender_rejects_overdegree_secret() {
        let alg = FixedFpAlgebra::new(16);
        let secret = MvPolynomial::from_terms(1, vec![(Fp256::ONE, vec![3])]);
        let params = OmpeParams::new(2, 2, 2).unwrap();
        let alpha = [Fp256::ONE];
        let (send_res, _) = run_roles(&alg, &secret, &alpha, (&params, &params), SIM, 1);
        assert!(matches!(
            send_res.unwrap_err(),
            OmpeError::SecretMismatch(_)
        ));
    }

    #[test]
    fn params_reject_zeroes() {
        assert!(OmpeParams::new(0, 1, 1).is_err());
        assert!(OmpeParams::new(1, 0, 1).is_err());
        assert!(OmpeParams::new(1, 1, 0).is_err());
        let p = OmpeParams::new(3, 4, 5).unwrap();
        assert_eq!(p.composite_degree(), 12);
        assert_eq!(p.num_covers(), 13);
        assert_eq!(p.num_points(), 65);
    }

    #[test]
    fn params_reject_resource_exhausting_values() {
        // Composite degree beyond the cap, with and without overflow.
        assert!(OmpeParams::new(OmpeParams::MAX_COMPOSITE_DEGREE + 1, 1, 1).is_err());
        assert!(OmpeParams::new(usize::MAX, usize::MAX, 1).is_err());
        // Degree within cap but the decoy blow-up exceeds MAX_POINTS.
        assert!(OmpeParams::new(64, 64, 1).is_ok());
        assert!(OmpeParams::new(64, 64, usize::MAX).is_err());
        assert!(OmpeParams::new(64, 64, 1000).is_err());
        // The largest experiment-scale parameters still pass.
        assert!(OmpeParams::new(6, 16, 5).is_ok());
    }

    #[test]
    fn point_count_mismatch_is_detected() {
        // Receiver and sender disagree on the decoy factor.
        let alg = FixedFpAlgebra::new(16);
        let secret = MvPolynomial::affine(&alg, &[Fp256::ONE], Fp256::ZERO);
        let params_s = OmpeParams::new(1, 2, 4).unwrap();
        let params_r = OmpeParams::new(1, 2, 3).unwrap();
        let alpha = [Fp256::ONE];
        let params = (&params_s, &params_r);
        let (send_res, _) = run_roles(&alg, &secret, &alpha, params, SIM, 1);
        assert!(matches!(send_res.unwrap_err(), OmpeError::Protocol(_)));
    }
}
