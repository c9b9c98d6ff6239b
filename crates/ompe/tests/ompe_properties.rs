//! Property tests for OMPE: correctness must hold for arbitrary secret
//! polynomials, inputs, and parameter choices.

use ppcs_math::{Algebra, FixedFpAlgebra, Fp256, MvPolynomial};
use ppcs_ompe::{ompe_receive_io, ompe_send_io, OmpeParams};
use ppcs_ot::OtSelect;
use ppcs_transport::{run_engine_pair, ProtocolEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One OMPE evaluation of `secret` at `alpha` over the ideal OT, both
/// roles pumped against each other; returns the receiver's value.
fn evaluate(
    secret: &MvPolynomial<FixedFpAlgebra>,
    alpha: &[Fp256],
    params: &OmpeParams,
    seeds: (u64, u64),
) -> Fp256 {
    let alg = &FixedFpAlgebra::new(16);
    let mut rng_s = StdRng::seed_from_u64(seeds.0);
    let mut rng_r = StdRng::seed_from_u64(seeds.1);
    let sel = OtSelect::TrustedSim;
    let mut sender = ProtocolEngine::new(|io| async move {
        ompe_send_io(alg, &io, sel, &mut rng_s, secret, params).await
    });
    let mut receiver = ProtocolEngine::new(|io| async move {
        ompe_receive_io(alg, &io, sel, &mut rng_r, alpha, params).await
    });
    let (send, value) = run_engine_pair(&mut sender, &mut receiver).expect("no deadlock");
    send.expect("send");
    value.expect("receive")
}

/// One affine OMPE round over the field: `(P(α), the receiver's value)`,
/// with `P = w·y + b` and `α` encoded at scale 1 (output at scale 2).
fn run_affine(
    weights: &[f64],
    bias: f64,
    alpha: &[f64],
    sigma: usize,
    decoys: usize,
    seed: u64,
) -> (Fp256, Fp256) {
    let alg = FixedFpAlgebra::new(16);
    let enc = |v: &[f64]| v.iter().map(|x| alg.encode(*x, 1)).collect::<Vec<_>>();
    let secret = MvPolynomial::affine(&alg, &enc(weights), alg.encode(bias, 2));
    let alpha = enc(alpha);
    let exact = secret.eval(&alg, &alpha);
    let params = OmpeParams::new(1, sigma, decoys).expect("valid params");
    (
        exact,
        evaluate(&secret, &alpha, &params, (seed, seed ^ 0x5555)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn affine_ompe_is_correct_over_f64(
        weights in prop::collection::vec(-3.0f64..3.0, 1..6),
        bias in -2.0f64..2.0,
        alpha_raw in prop::collection::vec(-1.0f64..1.0, 6),
        sigma in 1usize..5,
        decoys in 1usize..4,
        seed in 0u64..1000,
    ) {
        // The float decision value is the oracle; the field carries it at
        // 16 fractional bits, so the tolerance is quantization, not 1e-5.
        let alpha = alpha_raw[..weights.len()].to_vec();
        let want: f64 = weights.iter().zip(&alpha).map(|(w, a)| w * a).sum::<f64>() + bias;
        let (exact, got) = run_affine(&weights, bias, &alpha, sigma, decoys, seed);
        prop_assert_eq!(got, exact);
        let got = FixedFpAlgebra::new(16).decode(&got, 2);
        prop_assert!(
            (got - want).abs() < 1e-3,
            "got {got}, want {want}"
        );
    }

    #[test]
    fn affine_ompe_is_exact_over_fixed_point(
        weights in prop::collection::vec(-3.0f64..3.0, 1..5),
        bias in -2.0f64..2.0,
        alpha_raw in prop::collection::vec(-1.0f64..1.0, 5),
        seed in 0u64..1000,
    ) {
        let alg = FixedFpAlgebra::new(16);
        let alpha: Vec<f64> = alpha_raw[..weights.len()].to_vec();
        let want: f64 = weights.iter().zip(&alpha).map(|(w, a)| w * a).sum::<f64>() + bias;

        let enc_weights: Vec<_> = weights.iter().map(|w| alg.encode(*w, 1)).collect();
        let secret = MvPolynomial::affine(&alg, &enc_weights, alg.encode(bias, 2));
        let enc_alpha: Vec<_> = alpha.iter().map(|a| alg.encode(*a, 1)).collect();
        let params = OmpeParams::new(1, 3, 2).expect("valid params");

        let value = evaluate(&secret, &enc_alpha, &params, (seed, seed ^ 0xAAAA));
        let got = alg.decode(&value, 2);
        // Quantization error only: inputs and weights each quantized at
        // 2^-16, products bounded by dim · 3 · 2^-16 · 2.
        prop_assert!(
            (got - want).abs() < 1e-3,
            "got {got}, want {want}"
        );
    }

    #[test]
    fn quadratic_two_variate_ompe(
        c0 in -1.0f64..1.0,
        c1 in -1.0f64..1.0,
        c2 in -1.0f64..1.0,
        x in -1.0f64..1.0,
        y in -1.0f64..1.0,
        seed in 0u64..500,
    ) {
        // P(x, y) = c2·x·y + c1·x + c0, every term at output scale 3.
        let alg = FixedFpAlgebra::new(16);
        let secret = MvPolynomial::from_terms(
            2,
            vec![
                (alg.encode(c2, 1), vec![1, 1]),
                (alg.encode(c1, 2), vec![1, 0]),
                (alg.encode(c0, 3), vec![0, 0]),
            ],
        );
        let want = c2 * x * y + c1 * x + c0;
        let params = OmpeParams::new(2, 2, 2).expect("valid params");
        let alpha = vec![alg.encode(x, 1), alg.encode(y, 1)];
        let exact = secret.eval(&alg, &alpha);
        let got = evaluate(&secret, &alpha, &params, (seed, seed ^ 0x1234));
        // The receiver learns P(α) exactly; decoding it loses only the
        // 2^-16 quantization of the inputs and coefficients.
        prop_assert_eq!(got, exact);
        let got = alg.decode(&got, 3);
        prop_assert!(
            (got - want).abs() < 1e-3,
            "got {got}, want {want}"
        );
    }
}
