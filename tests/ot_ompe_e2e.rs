//! OT and OMPE integration: the protocol stack below the ppcs schemes,
//! exercised across engines and groups — including one run
//! over the security-grade 2048-bit group.

use ppcs_math::{Algebra, FixedFpAlgebra, Fp256, MvPolynomial};
use ppcs_ompe::{ompe_receive_io, ompe_send_io, OmpeParams};
use ppcs_ot::{
    commit_c_io, otkn_receive_io, otkn_send_io, receive_c_io, NaorPinkasOt, ObliviousTransfer,
    OtSelect, TrustedSimOt,
};
use ppcs_transport::{drive_blocking, run_pair, ProtocolEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One single-shot OMPE evaluation, each party on its own thread under
/// the blocking driver over a duplex channel; returns the receiver's
/// value and the bytes the sender's endpoint received.
fn ompe_over_duplex(
    sel: OtSelect,
    secret: &MvPolynomial<FixedFpAlgebra>,
    alpha: &[Fp256],
    params: &OmpeParams,
    (seed_s, seed_r): (u64, u64),
) -> (Fp256, u64) {
    let alg = &FixedFpAlgebra::new(16);
    let (sent, got) = run_pair(
        |ep| {
            let mut rng = StdRng::seed_from_u64(seed_s);
            let mut eng = ProtocolEngine::new(|io| async move {
                ompe_send_io(alg, &io, sel, &mut rng, secret, params).await
            });
            drive_blocking(&ep, &mut eng).map(|()| ep.stats().bytes_received)
        },
        |ep| {
            let mut rng = StdRng::seed_from_u64(seed_r);
            let mut eng = ProtocolEngine::new(|io| async move {
                ompe_receive_io(alg, &io, sel, &mut rng, alpha, params).await
            });
            drive_blocking(&ep, &mut eng)
        },
    );
    (got.expect("receive"), sent.expect("send"))
}

#[test]
fn naor_pinkas_2048_one_of_n_smoke() {
    // One transfer over the real security-grade group (slow: keep small).
    let group = NaorPinkasOt::new().group();
    let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
    let (sent, got) = run_pair(
        |ep| {
            let (msgs, mut rng) = (&msgs, StdRng::seed_from_u64(1));
            let mut eng = ProtocolEngine::new(|io| async move {
                let commitment = commit_c_io(group, &io, &mut rng)?;
                otkn_send_io(group, &io, &mut rng, &[(msgs, 1)], &commitment).await
            });
            drive_blocking(&ep, &mut eng)
        },
        |ep| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut eng = ProtocolEngine::new(|io| async move {
                let commitment = receive_c_io(group, &io).await?;
                otkn_receive_io(group, &io, &mut rng, &[(4, &[2])], &commitment).await
            });
            drive_blocking(&ep, &mut eng)
        },
    );
    sent.expect("send");
    assert_eq!(got.expect("recv"), [msgs[2].clone()]);
}

#[test]
fn ompe_engines_agree() {
    // The same OMPE instance must return the same value regardless of the
    // OT engine underneath.
    let alg = FixedFpAlgebra::new(16);
    let enc = |v: &[f64]| v.iter().map(|x| alg.encode(*x, 1)).collect::<Vec<_>>();
    let secret = MvPolynomial::affine(&alg, &enc(&[1.25, -0.5, 2.0]), alg.encode(0.75, 2));
    let alpha = enc(&[0.4, -0.9, 0.3]);
    let params = OmpeParams::new(1, 4, 3).unwrap();
    let want = secret.eval(&alg, &alpha);

    let engines: [&dyn ObliviousTransfer; 2] = [&TrustedSimOt, &NaorPinkasOt::fast_insecure()];
    for engine in engines {
        let (got, _) = ompe_over_duplex(engine.select(), &secret, &alpha, &params, (10, 11));
        assert_eq!(got, want, "{}", engine.name());
    }
}

#[test]
fn ompe_masking_degree_sweep_stays_correct() {
    // Correctness must be independent of the security parameter σ.
    let alg = FixedFpAlgebra::new(16);
    let weights = vec![alg.encode(0.5, 1), alg.encode(-1.5, 1)];
    let secret = MvPolynomial::affine(&alg, &weights, alg.encode(0.25, 2));
    let alpha = vec![alg.encode(0.8, 1), alg.encode(0.1, 1)];
    let want = 0.5 * 0.8 - 1.5 * 0.1 + 0.25;

    for sigma in 1..=8 {
        let params = OmpeParams::new(1, sigma, 2).unwrap();
        let seeds = (20 + sigma as u64, 40 + sigma as u64);
        let (got, _) = ompe_over_duplex(TrustedSimOt.select(), &secret, &alpha, &params, seeds);
        let got = alg.decode(&got, 2);
        assert!(
            (got - want).abs() < 1e-3,
            "sigma={sigma}: got {got}, want {want}"
        );
    }
}

#[test]
fn ompe_transcript_hides_cover_positions_from_wire_size() {
    // Every submitted point is the same size on the wire regardless of
    // whether it is a cover or a decoy — a sanity property for the
    // decoy construction.
    let alg = FixedFpAlgebra::new(16);
    let secret = MvPolynomial::affine(&alg, &[alg.encode(1.0, 1); 2], alg.zero());
    let alpha = [alg.encode(0.5, 1), alg.encode(-0.5, 1)];
    let params = OmpeParams::new(1, 3, 4).unwrap();

    let mut sizes = Vec::new();
    for seed in 0..5u64 {
        let seeds = (seed, 100 + seed);
        let (_, bytes) = ompe_over_duplex(TrustedSimOt.select(), &secret, &alpha, &params, seeds);
        sizes.push(bytes);
    }
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "transcript size must not depend on randomness: {sizes:?}"
    );
}

#[test]
fn large_batch_of_random_affine_instances() {
    // Property-style sweep: random secrets, random inputs, exact match.
    let mut rng = StdRng::seed_from_u64(77);
    for case in 0..25 {
        let n = rng.gen_range(1..6);
        let alg = FixedFpAlgebra::new(16);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let bias = rng.gen_range(-1.0..1.0);
        let alpha: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = ppcs_svm::dot(&weights, &alpha) + bias;
        let enc = |v: &[f64]| v.iter().map(|x| alg.encode(*x, 1)).collect::<Vec<_>>();
        let secret = MvPolynomial::affine(&alg, &enc(&weights), alg.encode(bias, 2));
        let alpha = enc(&alpha);
        let exact = secret.eval(&alg, &alpha);
        let params = OmpeParams::new(1, rng.gen_range(1..5), rng.gen_range(1..4)).unwrap();
        let seeds = (1000 + case, 2000 + case);
        let (got, _) = ompe_over_duplex(TrustedSimOt.select(), &secret, &alpha, &params, seeds);
        assert_eq!(got, exact, "case {case}");
        let got = alg.decode(&got, 2);
        assert!(
            (got - want).abs() < 1e-3,
            "case {case}: got {got}, want {want}"
        );
    }
}
