//! OT and OMPE integration: the protocol stack below the ppcs schemes,
//! exercised across engines and groups — including one run
//! over the security-grade 2048-bit group.

use ppcs_math::{Algebra, FixedFpAlgebra, MvPolynomial};
use ppcs_ompe::{ompe_receive, ompe_send, OmpeParams};
use ppcs_ot::{otkn_receive, otkn_send, NaorPinkasOt, ObliviousTransfer, TrustedSimOt};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn naor_pinkas_2048_one_of_n_smoke() {
    // One transfer over the real security-grade group (slow: keep small).
    let group = NaorPinkasOt::new();
    let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
    let msgs_s = msgs.clone();
    let (_, got) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(1);
            otkn_send(group.group(), &ep, &mut rng, &msgs_s, 1).expect("send");
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(2);
            otkn_receive(NaorPinkasOt::new().group(), &ep, &mut rng, 4, &[2]).expect("recv")
        },
    );
    assert_eq!(got, [msgs[2].clone()]);
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

    let engines: Vec<Box<dyn ObliviousTransfer>> = vec![
        Box::new(TrustedSimOt::new()),
        Box::new(NaorPinkasOt::fast_insecure()),
    ];
    for engine in &engines {
        let secret = secret.clone();
        let alpha = alpha.clone();
        let engine: &dyn ObliviousTransfer = engine.as_ref();
        let (res, got) = std::thread::scope(|scope| {
            let (ep_a, ep_b) = ppcs_transport::duplex();
            let ha = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(10);
                ompe_send(
                    &FixedFpAlgebra::new(16),
                    &ep_a,
                    engine,
                    &mut rng,
                    &secret,
                    &params,
                )
            });
            let hb = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(11);
                ompe_receive(
                    &FixedFpAlgebra::new(16),
                    &ep_b,
                    engine,
                    &mut rng,
                    &alpha,
                    &params,
                )
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });
        res.expect("sender");
        assert_eq!(got.expect("receiver"), want, "{}", engine.name());
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
        let secret = secret.clone();
        let alpha = alpha.clone();
        let alg2 = alg;
        let (res, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(20 + sigma as u64);
                ompe_send(&alg2, &ep, &TrustedSimOt, &mut rng, &secret, &params)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(40 + sigma as u64);
                ompe_receive(
                    &FixedFpAlgebra::new(16),
                    &ep,
                    &TrustedSimOt,
                    &mut rng,
                    &alpha,
                    &params,
                )
                .expect("receive")
            },
        );
        res.expect("send");
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
        let secret = secret.clone();
        let (bytes, _) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(seed);
                ompe_send(
                    &FixedFpAlgebra::new(16),
                    &ep,
                    &TrustedSimOt,
                    &mut rng,
                    &secret,
                    &params,
                )
                .expect("send");
                ep.stats().bytes_received
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(100 + seed);
                ompe_receive(
                    &FixedFpAlgebra::new(16),
                    &ep,
                    &TrustedSimOt,
                    &mut rng,
                    &alpha,
                    &params,
                )
                .expect("receive")
            },
        );
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
        let alpha2 = alpha.clone();
        let (res, got) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1000 + case);
                ompe_send(
                    &FixedFpAlgebra::new(16),
                    &ep,
                    &TrustedSimOt,
                    &mut rng,
                    &secret,
                    &params,
                )
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2000 + case);
                ompe_receive(
                    &FixedFpAlgebra::new(16),
                    &ep,
                    &TrustedSimOt,
                    &mut rng,
                    &alpha2,
                    &params,
                )
                .expect("receive")
            },
        );
        res.expect("send");
        assert_eq!(got, exact, "case {case}");
        let got = alg.decode(&got, 2);
        assert!(
            (got - want).abs() < 1e-3,
            "case {case}: got {got}, want {want}"
        );
    }
}
