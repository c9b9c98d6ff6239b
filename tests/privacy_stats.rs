//! Statistical checks of the Level-1 hiding claims over the field
//! backend: what actually crosses the wire should look uniform.

use bytes::Bytes;
use ppcs_math::{Algebra, FixedFpAlgebra, Fp256, Polynomial};
use ppcs_ompe::{ompe_receive_io, OmpeParams};
use ppcs_ot::{OtSelect, TrustedSimOt};
use ppcs_transport::{run_pair, Encodable, ProtocolEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chi-square statistic over byte values against uniform.
fn chi_square_bytes(bytes: &[u8]) -> f64 {
    let mut counts = [0u64; 256];
    for &b in bytes {
        counts[b as usize] += 1;
    }
    let expected = bytes.len() as f64 / 256.0;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// The `(abscissae, flattened coordinates)` of a recorded point-cloud
/// payload of `dim`-coordinate points: the coordinates, row-major, and
/// nothing else, at the public abscissae `1..=N`.
fn decode_cloud(blob: Vec<u8>, dim: usize) -> (Vec<Fp256>, Vec<Fp256>) {
    let mut input = Bytes::from(blob);
    let ys: Vec<Fp256> = (0..input.len() / 32)
        .map(|_| Fp256::decode(&mut input).expect("ys"))
        .collect();
    assert!(input.is_empty(), "trailing bytes after the cloud");
    let xs = (1..=ys.len() / dim)
        .map(|x| Fp256::from_u64(x as u64))
        .collect();
    (xs, ys)
}

/// 99.9th percentile of chi-square with 255 degrees of freedom ≈ 341.
const CHI2_LIMIT: f64 = 341.0;

#[test]
fn cover_polynomial_evaluations_look_uniform() {
    // The client hides each input coordinate as the constant term of a
    // random degree-σ polynomial; its evaluations at the public points
    // 1..=N must be indistinguishable from uniform field elements, or
    // the submitted covers would leak which positions are genuine.
    let alg = FixedFpAlgebra::new(16);
    let mut rng = StdRng::seed_from_u64(1);
    let secret_input = alg.encode(0.73, 1); // a fixed, very non-uniform value

    // N = 8: a linear round's cloud at σ = 3 with two-fold decoys.
    let mut bytes = Vec::new();
    for x in (1..=8u64).cycle().take(2000) {
        let poly = Polynomial::random_with_constant(&alg, 3, secret_input, &mut rng);
        let y = poly.eval(&alg, &Fp256::from_u64(x));
        bytes.extend_from_slice(&y.to_bytes());
    }
    let chi2 = chi_square_bytes(&bytes);
    assert!(
        chi2 < CHI2_LIMIT,
        "cover evaluations deviate from uniform: χ² = {chi2:.1} over {} bytes",
        bytes.len()
    );
}

#[test]
fn raw_encoded_inputs_are_visibly_non_uniform() {
    // Sanity check on the test's power: the same statistic must *reject*
    // unmasked fixed-point encodings (mostly-zero high limbs).
    let alg = FixedFpAlgebra::new(16);
    let mut bytes = Vec::new();
    for i in 0..2000 {
        let v = alg.encode(0.73 + (i as f64) * 1e-6, 1);
        bytes.extend_from_slice(&v.to_bytes());
    }
    let chi2 = chi_square_bytes(&bytes);
    assert!(
        chi2 > 10.0 * CHI2_LIMIT,
        "unmasked encodings should be blatantly non-uniform: χ² = {chi2:.1}"
    );
}

#[test]
fn ompe_point_cloud_hides_the_input_bytes() {
    // Intercept the exact message the OMPE sender would receive and
    // check the submitted input coordinates (covers + decoys mixed) are
    // byte-uniform — the wire leaks nothing about the fixed input.
    let alg = FixedFpAlgebra::new(16);
    let alpha = vec![alg.encode(0.73, 1), alg.encode(-0.11, 1)];
    let params = OmpeParams::new(1, 3, 3).unwrap();

    let mut ys_bytes = Vec::new();
    for seed in 0..80u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (alg, alpha, params) = (&alg, &alpha, &params);
        let mut receiver = ProtocolEngine::new(|io| async move {
            ompe_receive_io(alg, &io, OtSelect::TrustedSim, &mut rng, alpha, params).await
        });
        // Play a sender that records the point cloud, the receiver's
        // first frame, and never answers.
        let out = receiver.poll_output().expect("points frame");
        let (_xs, ys) = decode_cloud(out.frames()[0].payload.to_vec(), alpha.len());
        for y in ys {
            ys_bytes.extend_from_slice(&y.to_bytes());
        }
    }
    let chi2 = chi_square_bytes(&ys_bytes);
    assert!(
        chi2 < CHI2_LIMIT,
        "submitted OMPE inputs deviate from uniform: χ² = {chi2:.1} over {} bytes",
        ys_bytes.len()
    );
}

#[test]
fn polynomial_session_cloud_is_uniform_over_all_24_coordinates() {
    // A nonlinear session submits the raw coordinates, 24 to a point —
    // not monomials of them, whose joint distribution would have been
    // the thing to worry about. Play a trainer that announces a
    // degree-3 model over 24 features and records what the client
    // sends for one fixed, very non-uniform sample, session after
    // session.
    use ppcs_core::{Client, ProtocolConfig};
    use ppcs_transport::Frame;

    const DIM: usize = 24;
    let cfg = ProtocolConfig::default();
    // [dim, basis kind (1 = homogeneous), degree, OMPE bound, σ, decoys, epoch]
    let spec: Vec<u8> = [
        DIM as u64,
        1,
        3,
        3,
        cfg.sigma as u64,
        cfg.decoy_factor as u64,
        0,
    ]
    .iter()
    .flat_map(|v| v.to_le_bytes())
    .collect();
    let sample: Vec<f64> = (0..DIM).map(|i| 0.73 - 0.05 * i as f64).collect();

    let mut ys_bytes = Vec::new();
    for seed in 0..12u64 {
        let (spec, sample) = (spec.clone(), sample.clone());
        let (blob, _) = run_pair(
            move |ep| {
                let hello = ep.recv().expect("hello");
                assert_eq!(hello.kind, 0x0500);
                // The words are the payload itself, with no length prefix.
                ep.send(Frame {
                    kind: 0x0501,
                    payload: Bytes::from(spec),
                })
                .expect("spec");
                ep.recv().expect("points frame").payload.to_vec()
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(seed);
                let client = Client::new(FixedFpAlgebra::new(16), cfg);
                // Fails once the fake trainer hangs up.
                let _ = client.classify_batch(&ep, &TrustedSimOt, &mut rng, &[sample]);
            },
        );
        let (xs, ys) = decode_cloud(blob, DIM);
        assert_eq!(xs.len(), 20, "N = (3·3 + 1)·2 points");
        assert_eq!(ys.len(), xs.len() * DIM, "one 24-vector per point");
        for y in ys {
            ys_bytes.extend_from_slice(&y.to_bytes());
        }
    }
    let chi2 = chi_square_bytes(&ys_bytes);
    assert!(
        chi2 < CHI2_LIMIT,
        "submitted coordinates deviate from uniform: χ² = {chi2:.1} over {} bytes",
        ys_bytes.len()
    );
}

#[test]
fn amplified_values_span_the_amplifier_range() {
    // Level-2: the value a client receives for a FIXED sample must vary
    // across sessions over the amplifier's full dynamic range — the
    // magnitude carries (almost) no information about |d(t)|.
    use ppcs_core::{Client, ProtocolConfig, Trainer};
    use ppcs_math::FixedFpAlgebra;
    use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};

    let mut ds = Dataset::new(2);
    let mut rng = StdRng::seed_from_u64(7);
    for k in 0..60 {
        use rand::Rng;
        let pos = k % 2 == 0;
        let c = if pos { 0.5 } else { -0.5 };
        ds.push(
            vec![c + rng.gen_range(-0.4..0.4), c + rng.gen_range(-0.4..0.4)],
            if pos {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let cfg = ProtocolConfig::default();

    let sample = vec![0.4, 0.35];
    let repeated: Vec<Vec<f64>> = (0..200).map(|_| sample.clone()).collect();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let (_, values) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(70);
            trainer.serve(&ep, &TrustedSimOt, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(71);
            client
                .classify_batch_values(&ep, &TrustedSimOt, &mut rng, &repeated)
                .expect("classify")
        },
    );
    let vals: Vec<f64> = values.into_iter().map(|(_, v)| v).collect();
    let max = vals.iter().cloned().fold(f64::MIN, f64::max);
    let min = vals.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min > 10.0,
        "amplified values should span an order of magnitude or more: [{min}, {max}]"
    );
    // The relative spread must dominate the signal: coefficient of
    // variation of a uniform amplifier is ≈ 0.58.
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
    let cv = var.sqrt() / mean;
    assert!(cv > 0.4, "amplified values too concentrated: CV = {cv:.3}");
    // All positive (sign preserved).
    assert!(vals.iter().all(|v| *v > 0.0));
}
