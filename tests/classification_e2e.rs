//! End-to-end classification across the full stack: datasets → SVM →
//! polynomial expansion → OMPE → k-of-N OT → transport, over the field
//! and both OT engines.

use ppcs_core::{Client, ExpandedDecision, PpcsError, ProtocolConfig, Trainer};
use ppcs_datasets::{generate, spec_by_name};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{NaorPinkasOt, ObliviousTransfer, TrustedSimOt};
use ppcs_svm::{GaussianNb, Kernel, Label, SmoParams, SvmModel};
use ppcs_tests::{blob_dataset, random_samples};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM: TrustedSimOt = TrustedSimOt;

fn roundtrip(
    alg: FixedFpAlgebra,
    model: &SvmModel,
    cfg: ProtocolConfig,
    samples: Vec<Vec<f64>>,
    ot: &'static dyn ObliviousTransfer,
    seed: u64,
) -> Vec<Label> {
    let trainer = Trainer::new(alg, model, cfg).expect("trainer");
    let client = Client::new(alg, cfg);
    let (_, labels) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed);
            trainer.serve(&ep, ot, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            client
                .classify_batch(&ep, ot, &mut rng, &samples)
                .expect("classify")
        },
    );
    labels
}

#[test]
fn diabetes_analog_full_test_split_parity() {
    // The Fig. 7 property on a Table I dataset: accuracy with and
    // without privacy is identical because every prediction matches.
    let spec = spec_by_name("diabetes").expect("catalog");
    let data = generate(&spec);
    let model = SvmModel::train(
        &data.train,
        Kernel::Linear,
        &SmoParams {
            c: spec.c_param,
            ..SmoParams::default()
        },
    );
    let samples: Vec<Vec<f64>> = (0..data.test.len())
        .map(|i| data.test.features(i).to_vec())
        .collect();
    let labels = roundtrip(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::functional(),
        samples.clone(),
        &SIM,
        1,
    );
    for (sample, got) in samples.iter().zip(&labels) {
        assert_eq!(*got, model.predict(sample));
    }
}

/// The paper's degree-3 kernel trained on the german.numer analog, and
/// the analog's test samples.
fn german_poly3(c: f64, max_iterations: usize) -> (SvmModel, Vec<Vec<f64>>) {
    let spec = spec_by_name("german.numer").expect("catalog");
    let data = generate(&spec);
    let params = SmoParams {
        c,
        max_iterations,
        ..SmoParams::default()
    };
    let model = SvmModel::train(&data.train, Kernel::paper_polynomial(spec.dim), &params);
    let test = (0..data.test.len())
        .map(|i| data.test.features(i).to_vec())
        .collect();
    (model, test)
}

#[test]
fn nonlinear_catalog_dataset_parity_on_subsample() {
    // The Fig. 8 property: polynomial-kernel private classification on a
    // catalog dataset agrees with the plain model.
    let spec = spec_by_name("german.numer").expect("catalog");
    let (model, test) = german_poly3(spec.c_param, 200_000);
    let samples = test[..60].to_vec();
    let labels = roundtrip(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::functional(),
        samples.clone(),
        &SIM,
        2,
    );
    for (sample, got) in samples.iter().zip(&labels) {
        assert_eq!(*got, model.predict(sample));
    }
}

#[test]
fn fixed_point_backend_with_real_ot_end_to_end() {
    // The fully cryptographic instantiation: 256-bit field + Naor–Pinkas.
    use std::sync::OnceLock;
    static NP: OnceLock<NaorPinkasOt> = OnceLock::new();
    let ot: &'static dyn ObliviousTransfer = NP.get_or_init(NaorPinkasOt::fast_insecure);

    let ds = blob_dataset(3, 60, 3);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples = random_samples(3, 6, 4);
    let labels = roundtrip(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::default(),
        samples.clone(),
        ot,
        3,
    );
    for (sample, got) in samples.iter().zip(&labels) {
        assert_eq!(*got, model.predict(sample));
    }
}

#[test]
fn repeated_sessions_are_consistent() {
    // Fresh randomness per session must never change a prediction.
    let ds = blob_dataset(3, 60, 7);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples = random_samples(3, 10, 8);
    let first = roundtrip(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::default(),
        samples.clone(),
        &SIM,
        10,
    );
    for seed in 11..16 {
        let again = roundtrip(
            FixedFpAlgebra::new(16),
            &model,
            ProtocolConfig::default(),
            samples.clone(),
            &SIM,
            seed * 31,
        );
        assert_eq!(first, again, "seed {seed}");
    }
}

#[test]
fn traffic_grows_with_decoy_factor() {
    // The decoys are real bytes on the wire: doubling the decoy factor
    // should substantially increase client→trainer traffic.
    let ds = blob_dataset(3, 60, 9);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples = random_samples(3, 5, 10);

    let traffic_for = |decoys: usize| -> u64 {
        let cfg = ProtocolConfig {
            decoy_factor: decoys,
            ..ProtocolConfig::default()
        };
        let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let samples = samples.clone();
        let (bytes, _) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                trainer.serve(&ep, &SIM, &mut rng).expect("serve");
                ep.stats().bytes_received
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                client
                    .classify_batch(&ep, &SIM, &mut rng, &samples)
                    .expect("classify")
            },
        );
        bytes
    };

    let one = traffic_for(1);
    let four = traffic_for(4);
    assert!(
        four > 2 * one,
        "4× decoys should more than double upstream traffic: {one} vs {four}"
    );
}

/// The `poly_batch_fp256` benchmark workload's own model and sample
/// filter (`benchmark/src/inputs.rs`), in the sound configuration.
#[test]
fn benchmark_model_labels_match_plain_over_the_field() {
    let spec = spec_by_name("german.numer").expect("catalog");
    let (model, test) = german_poly3(spec.poly_c, 300_000);
    let samples: Vec<Vec<f64>> = test
        .into_iter()
        .filter(|x| model.decision(x).abs() >= 1e-3)
        .take(64)
        .collect();
    assert_eq!(samples.len(), 64);
    let labels = roundtrip(
        FixedFpAlgebra::new(16),
        &model,
        ProtocolConfig::default(),
        samples.clone(),
        &SIM,
        21,
    );
    for (sample, got) in samples.iter().zip(&labels) {
        assert_eq!(*got, model.predict(sample));
    }
}

/// §IV-B as the paper states it: the client hides the `n` coordinates,
/// so what it sends per sample is `N·(n + 1)` field elements — the `N`
/// abscissae and `N` `n`-vectors — plus framing and the transfer's
/// index frame, however many monomials the trainer's model has.
#[test]
fn nonlinear_client_traffic_is_a_function_of_the_dimension() {
    const SAMPLES: u64 = 4;
    let cfg = ProtocolConfig::default();
    // Degree 3 under σ = 3, ×2 decoys: N = (3·3 + 1)·2 points.
    let n_points = 20u64;
    let sent_per_sample = |dim: usize| -> u64 {
        let ds = blob_dataset(dim, 60, 30 + dim as u64);
        let model = SvmModel::train(&ds, Kernel::paper_polynomial(dim), &SmoParams::default());
        let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
        assert_eq!(trainer.spec().ompe.num_points() as u64, n_points);
        let client = Client::new(FixedFpAlgebra::new(16), cfg);
        let samples = random_samples(dim, SAMPLES as usize, 31);
        let (_, sent) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                trainer.serve(&ep, &SIM, &mut rng).expect("serve")
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                client
                    .classify_batch(&ep, &SIM, &mut rng, &samples)
                    .expect("classify");
                ep.stats().bytes_sent
            },
        );
        sent / SAMPLES
    };
    let sent: Vec<u64> = [8usize, 14, 24].into_iter().map(sent_per_sample).collect();
    for (dim, bytes) in [8u64, 14, 24].into_iter().zip(&sent) {
        let elements = n_points * dim * 32;
        assert!(
            (elements..elements + 256).contains(bytes),
            "dim {dim}: {bytes} bytes per sample, the cloud alone is {elements}"
        );
    }
    // Exactly affine in the dimension: N elements per extra coordinate.
    assert_eq!(sent[1] - sent[0], n_points * 32 * 6);
    assert_eq!(sent[2] - sent[1], n_points * 32 * 10);
}

/// A natively polynomial classifier (`UpTo(2)`: the linear block is
/// lifted one scale power to meet the quadratic one) and an
/// inhomogeneous cubic kernel (`b₀ ≠ 0`: three blocks, two lifts), both
/// over the field.
#[test]
fn mixed_degree_models_classify_over_the_field() {
    let ds = blob_dataset(3, 80, 12);
    let samples = random_samples(3, 30, 13);

    let nb = GaussianNb::train(&ds);
    let form = nb.to_quadratic_form();
    let expanded = ExpandedDecision::from_quadratic_diag(&form.quadratic, &form.linear, form.bias);
    let cfg = ProtocolConfig::default();
    let trainer = Trainer::from_expanded(FixedFpAlgebra::new(16), &expanded, cfg).expect("nb");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let nb_samples: Vec<Vec<f64>> = samples
        .iter()
        .filter(|t| nb.decision(t).abs() >= 1e-2)
        .cloned()
        .collect();
    assert!(nb_samples.len() >= 20);
    let asked = nb_samples.clone();
    let (_, labels) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(80);
            trainer.serve(&ep, &SIM, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(81);
            client
                .classify_batch(&ep, &SIM, &mut rng, &asked)
                .expect("classify")
        },
    );
    for (sample, got) in nb_samples.iter().zip(&labels) {
        assert_eq!(*got, nb.predict(sample));
    }

    let kernel = Kernel::Polynomial {
        a0: 0.7,
        b0: 1.3,
        degree: 3,
    };
    let model = SvmModel::train(&ds, kernel, &SmoParams::default());
    let cubic_samples: Vec<Vec<f64>> = samples
        .into_iter()
        .filter(|t| model.decision(t).abs() >= 1e-2)
        .collect();
    assert!(cubic_samples.len() >= 20);
    let labels = roundtrip(
        FixedFpAlgebra::new(16),
        &model,
        cfg,
        cubic_samples.clone(),
        &SIM,
        82,
    );
    for (sample, got) in cubic_samples.iter().zip(&labels) {
        assert_eq!(*got, model.predict(sample));
    }
}

/// A degree the field cannot hold is refused at construction, by name —
/// never served as a wrapped element — and the message's remedy works.
#[test]
fn a_degree_the_field_cannot_hold_is_a_typed_error() {
    let ds = blob_dataset(2, 60, 14);
    let model = SvmModel::train(&ds, Kernel::Rbf { gamma: 0.4 }, &SmoParams::default());
    let cfg = ProtocolConfig {
        taylor_order: 9,
        ..ProtocolConfig::default()
    };
    // Order 9 is degree 18: 19 scale powers of 16 bits, plus amplifier
    // and magnitude, do not fit 255.
    let err = Trainer::new(FixedFpAlgebra::new(16), &model, cfg)
        .err()
        .expect("degree 18 at 16 fractional bits must be refused");
    assert!(
        matches!(&err, PpcsError::Config(m) if m.contains("largest frac_bits that fits is 10")),
        "{err}"
    );

    let expanded = ppcs_core::expand_model(&model, &cfg).expect("expansion");
    let samples: Vec<Vec<f64>> = random_samples(2, 60, 15)
        .into_iter()
        .filter(|t| expanded.eval(t).abs() >= 0.1)
        .collect();
    assert!(samples.len() >= 20);
    let labels = roundtrip(
        FixedFpAlgebra::new(8),
        &model,
        cfg,
        samples.clone(),
        &SIM,
        83,
    );
    for (sample, got) in samples.iter().zip(&labels) {
        assert_eq!(*got, Label::from_sign(expanded.eval(sample)));
    }
}
