//! Integration tests for the extension components: TCP transport under
//! the real protocols, the IKNP OT-extension engine, multi-class
//! classification, and the fixed-point precision ablation.

use std::net::TcpListener;

use ppcs_core::{
    similarity_plain, similarity_request, similarity_respond, Client, MultiClassClient,
    MultiClassMode, MultiClassTrainer, ProtocolConfig, SimilarityConfig, Trainer,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{IknpOt, TrustedSimOt};
use ppcs_svm::{Kernel, MultiClassModel, MultiDataset, SmoParams, SvmModel};
use ppcs_tests::{blob_dataset, random_samples, rotated_model};
use ppcs_transport::{tcp_accept, tcp_connect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static SIM: TrustedSimOt = TrustedSimOt;

#[test]
fn private_classification_over_real_tcp() {
    let ds = blob_dataset(3, 60, 1);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples = random_samples(3, 8, 2);
    let expected: Vec<_> = samples.iter().map(|s| model.predict(s)).collect();

    let cfg = ProtocolConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let server = std::thread::spawn(move || {
        let ep = tcp_accept(&listener).expect("accept");
        let mut rng = StdRng::seed_from_u64(3);
        trainer.serve(&ep, &SIM, &mut rng).expect("serve")
    });

    let ep = tcp_connect(addr).expect("connect");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let mut rng = StdRng::seed_from_u64(4);
    let labels = client
        .classify_batch(&ep, &SIM, &mut rng, &samples)
        .expect("classify");
    assert_eq!(server.join().expect("server"), samples.len());
    assert_eq!(labels, expected);
}

#[test]
fn private_similarity_over_real_tcp() {
    let cfg = SimilarityConfig::default();
    let ma = rotated_model(2, 20.0, 10, Kernel::Linear);
    let mb = rotated_model(2, 70.0, 11, Kernel::Linear);
    let want = similarity_plain(&ma, &mb, &cfg).expect("plain");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let ep = tcp_accept(&listener).expect("accept");
        let mut rng = StdRng::seed_from_u64(12);
        similarity_respond(&FixedFpAlgebra::new(16), &ep, &SIM, &mut rng, &ma, &cfg)
    });
    let ep = tcp_connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(13);
    let got = similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM, &mut rng, &mb, &cfg)
        .expect("request");
    server.join().expect("thread").expect("respond");
    assert!(
        (got - want).abs() < 5e-3 * want,
        "TCP similarity {got} vs plain {want}"
    );
}

#[test]
fn classification_over_iknp_extension_engine() {
    let ds = blob_dataset(2, 50, 20);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples = random_samples(2, 5, 21);
    let expected: Vec<_> = samples.iter().map(|s| model.predict(s)).collect();

    let cfg = ProtocolConfig::default();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples2 = samples.clone();
    let (_, labels) = ppcs_transport::run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(22);
            trainer
                .serve(&ep, &IknpOt::fast_insecure(), &mut rng)
                .expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(23);
            client
                .classify_batch(&ep, &IknpOt::fast_insecure(), &mut rng, &samples2)
                .expect("classify")
        },
    );
    assert_eq!(labels, expected);
}

#[test]
fn multiclass_shared_amplifier_parity_over_sim_ot() {
    let mut rng = StdRng::seed_from_u64(30);
    let centers = [(-0.7, -0.7), (0.7, -0.5), (0.0, 0.8), (0.8, 0.8)];
    let mut ds = MultiDataset::new(2);
    for k in 0..200 {
        let class = (k % 4) as u32;
        let (cx, cy) = centers[class as usize];
        ds.push(
            vec![cx + rng.gen_range(-0.2..0.2), cy + rng.gen_range(-0.2..0.2)],
            class,
        );
    }
    let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples: Vec<Vec<f64>> = (0..40).map(|i| ds.features(i).to_vec()).collect();

    let cfg = ProtocolConfig::default();
    let trainer = MultiClassTrainer::new(
        FixedFpAlgebra::new(16),
        &model,
        cfg,
        MultiClassMode::SharedAmplifier,
    )
    .expect("trainer");
    let client = MultiClassClient::new(FixedFpAlgebra::new(16), cfg);
    let samples2 = samples.clone();
    let (_, got) = ppcs_transport::run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(31);
            trainer.serve(&ep, &SIM, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(32);
            client
                .classify_batch(&ep, &SIM, &mut rng, &samples2)
                .expect("classify")
        },
    );
    for (sample, label) in samples.iter().zip(&got) {
        assert_eq!(*label, Some(model.predict(sample)));
    }
}

#[test]
fn fixed_point_precision_ablation() {
    // Similarity error vs fractional bits: more bits → closer to the
    // float metric; even 8 bits stays within a few percent.
    let cfg_base = SimilarityConfig::default();
    let ma = rotated_model(3, 25.0, 40, Kernel::Linear);
    let mb = rotated_model(3, 65.0, 41, Kernel::Linear);
    let want = similarity_plain(&ma, &mb, &cfg_base).expect("plain");

    let mut prev_err = f64::INFINITY;
    for frac_bits in [8u32, 12, 16] {
        let alg = FixedFpAlgebra::new(frac_bits);
        let cfg = SimilarityConfig {
            protocol: ProtocolConfig {
                amplifier_bits: 10,
                ..ProtocolConfig::default()
            },
            ..cfg_base
        };
        let (ma2, mb2) = (ma.clone(), mb.clone());
        let alg2 = alg;
        let (res, got) = ppcs_transport::run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(42 + frac_bits as u64);
                similarity_respond(&alg, &ep, &SIM, &mut rng, &ma2, &cfg)
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(52 + frac_bits as u64);
                similarity_request(&alg2, &ep, &SIM, &mut rng, &mb2, &cfg).expect("request")
            },
        );
        res.expect("respond");
        let err = (got - want).abs() / want.max(1e-9);
        assert!(
            err < 0.25,
            "frac_bits={frac_bits}: relative error {err} too large ({got} vs {want})"
        );
        // Precision should not get *worse* with more bits (allow noise
        // headroom at the already-tiny end).
        assert!(
            err < prev_err + 0.02,
            "frac_bits={frac_bits}: error {err} grew from {prev_err}"
        );
        prev_err = err;
    }
    assert!(
        prev_err < 0.01,
        "16 fractional bits should be within 1%: {prev_err}"
    );
}

#[test]
fn fixed_point_classification_precision_sweep() {
    let ds = blob_dataset(3, 60, 60);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples = random_samples(3, 30, 61);
    let expected: Vec<_> = samples.iter().map(|s| model.predict(s)).collect();

    for frac_bits in [8u32, 12, 16, 20] {
        let alg = FixedFpAlgebra::new(frac_bits);
        let cfg = ProtocolConfig::default();
        let trainer = Trainer::new(alg, &model, cfg).expect("trainer");
        let client = Client::new(FixedFpAlgebra::new(frac_bits), cfg);
        let samples2 = samples.clone();
        let (_, labels) = ppcs_transport::run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(62);
                trainer.serve(&ep, &SIM, &mut rng).expect("serve")
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(63);
                client
                    .classify_batch(&ep, &SIM, &mut rng, &samples2)
                    .expect("classify")
            },
        );
        // Labels are a sign decision: quantization can only flip samples
        // within ~2^-frac_bits of the boundary; none of these random
        // samples sit that close.
        let agree = labels.iter().zip(&expected).filter(|(a, b)| a == b).count();
        assert!(
            agree >= labels.len() - 1,
            "frac_bits={frac_bits}: only {agree}/{} labels agree",
            labels.len()
        );
    }
}
