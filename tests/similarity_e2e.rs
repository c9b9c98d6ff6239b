//! End-to-end similarity evaluation: Table II in miniature — train
//! models on the four diabetes subsets, compare the private triangle
//! metric against the K-S baseline's ordering.

use ppcs_core::{similarity_plain, similarity_request, similarity_respond, SimilarityConfig};
use ppcs_datasets::{diabetes_subsets, TABLE2_PAIRS};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_stats::{ks_average_over_dims, spearman_rank_correlation};
use ppcs_svm::{Kernel, SmoParams, SvmModel};
use ppcs_tests::rotated_model;
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM_OT: TrustedSimOt = TrustedSimOt;

fn private_similarity(ma: &SvmModel, mb: &SvmModel, cfg: SimilarityConfig, seed: u64) -> f64 {
    let (ma, mb) = (ma.clone(), mb.clone());
    let (res, t) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed);
            similarity_respond(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &ma, &cfg)
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &mb, &cfg)
                .expect("similarity")
        },
    );
    res.expect("responder");
    t
}

#[test]
fn table2_private_metric_tracks_ks_ordering() {
    let subsets = diabetes_subsets(42);
    let params = SmoParams {
        c: 8.0,
        ..SmoParams::default()
    };
    let models: Vec<SvmModel> = subsets
        .iter()
        .map(|ds| SvmModel::train(ds, Kernel::Linear, &params))
        .collect();
    let cfg = SimilarityConfig::default();

    let mut ks_values = Vec::new();
    let mut t_values = Vec::new();
    for (k, &(i, j)) in TABLE2_PAIRS.iter().enumerate() {
        ks_values.push(ks_average_over_dims(&subsets[i], &subsets[j]));
        t_values.push(private_similarity(
            &models[i],
            &models[j],
            cfg,
            500 + k as u64,
        ));
    }

    // The paper's claim: "they show the same trend of comparisons".
    let rho = spearman_rank_correlation(&ks_values, &t_values);
    assert!(
        rho > 0.6,
        "K-S and private T should rank pairs similarly; Spearman ρ = {rho:.3}\n\
         K-S: {ks_values:?}\nT:   {t_values:?}"
    );
}

#[test]
fn private_equals_plain_across_many_model_pairs() {
    let cfg = SimilarityConfig::default();
    for (k, (a, b)) in [(0.0, 30.0), (10.0, 20.0), (45.0, 50.0), (5.0, 85.0)]
        .into_iter()
        .enumerate()
    {
        let ma = rotated_model(3, a, 600 + k as u64, Kernel::Linear);
        let mb = rotated_model(3, b, 700 + k as u64, Kernel::Linear);
        let plain = similarity_plain(&ma, &mb, &cfg).expect("plain metric");
        let private = private_similarity(&ma, &mb, cfg, 800 + k as u64);
        assert!(
            (plain - private).abs() < 1e-6 * plain.max(1.0),
            "pair {k}: plain {plain} vs private {private}"
        );
    }
}

#[test]
fn similarity_is_symmetric_between_roles() {
    // T(A, B) computed with A responding equals T(B, A) with B responding.
    let cfg = SimilarityConfig::default();
    let ma = rotated_model(2, 15.0, 900, Kernel::Linear);
    let mb = rotated_model(2, 65.0, 901, Kernel::Linear);
    let ab = private_similarity(&ma, &mb, cfg, 902);
    let ba = private_similarity(&mb, &ma, cfg, 904);
    assert!(
        (ab - ba).abs() < 1e-6 * ab.max(1.0),
        "role swap changed the metric: {ab} vs {ba}"
    );
}

#[test]
fn fixed_point_similarity_close_to_plain() {
    let cfg = SimilarityConfig {
        protocol: ppcs_core::ProtocolConfig {
            amplifier_bits: 12,
            ..ppcs_core::ProtocolConfig::default()
        },
        ..SimilarityConfig::default()
    };
    let ma = rotated_model(3, 25.0, 910, Kernel::Linear);
    let mb = rotated_model(3, 60.0, 911, Kernel::Linear);
    let plain = similarity_plain(&ma, &mb, &cfg).expect("plain");
    let alg = FixedFpAlgebra::new(16);
    let (ma2, mb2) = (ma.clone(), mb.clone());
    let (res, private) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(912);
            similarity_respond(&alg, &ep, &SIM_OT, &mut rng, &ma2, &cfg)
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(913);
            similarity_request(&FixedFpAlgebra::new(16), &ep, &SIM_OT, &mut rng, &mb2, &cfg)
                .expect("similarity")
        },
    );
    res.expect("responder");
    assert!(
        (plain - private).abs() < 0.05 * plain.max(0.1),
        "fixed-point drift too large: plain {plain} vs private {private}"
    );
}

#[test]
fn nonlinear_models_compare_too() {
    let cfg = SimilarityConfig::default();
    let kernel = Kernel::Polynomial {
        a0: 0.5,
        b0: 0.0,
        degree: 3,
    };
    let ma = rotated_model(2, 20.0, 920, kernel);
    let mb = rotated_model(2, 50.0, 921, kernel);
    let plain = similarity_plain(&ma, &mb, &cfg).expect("plain nonlinear");
    let private = private_similarity(&ma, &mb, cfg, 922);
    assert!(
        (plain - private).abs() < 1e-6 * plain.max(1.0),
        "nonlinear: plain {plain} vs private {private}"
    );
}
