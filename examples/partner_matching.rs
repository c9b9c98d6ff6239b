//! Business-partner matching (§I and §V): companies with similar sale
//! trends may want to cooperate — but nobody shows their model first.
//! Each pair of companies privately computes the triangle-area
//! similarity `T` between their trained models and ranks candidates.
//!
//! ```text
//! cargo run -p ppcs-examples --bin partner_matching --release
//! ```

use ppcs_core::{similarity_plain, similarity_request, similarity_respond, SimilarityConfig};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trains a company's trend model whose boundary is rotated by
/// `angle_deg` — companies at nearby angles have similar markets.
fn company_model(angle_deg: f64, seed: u64) -> SvmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let theta = angle_deg.to_radians();
    let (c, s) = (theta.cos(), theta.sin());
    let mut ds = Dataset::new(3);
    while ds.len() < 240 {
        let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let score = c * x[0] + s * x[1] + 0.2 * x[2] - 0.1;
        if score.abs() < 0.08 {
            continue;
        }
        ds.push(x, Label::from_sign(score));
    }
    SvmModel::train(
        &ds,
        Kernel::Linear,
        &SmoParams {
            c: 10.0,
            ..SmoParams::default()
        },
    )
}

fn main() {
    // Four companies with increasingly different market models.
    let companies = [
        ("Aurora Apparel", company_model(10.0, 1)),
        ("Borealis Basics", company_model(18.0, 2)),
        ("Cirrus Couture", company_model(55.0, 3)),
        ("Dusk Denim", company_model(85.0, 4)),
    ];
    let cfg = SimilarityConfig::default();

    println!("Pairwise private similarity T (smaller = more similar):\n");
    let mut results: Vec<(String, f64, f64)> = Vec::new();
    for i in 0..companies.len() {
        for j in (i + 1)..companies.len() {
            let (name_a, model_a) = &companies[i];
            let (name_b, model_b) = &companies[j];
            let plain = similarity_plain(model_a, model_b, &cfg).expect("metric");

            let (ma, mb) = (model_a.clone(), model_b.clone());
            let (res_a, private) = run_pair(
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(100 + i as u64);
                    similarity_respond(
                        &FixedFpAlgebra::new(16),
                        &ep,
                        &TrustedSimOt,
                        &mut rng,
                        &ma,
                        &cfg,
                    )
                },
                move |ep| {
                    let mut rng = StdRng::seed_from_u64(200 + j as u64);
                    similarity_request(
                        &FixedFpAlgebra::new(16),
                        &ep,
                        &TrustedSimOt,
                        &mut rng,
                        &mb,
                        &cfg,
                    )
                    .expect("similarity")
                },
            );
            res_a.expect("responder");
            println!("  {name_a:16} vs {name_b:16}: private T = {private:.5} (plain {plain:.5})");
            results.push((format!("{name_a} + {name_b}"), private, plain));
        }
    }

    results.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    println!(
        "\nBest partnership candidate: {} (T = {:.5})",
        results[0].0, results[0].1
    );
    // The field carries each model at 16 fractional bits: T agrees with
    // the plain metric to a relative 5e-3, the benchmark's bound.
    for (_, private, plain) in &results {
        assert!(
            (private - plain).abs() < 5e-3 * plain,
            "private similarity must match the plain metric"
        );
    }
    println!("All private values matched the in-the-clear metric (relative error < 5e-3).");
}
