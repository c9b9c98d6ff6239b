//! Multi-class extension: a credit bureau privately serves a three-tier
//! credit-rating model (one-vs-rest SVMs); a lender scores private
//! applicant profiles without revealing them — and without the bureau's
//! model ever leaving its premises.
//!
//! Demonstrates both multi-class modes and their privacy trade-off (see
//! `ppcs_core::multiclass` docs).
//!
//! ```text
//! cargo run -p ppcs-examples --bin credit_rating --release
//! ```

use ppcs_core::{MultiClassClient, MultiClassMode, MultiClassTrainer, ProtocolConfig};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Kernel, MultiClassModel, MultiDataset, SmoParams};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TIERS: [&str; 3] = ["subprime", "standard", "prime"];

/// Features: [income, debt ratio, payment history, account age].
fn bureau_history() -> MultiDataset {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut ds = MultiDataset::new(4);
    for _ in 0..300 {
        let x: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Latent credit score: income + history − debt, mildly nonlinear.
        let score = 0.8 * x[0] - 0.7 * x[1] + 0.9 * x[2] + 0.2 * x[3];
        let tier = if score < -0.5 {
            0
        } else if score < 0.5 {
            1
        } else {
            2
        };
        ds.push(x, tier);
    }
    ds
}

fn main() {
    let history = bureau_history();
    let model = MultiClassModel::train(
        &history,
        Kernel::Linear,
        &SmoParams {
            c: 10.0,
            ..SmoParams::default()
        },
    );
    println!(
        "Bureau model: {} one-vs-rest classifiers, training accuracy {:.1}%",
        model.binary_models().len(),
        100.0 * model.accuracy(&history)
    );

    let applicants = vec![
        vec![0.9, -0.8, 0.8, 0.6],   // high income, low debt, clean history
        vec![-0.7, 0.9, -0.8, -0.2], // the opposite
        vec![0.1, 0.0, 0.2, 0.1],    // middle of the road
    ];

    let cfg = ProtocolConfig::default();
    for mode in [MultiClassMode::SharedAmplifier, MultiClassMode::SignOnly] {
        let trainer =
            MultiClassTrainer::new(FixedFpAlgebra::new(16), &model, cfg, mode).expect("trainer");
        let client = MultiClassClient::new(FixedFpAlgebra::new(16), cfg);
        let apps = applicants.clone();
        let (_, ratings) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(1);
                trainer.serve(&ep, &TrustedSimOt, &mut rng).expect("serve")
            },
            move |ep| {
                let mut rng = StdRng::seed_from_u64(2);
                client
                    .classify_batch(&ep, &TrustedSimOt, &mut rng, &apps)
                    .expect("classify")
            },
        );
        println!("\nmode = {mode:?}:");
        for (applicant, rating) in applicants.iter().zip(&ratings) {
            let verdict = match rating {
                Some(tier) => TIERS[*tier as usize],
                None => "ambiguous — needs manual review",
            };
            println!("  applicant {applicant:?} → {verdict}");
        }
        if mode == MultiClassMode::SharedAmplifier {
            for (applicant, rating) in applicants.iter().zip(&ratings) {
                assert_eq!(rating.unwrap(), model.predict(applicant));
            }
            println!("  (argmax parity with the plain model verified)");
        }
    }
    println!(
        "\nSharedAmplifier reveals per-sample decision-value ratios in exchange\n\
         for full argmax; SignOnly keeps the paper's exact hiding level and\n\
         flags overlap regions for manual review."
    );
}
