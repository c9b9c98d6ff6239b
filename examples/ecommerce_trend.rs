//! The paper's motivating scenario (§I): an e-commerce company (trainer)
//! has learned a sale-trend model from its order history; independent
//! clothing sellers (clients) test whether their private designs follow
//! the trend — without the company revealing its model or the sellers
//! revealing their designs.
//!
//! The trend here is nonlinear (a polynomial-kernel SVM over product
//! features), exercising §IV-B: the sellers hide their design's features,
//! the company evaluates its degree-3 polynomial on what they submit.
//!
//! ```text
//! cargo run -p ppcs-examples --bin ecommerce_trend --release
//! ```

use ppcs_core::{Client, ProtocolConfig, Trainer};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Product features: [price tier, color boldness, fabric weight,
/// seasonality, cut tightness] — all scaled to [-1, 1].
const FEATURES: [&str; 5] = [
    "price tier",
    "color boldness",
    "fabric weight",
    "seasonality",
    "cut tightness",
];

fn main() {
    let mut rng = StdRng::seed_from_u64(77);

    // --- The company's order history: items sell well when they sit on
    // a curved "trend surface" combining boldness and seasonality. -----
    let mut history = Dataset::new(FEATURES.len());
    for _ in 0..400 {
        let x: Vec<f64> = (0..FEATURES.len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let trend_score = x[1] * x[3] + 0.4 * x[0] * x[0] * x[1] - 0.3 * x[2];
        if trend_score.abs() < 0.05 {
            continue;
        }
        let label = if trend_score > 0.0 {
            Label::Positive // sells
        } else {
            Label::Negative // does not sell
        };
        history.push(x, label);
    }
    let kernel = Kernel::Polynomial {
        a0: 1.0,
        b0: 1.0,
        degree: 3,
    };
    let model = SvmModel::train(
        &history,
        kernel,
        &SmoParams {
            c: 10.0,
            ..SmoParams::default()
        },
    );
    println!(
        "Company model: degree-3 polynomial kernel, {} SVs, training accuracy {:.1}%",
        model.support_vectors().len(),
        100.0 * model.accuracy(&history)
    );

    // --- Three sellers test their designs privately. -------------------
    let designs = vec![
        vec![0.8, 0.7, -0.2, 0.9, 0.1],   // bold seasonal premium piece
        vec![-0.5, -0.8, 0.6, -0.7, 0.0], // heavy muted off-season item
        vec![0.1, 0.9, -0.1, -0.8, 0.4],  // bold but out-of-season
    ];
    let expected: Vec<Label> = designs.iter().map(|d| model.predict(d)).collect();

    let cfg = ProtocolConfig::default();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("expandable model");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);

    let designs_c = designs.clone();
    let (_, verdicts) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(3);
            trainer.serve(&ep, &TrustedSimOt, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(4);
            client
                .classify_batch(&ep, &TrustedSimOt, &mut rng, &designs_c)
                .expect("classify")
        },
    );

    println!("\nSeller design verdicts (computed without exposing either side):");
    for (design, verdict) in designs.iter().zip(&verdicts) {
        let trend = match verdict {
            Label::Positive => "ON TREND — likely to sell",
            Label::Negative => "off trend",
        };
        println!("  {design:?}  →  {trend}");
    }
    assert_eq!(verdicts, expected, "private verdicts must match the model");
    println!("\nAll verdicts match what the company's model would say in the clear.");
}
