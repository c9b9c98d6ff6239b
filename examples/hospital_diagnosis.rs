//! Hospital diagnosis (§I's health-records motivation): a hospital has a
//! diagnostic SVM trained on patient records; an external clinic submits
//! a patient's measurements for screening. Record-derived models and
//! patient data are both sensitive — the protocol keeps both private.
//!
//! This example uses the diabetes-analog dataset from `ppcs-datasets`
//! (8 clinical features, the paper's Table I workload) and compares the
//! accuracy of plain vs private classification on the full test split —
//! the paper's Fig. 7 claim in miniature.
//!
//! ```text
//! cargo run -p ppcs-examples --bin hospital_diagnosis --release
//! ```

use ppcs_core::{Client, ProtocolConfig, Trainer};
use ppcs_datasets::{generate, spec_by_name};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Kernel, SmoParams, SvmModel};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let spec = spec_by_name("diabetes").expect("catalog entry");
    let data = generate(&spec);
    println!(
        "Hospital dataset (diabetes analog): {} train / {} test samples, {} features",
        data.train.len(),
        data.test.len(),
        data.train.dim()
    );

    let model = SvmModel::train(
        &data.train,
        Kernel::Linear,
        &SmoParams {
            c: spec.c_param,
            ..SmoParams::default()
        },
    );
    let plain_accuracy = model.accuracy(&data.test);
    println!("Plain SVM test accuracy: {:.2}%", 100.0 * plain_accuracy);

    // The clinic screens the full test split through the private
    // protocol; functional mode + ideal OT keeps this example fast while
    // computing bit-identical results (see DESIGN.md §5.4).
    let cfg = ProtocolConfig::functional();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);

    let samples: Vec<Vec<f64>> = (0..data.test.len())
        .map(|i| data.test.features(i).to_vec())
        .collect();
    let truth: Vec<_> = (0..data.test.len()).map(|i| data.test.label(i)).collect();

    let (_, predictions) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(11);
            trainer.serve(&ep, &TrustedSimOt, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(12);
            client
                .classify_batch(&ep, &TrustedSimOt, &mut rng, &samples)
                .expect("classify")
        },
    );

    let correct = predictions
        .iter()
        .zip(&truth)
        .filter(|(p, t)| p == t)
        .count();
    let private_accuracy = correct as f64 / truth.len() as f64;
    println!(
        "Private protocol test accuracy: {:.2}%",
        100.0 * private_accuracy
    );
    println!(
        "\nAccuracy parity (the paper's Fig. 7 claim): plain {:.4} vs private {:.4}",
        plain_accuracy, private_accuracy
    );
    assert!(
        (plain_accuracy - private_accuracy).abs() < 1e-12,
        "private classification must not change a single prediction"
    );
    println!("Every single prediction matched — no information lost to privacy.");
}
