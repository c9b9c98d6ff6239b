//! Privacy experiments against *real protocol transcripts*: a colluding
//! client pool runs genuine classification sessions, keeps the
//! randomized values it legitimately received, and mounts the Fig. 5/6
//! reconstruction attacks on them.

use ppcs_core::privacy::{hyperplane_angle_deg, least_squares_fit};
use ppcs_core::{Client, ProtocolConfig, Trainer};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Kernel, SmoParams, SvmModel};
use ppcs_tests::{blob_dataset, random_samples};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM: TrustedSimOt = TrustedSimOt;

/// Runs real sessions and returns the (sample, randomized value) pairs a
/// colluding coalition would hold.
fn pooled_protocol_values(
    model: &SvmModel,
    samples: &[Vec<f64>],
    seed: u64,
) -> Vec<(Vec<f64>, f64)> {
    let cfg = ProtocolConfig::default();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples_vec = samples.to_vec();
    let (_, values) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed);
            trainer.serve(&ep, &SIM, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            client
                .classify_batch_values(&ep, &SIM, &mut rng, &samples_vec)
                .expect("classify")
        },
    );
    samples
        .iter()
        .cloned()
        .zip(values.into_iter().map(|(_, v)| v))
        .collect()
}

#[test]
fn real_transcript_values_are_amplified_not_raw() {
    let ds = blob_dataset(2, 60, 1);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let samples = random_samples(2, 20, 2);
    let pooled = pooled_protocol_values(&model, &samples, 10);
    for (t, v) in &pooled {
        let d = model.decision(t);
        // Same sign...
        assert_eq!(v.signum(), d.signum(), "sign must be preserved");
        // ...but the magnitude is amplified by at least the minimum r_a.
        assert!(
            v.abs() > 1.5 * d.abs(),
            "value {v} should be amplified well beyond d = {d}"
        );
    }
}

#[test]
fn amplifiers_differ_across_queries_in_real_sessions() {
    // Classifying the SAME sample repeatedly must yield different values
    // (fresh r_a per query) — the defense Fig. 5 relies on.
    let ds = blob_dataset(2, 60, 3);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let sample = vec![0.4, 0.3];
    let repeated: Vec<Vec<f64>> = (0..10).map(|_| sample.clone()).collect();
    let pooled = pooled_protocol_values(&model, &repeated, 20);
    let mut values: Vec<f64> = pooled.iter().map(|(_, v)| *v).collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    assert!(
        values.len() >= 9,
        "10 queries should give ~10 distinct amplified values, got {}",
        values.len()
    );
}

#[test]
fn coalition_estimate_from_real_transcripts_rambles() {
    // Mount the actual Fig. 5 attack on genuine protocol outputs.
    let ds = blob_dataset(2, 80, 4);
    let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
    let true_w = model.linear_weights().expect("linear weights");

    let mut randomized_errors = Vec::new();
    let mut exact_errors = Vec::new();
    for trial in 0..8 {
        let samples = random_samples(2, 20, 100 + trial);
        let pooled = pooled_protocol_values(&model, &samples, 200 + trial * 7);
        let points: Vec<Vec<f64>> = pooled.iter().map(|(t, _)| t.clone()).collect();
        let values: Vec<f64> = pooled.iter().map(|(_, v)| *v).collect();
        let (est_w, _) = least_squares_fit(&points, &values);
        randomized_errors.push(hyperplane_angle_deg(&true_w, &est_w));

        // Baseline: the same attack on *un-randomized* decision values
        // reconstructs the direction essentially exactly.
        let exact_values: Vec<f64> = points.iter().map(|t| model.decision(t)).collect();
        let (exact_w, _) = least_squares_fit(&points, &exact_values);
        exact_errors.push(hyperplane_angle_deg(&true_w, &exact_w));
    }
    let mean = randomized_errors.iter().sum::<f64>() / randomized_errors.len() as f64;
    let exact_mean = exact_errors.iter().sum::<f64>() / exact_errors.len() as f64;
    assert!(
        exact_mean < 1e-6,
        "exact values must reconstruct the direction: {exact_mean}°"
    );
    assert!(
        mean > 0.5 && mean > 1e5 * exact_mean.max(1e-12),
        "randomized transcripts must degrade the estimate by orders of magnitude: \
         randomized {mean}° vs exact {exact_mean}° ({randomized_errors:?})"
    );
}
