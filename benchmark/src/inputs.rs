//! Seeded inputs and the plaintext oracle.
//!
//! What a client brings to the system — which test samples it asks
//! about, in which order, and every protocol RNG seed of both parties —
//! derives from the `--seed` argument through [`derive`], so one seed
//! names one exact run. What the trainer holds — the dataset it trained
//! on and hence its model — is part of the system under test and is the
//! same for every seed: SMO training time and the similarity
//! protocol's geometry derivation both depend on the model, so a
//! seed-drawn model would make `setup_s` and `similarity_fp256`'s
//! latency differ from seed to seed by more than any change the
//! benchmark is meant to resolve (measured: 0.26–1.12 s and ±6 %).
//!
//! The oracle is the product's own plaintext path:
//! [`SvmModel::predict`] for labels, [`similarity_plain`] for `T`.

use std::time::Instant;

use ppcs_core::{similarity_plain, SimilarityConfig};
use ppcs_datasets::{diabetes_subsets, generate, spec_by_name};
use ppcs_svm::{Kernel, Label, SmoParams, SvmModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test samples closer to the decision boundary than this are left out:
/// the 16-bit fixed-point encoding resolves decision values to ~2⁻¹⁶,
/// so a sample inside that band could legitimately decode to the other
/// sign and read as a protocol failure.
const MIN_DECISION_MARGIN: f64 = 1e-3;

/// Independent seed streams drawn from the run seed (splitmix64 of
/// `seed` offset by the stream index), so that e.g. the dataset seed
/// and the protocol seeds never collide.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed the Table II harness draws the diabetes subsets with.
const SUBSETS_SEED: u64 = 42;

/// Seed streams. Per-request protocol seeds are `derive(seed,
/// STREAM_REQUEST + 2·i)` for the client and `+ 1` for the peer.
/// This one orders the client's samples.
pub const STREAM_SAMPLES: u64 = 1;
/// Seed stream of the serving side's run-level seed.
pub const STREAM_SERVER: u64 = 2;
/// Seed stream of ladder rungs (parameters only; rung work is seeded
/// so two runs of one seed time identical operations).
pub const STREAM_LADDER: u64 = 3;
/// First per-request seed stream.
pub const STREAM_REQUEST: u64 = 1 << 32;

/// A trained classification model with oracle-labelled test samples.
#[derive(Clone)]
pub struct ClassifyInputs {
    /// The trained model (the trainer's secret; also the oracle).
    pub model: SvmModel,
    /// Test samples in the order this seed's client asks about them,
    /// each at least [`MIN_DECISION_MARGIN`] from the boundary.
    pub samples: Vec<Vec<f64>>,
    /// `model.predict` of each sample.
    pub expected: Vec<Label>,
    /// Wall time of dataset generation plus SVM training.
    pub train_s: f64,
}

/// Which catalog model a classification workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// `diabetes` analog, linear kernel: 8 OMPE inputs.
    DiabetesLinear,
    /// `german.numer` analog, the paper's degree-3 polynomial kernel:
    /// 24 dims expand to 2 600 monomials.
    GermanPoly3,
}

/// Generates `kind`'s catalog dataset, trains the model, and orders
/// the usable test samples by `seed`.
pub fn classify_inputs(kind: ModelKind, seed: u64) -> ClassifyInputs {
    let start = Instant::now();
    let (name, poly) = match kind {
        ModelKind::DiabetesLinear => ("diabetes", false),
        ModelKind::GermanPoly3 => ("german.numer", true),
    };
    let spec = spec_by_name(name).expect("catalog entry");
    let data = generate(&spec);
    let (kernel, c) = if poly {
        (Kernel::paper_polynomial(spec.dim), spec.poly_c)
    } else {
        (Kernel::Linear, spec.c_param)
    };
    let params = SmoParams {
        c,
        max_iterations: 300_000,
        ..SmoParams::default()
    };
    let model = SvmModel::train(&data.train, kernel, &params);
    let train_s = start.elapsed().as_secs_f64();
    let mut samples: Vec<Vec<f64>> = (0..data.test.len())
        .map(|i| data.test.features(i))
        .filter(|x| model.decision(x).abs() >= MIN_DECISION_MARGIN)
        .map(<[f64]>::to_vec)
        .collect();
    assert!(samples.len() >= 64, "too few usable test samples");
    let mut rng = StdRng::seed_from_u64(derive(seed, STREAM_SAMPLES));
    for i in (1..samples.len()).rev() {
        samples.swap(i, rng.gen_range(0..=i));
    }
    let expected = samples.iter().map(|s| model.predict(s)).collect();
    ClassifyInputs {
        model,
        samples,
        expected,
        train_s,
    }
}

/// Two models to compare and the oracle's answer.
#[derive(Clone)]
pub struct SimilarityInputs {
    /// Alice's (responder's) model: trained on diabetes subset S1.
    pub model_a: SvmModel,
    /// Bob's (requester's) model: trained on subset S2.
    pub model_b: SvmModel,
    /// Shared public configuration.
    pub cfg: SimilarityConfig,
    /// `similarity_plain(model_a, model_b)`.
    pub expected_t: f64,
    /// Wall time of subset generation plus both trainings.
    pub train_s: f64,
}

/// Generates the Table II diabetes subsets and trains the S1/S2 linear
/// models. The protocol has no per-request input besides the two
/// models, so the run seed reaches it only through the protocol RNGs.
pub fn similarity_inputs() -> SimilarityInputs {
    let start = Instant::now();
    let subsets = diabetes_subsets(SUBSETS_SEED);
    let params = SmoParams {
        c: 8.0,
        ..SmoParams::default()
    };
    let model_a = SvmModel::train(&subsets[0], Kernel::Linear, &params);
    let model_b = SvmModel::train(&subsets[1], Kernel::Linear, &params);
    let train_s = start.elapsed().as_secs_f64();
    let cfg = SimilarityConfig::default();
    let expected_t = similarity_plain(&model_a, &model_b, &cfg).expect("plain similarity");
    SimilarityInputs {
        model_a,
        model_b,
        cfg,
        expected_t,
        train_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_distinct_and_repeatable() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        let a = classify_inputs(ModelKind::DiabetesLinear, 3);
        let b = classify_inputs(ModelKind::DiabetesLinear, 3);
        let c = classify_inputs(ModelKind::DiabetesLinear, 4);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.samples[..8], c.samples[..8]);
        // The same samples, asked about in another order.
        let sorted = |inputs: &ClassifyInputs| {
            let mut rows = inputs.samples.clone();
            rows.sort_by(|x, y| x.partial_cmp(y).expect("finite features"));
            rows
        };
        assert_eq!(sorted(&a), sorted(&c));
        for (sample, want) in c.samples.iter().zip(&c.expected) {
            assert_eq!(c.model.predict(sample), *want);
        }
    }
}
