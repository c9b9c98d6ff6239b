//! # ppcs-bench
//!
//! Shared harness code for the experiment binaries (`table1`, `table2`,
//! `fig5`–`fig10`) and the Criterion benches. Each binary regenerates
//! one table or figure of the ICDCS'16 evaluation; `EXPERIMENTS.md`
//! records paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use ppcs_core::{Client, ProtocolConfig, ServerConfig, Trainer, TrainerServer};
use ppcs_datasets::{generate, DatasetSpec};
use ppcs_math::{FixedFpAlgebra, Fp256, MvPolynomial};
use ppcs_ompe::{ompe_receive_io, ompe_send_io, OmpeParams};
use ppcs_ot::{ObliviousTransfer, OtSelect, TrustedSimOt};
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_transport::{
    drive_blocking, duplex, duplex_pool, run_engine_pair, run_pair, Driver, ProtocolEngine,
    Transcript,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A trained (linear, polynomial) model pair plus its data.
pub struct TrainedEntry {
    /// The catalog spec that produced this entry.
    pub spec: DatasetSpec,
    /// Training split.
    pub train: Dataset,
    /// Testing split.
    pub test: Dataset,
    /// Linear-kernel model.
    pub linear: SvmModel,
    /// Paper-default polynomial-kernel model (`a₀ = 1/n, b₀ = 0, p = 3`).
    pub poly: SvmModel,
}

/// Generates the analog dataset for `spec` and trains both kernels with
/// the spec's `C`.
pub fn train_entry(spec: &DatasetSpec) -> TrainedEntry {
    let data = generate(spec);
    let linear_params = SmoParams {
        c: spec.c_param,
        max_iterations: 300_000,
        ..SmoParams::default()
    };
    let poly_params = SmoParams {
        c: spec.poly_c,
        max_iterations: 300_000,
        ..SmoParams::default()
    };
    let linear = SvmModel::train(&data.train, Kernel::Linear, &linear_params);
    let poly = SvmModel::train(
        &data.train,
        Kernel::paper_polynomial(spec.dim),
        &poly_params,
    );
    TrainedEntry {
        spec: spec.clone(),
        train: data.train,
        test: data.test,
        linear,
        poly,
    }
}

/// One single-shot OMPE evaluation of `secret` at `alpha` over the ideal
/// OT, both roles pumped against each other on this thread; returns the
/// receiver's value.
pub fn ompe_round(
    secret: &MvPolynomial<FixedFpAlgebra>,
    alpha: &[Fp256],
    params: &OmpeParams,
) -> Fp256 {
    let alg = &FixedFpAlgebra::new(16);
    let sel = OtSelect::TrustedSim;
    let mut rng_s = StdRng::seed_from_u64(1);
    let mut rng_r = StdRng::seed_from_u64(2);
    let mut sender = ProtocolEngine::new(|io| async move {
        ompe_send_io(alg, &io, sel, &mut rng_s, secret, params).await
    });
    let mut receiver = ProtocolEngine::new(|io| async move {
        ompe_receive_io(alg, &io, sel, &mut rng_r, alpha, params).await
    });
    let (sent, value) = run_engine_pair(&mut sender, &mut receiver).expect("OMPE engines");
    sent.expect("send");
    value.expect("receive")
}

/// Runs the private classification protocol over `samples` and returns
/// the labels (functional mode by default via the supplied config).
pub fn private_classify(
    model: &SvmModel,
    samples: &[Vec<f64>],
    cfg: ProtocolConfig,
    seed: u64,
) -> Vec<Label> {
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer setup");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = samples.to_vec();
    let (_, labels) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed);
            trainer.serve(&ep, &TrustedSimOt, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            client
                .classify_batch(&ep, &TrustedSimOt, &mut rng, &samples)
                .expect("classify")
        },
    );
    labels
}

/// Runs the private classification protocol over `samples` spread across
/// `lanes` independent transport lanes, trainer and client each fanning
/// out one thread per lane (a [`TrainerServer`] of one lane per trainer
/// thread, since one server runs on one reactor thread). With
/// `lanes == 1` this measures the batched single-session path (session
/// reuse + coalesced point clouds) without parallelism.
pub fn private_classify_parallel(
    model: &SvmModel,
    samples: &[Vec<f64>],
    cfg: ProtocolConfig,
    lanes: usize,
    seed: u64,
) -> Vec<Label> {
    private_classify_parallel_with_ot(model, samples, cfg, lanes, seed, &TrustedSimOt)
}

/// [`private_classify_parallel`] with an explicit OT engine, so the
/// benches can measure lane scaling under the real (CPU-heavy)
/// Naor–Pinkas transfers as well as the ideal functionality.
pub fn private_classify_parallel_with_ot(
    model: &SvmModel,
    samples: &[Vec<f64>],
    cfg: ProtocolConfig,
    lanes: usize,
    seed: u64,
    ot: &dyn ObliviousTransfer,
) -> Vec<Label> {
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer setup");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    // Like the one-shot sessions it stands beside, no precomputation.
    let config = ServerConfig {
        precompute_capacity: 0,
        ..ServerConfig::default()
    };
    let (trainer_eps, client_eps) = duplex_pool(lanes);
    std::thread::scope(|scope| {
        for (i, lane) in trainer_eps.into_iter().enumerate() {
            let server = TrainerServer::new(&trainer, config.clone());
            scope.spawn(move || {
                let seed = seed.wrapping_add(i as u64);
                server.serve(vec![lane], ot, seed).expect("serve")
            });
        }
        client
            .classify_batch_parallel(&client_eps, ot, seed + 1000, samples)
            .expect("classify_batch_parallel")
    })
}

/// Runs one private-classification session over a duplex with the
/// client's [`Driver`] recording, and returns the labels plus the
/// session [`Transcript`].
///
/// The transcript's byte accounting is asserted against the endpoint's
/// own [`TrafficStats`](ppcs_transport::TrafficStats): every wire byte
/// the client moved must be attributed to a recorded frame, so the
/// communication-volume figures derived from transcripts are exact.
pub fn recorded_classification_session(
    model: &SvmModel,
    samples: &[Vec<f64>],
    cfg: ProtocolConfig,
    seed: u64,
) -> (Vec<Label>, Transcript) {
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer setup");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let sel = TrustedSimOt.select();
    let (ep_t, ep_c) = duplex();
    let (_, (values, transcript)) = std::thread::scope(|scope| {
        let t = scope.spawn(|| {
            let mut eng = trainer.serve_engine(sel, seed);
            drive_blocking(&ep_t, &mut eng).expect("serve")
        });
        let c = scope.spawn(|| {
            let mut driver = Driver::new().with_recording();
            let mut eng = client.classify_engine(sel, seed + 1, samples);
            let values = driver.drive(&ep_c, &mut eng).expect("classify");
            let transcript = driver.take_transcript().expect("recording enabled");
            let stats = ep_c.stats();
            assert_eq!(
                transcript.total_wire_bytes() as u64,
                stats.bytes_sent + stats.bytes_received,
                "transcript byte accounting must match the endpoint's traffic counters"
            );
            (values, transcript)
        });
        (
            t.join().expect("trainer thread"),
            c.join().expect("client thread"),
        )
    });
    let labels = values.into_iter().map(|(label, _)| label).collect();
    (labels, transcript)
}

/// Accuracy of the private protocol on (a subsample of) the test split,
/// how many of its labels equal the plain model's, and the subsample
/// size: `(accuracy, agreeing, n)`.
///
/// `max_samples` caps the protocol runs. The model is fixed-point
/// encoded at 16 fractional bits, so a sample within quantization of
/// the boundary could flip; `agreeing` would show it.
pub fn private_accuracy(
    model: &SvmModel,
    test: &Dataset,
    max_samples: usize,
    cfg: ProtocolConfig,
    seed: u64,
) -> (f64, usize, usize) {
    let n = test.len().min(max_samples);
    let samples: Vec<Vec<f64>> = (0..n).map(|i| test.features(i).to_vec()).collect();
    let labels = private_classify(model, &samples, cfg, seed);
    let count = |truth: &dyn Fn(usize) -> Label| {
        labels
            .iter()
            .enumerate()
            .filter(|(i, l)| **l == truth(*i))
            .count()
    };
    let correct = count(&|i| test.label(i));
    let agreeing = count(&|i| model.predict(&samples[i]));
    (correct as f64 / n as f64, agreeing, n)
}

/// Plain accuracy on (a subsample of) the test split, matching the
/// subsampling of [`private_accuracy`] for apples-to-apples columns.
pub fn plain_accuracy(model: &SvmModel, test: &Dataset, max_samples: usize) -> f64 {
    let n = test.len().min(max_samples);
    let correct = (0..n)
        .filter(|&i| model.predict(test.features(i)) == test.label(i))
        .count();
    correct as f64 / n as f64
}

/// Wall-clock time of `f`, in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// Times a full private-classification batch; returns (labels, ms).
pub fn time_private_batch(
    model: &SvmModel,
    samples: &[Vec<f64>],
    cfg: ProtocolConfig,
    ot: &'static dyn ObliviousTransfer,
    seed: u64,
) -> (Vec<Label>, f64) {
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer setup");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = samples.to_vec();
    let start = Instant::now();
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
    (labels, start.elapsed().as_secs_f64() * 1e3)
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a rule of the combined table width.
pub fn print_rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcs_datasets::spec_by_name;

    #[test]
    fn train_entry_produces_working_models() {
        let spec = spec_by_name("breast-cancer").unwrap();
        let entry = train_entry(&spec);
        assert!(entry.linear.accuracy(&entry.test) > 0.8);
        assert_eq!(entry.test.len(), spec.test_size);
    }

    #[test]
    fn recorded_session_bytes_match_traffic_and_labels_match_plain_path() {
        let spec = spec_by_name("diabetes").unwrap();
        let entry = train_entry(&spec);
        let cfg = ProtocolConfig::functional();
        let samples: Vec<Vec<f64>> = (0..10).map(|i| entry.test.features(i).to_vec()).collect();
        let (labels, transcript) = recorded_classification_session(&entry.linear, &samples, cfg, 5);
        // Byte-for-byte agreement with the blocking path: same seeds,
        // same frames, same labels.
        assert_eq!(labels, private_classify(&entry.linear, &samples, cfg, 5));
        assert!(transcript.total_wire_bytes() > 0);
        assert!(transcript.total_frames() > 0);
        // The transcript serializes and round-trips.
        let restored = Transcript::from_bytes(&transcript.to_bytes()).unwrap();
        assert_eq!(restored.total_wire_bytes(), transcript.total_wire_bytes());
    }

    #[test]
    fn private_accuracy_matches_plain_on_subsample() {
        let spec = spec_by_name("diabetes").unwrap();
        let entry = train_entry(&spec);
        let (private, agreeing, n) = private_accuracy(
            &entry.linear,
            &entry.test,
            50,
            ProtocolConfig::functional(),
            1,
        );
        let plain = plain_accuracy(&entry.linear, &entry.test, 50);
        assert_eq!((agreeing, n), (50, 50));
        assert!((private - plain).abs() < 1e-12);
    }
}
