//! Batch/parallel classification equivalence: `classify_batch_parallel`
//! over any number of lanes must return exactly the labels the plain
//! sequential session returns, across every kernel family.
//!
//! Over the field the protocol arithmetic is exact, so equality here is
//! bitwise, independent of RNG seeds, lane counts, and shard boundaries.

use ppcs_core::{Client, ProtocolConfig, ServerConfig, Trainer, TrainerServer};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Kernel, Label, SmoParams, SvmModel};
use ppcs_tests::{blob_dataset, random_samples};
use ppcs_transport::{duplex_pool, run_pair};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

static SIM: TrustedSimOt = TrustedSimOt;

fn sequential(
    model: &SvmModel,
    cfg: ProtocolConfig,
    samples: &[Vec<f64>],
    seed: u64,
) -> Vec<Label> {
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples = samples.to_vec();
    let (_, labels) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed);
            trainer.serve(&ep, &SIM, &mut rng).expect("serve")
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(seed + 1);
            client
                .classify_batch(&ep, &SIM, &mut rng, &samples)
                .expect("classify")
        },
    );
    labels
}

fn parallel(
    model: &SvmModel,
    cfg: ProtocolConfig,
    samples: &[Vec<f64>],
    lanes: usize,
    seed: u64,
) -> (usize, Vec<Label>) {
    let trainer = Trainer::new(FixedFpAlgebra::new(16), model, cfg).expect("trainer");
    let server = TrainerServer::new(&trainer, ServerConfig::default());
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let (trainer_eps, client_eps) = duplex_pool(lanes);
    std::thread::scope(|scope| {
        let t = scope.spawn(|| {
            let summary = server.serve(trainer_eps, &SIM, seed).expect("serve");
            summary.served_samples
        });
        let c = scope.spawn(|| {
            client
                .classify_batch_parallel(&client_eps, &SIM, seed + 1000, samples)
                .expect("classify_batch_parallel")
        });
        (t.join().expect("trainer"), c.join().expect("client"))
    })
}

fn trained(kernel: Kernel) -> SvmModel {
    let ds = blob_dataset(3, 80, 7);
    SvmModel::train(&ds, kernel, &SmoParams::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Linear kernel over the exact field: parallel labels are
    /// bitwise-identical to sequential for every lane count and seed.
    #[test]
    fn linear_parallel_is_bitwise_sequential(
        n in 1usize..24,
        lanes in 1usize..5,
        seed in 0u64..1_000,
        sample_seed in 0u64..1_000,
    ) {
        let model = trained(Kernel::Linear);
        let cfg = ProtocolConfig::default();
        let samples = random_samples(3, n, sample_seed);
        let want = sequential(&model, cfg, &samples, seed);
        let (served, got) =
            parallel(&model, cfg, &samples, lanes, seed + 1);
        prop_assert_eq!(served, n);
        prop_assert_eq!(got, want);
    }

    /// Polynomial kernel (degree 2): same bitwise
    /// guarantee for a nonlinear model.
    #[test]
    fn polynomial_parallel_is_bitwise_sequential(
        n in 1usize..16,
        lanes in 1usize..4,
        seed in 0u64..1_000,
        sample_seed in 0u64..1_000,
    ) {
        let model = trained(Kernel::Polynomial { a0: 0.5, b0: 1.0, degree: 2 });
        let cfg = ProtocolConfig::default();
        let samples = random_samples(3, n, sample_seed);
        let want = sequential(&model, cfg, &samples, seed);
        let (served, got) =
            parallel(&model, cfg, &samples, lanes, seed + 1);
        prop_assert_eq!(served, n);
        prop_assert_eq!(got, want);
    }

    /// RBF kernel through the truncated Taylor expansion: parallel agrees
    /// with sequential.
    #[test]
    fn rbf_parallel_matches_sequential(
        n in 1usize..12,
        lanes in 1usize..4,
        seed in 0u64..1_000,
        sample_seed in 0u64..1_000,
    ) {
        let model = trained(Kernel::Rbf { gamma: 0.4 });
        let cfg = ProtocolConfig { taylor_order: 4, ..ProtocolConfig::default() };
        let samples = random_samples(3, n, sample_seed);
        let want = sequential(&model, cfg, &samples, seed);
        let (served, got) =
            parallel(&model, cfg, &samples, lanes, seed + 1);
        prop_assert_eq!(served, n);
        prop_assert_eq!(got, want);
    }
}

/// Non-property smoke check: an empty batch over parallel lanes is a
/// clean no-op on both sides.
#[test]
fn empty_parallel_batch_is_a_noop() {
    let model = trained(Kernel::Linear);
    let cfg = ProtocolConfig::default();
    let (served, labels) = parallel(&model, cfg, &[], 3, 5);
    assert_eq!(served, 0);
    assert!(labels.is_empty());
}
