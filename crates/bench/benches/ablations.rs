//! Ablation benchmarks for the design choices DESIGN.md §7 calls out:
//!
//! * masking degree `σ` (the paper's `q`) vs per-evaluation cost;
//! * decoy density `m` (the paper's `k`, `M = m·k` points) vs cost;
//! * monomial-expansion blowup vs kernel degree;
//! * Taylor truncation order vs expansion cost for RBF models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppcs_bench::ompe_round;
use ppcs_core::{expand_model, ProtocolConfig};
use ppcs_math::{Algebra, FixedFpAlgebra, MvPolynomial};
use ppcs_ompe::OmpeParams;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn run_ompe(params: OmpeParams) {
    let alg = FixedFpAlgebra::new(16);
    let enc = |v: &[f64]| v.iter().map(|x| alg.encode(*x, 1)).collect::<Vec<_>>();
    let secret = MvPolynomial::affine(&alg, &enc(&[0.5, -0.25, 0.125, 1.0]), alg.encode(0.75, 2));
    let alpha = enc(&[0.1, 0.2, 0.3, 0.4]);
    black_box(ompe_round(&secret, &alpha, &params));
}

fn toy_model(kernel: Kernel, dim: usize) -> SvmModel {
    let mut rng = StdRng::seed_from_u64(3);
    let mut ds = Dataset::new(dim);
    for k in 0..80 {
        let positive = k % 2 == 0;
        let c = if positive { 0.5 } else { -0.5 };
        ds.push(
            (0..dim).map(|_| c + rng.gen_range(-0.45..0.45)).collect(),
            if positive {
                Label::Positive
            } else {
                Label::Negative
            },
        );
    }
    SvmModel::train(&ds, kernel, &SmoParams::default())
}

fn bench_ablations(c: &mut Criterion) {
    // Masking degree sweep (q in the paper; m = q+1 interpolation points).
    let mut group = c.benchmark_group("ablation_masking_degree");
    group.sample_size(30);
    for sigma in [1usize, 2, 4, 8, 16] {
        let params = OmpeParams::new(1, sigma, 2).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(sigma), &sigma, |b, _| {
            b.iter(|| run_ompe(params))
        });
    }
    group.finish();

    // Decoy density sweep (k in the paper; M = m·k submitted points).
    let mut group = c.benchmark_group("ablation_cover_density");
    group.sample_size(30);
    for decoys in [1usize, 2, 4, 8, 16] {
        let params = OmpeParams::new(1, 3, decoys).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(decoys), &decoys, |b, _| {
            b.iter(|| run_ompe(params))
        });
    }
    group.finish();

    // Monomial-expansion blowup: n' = C(n+p-1, p).
    let mut group = c.benchmark_group("ablation_expansion_degree");
    group.sample_size(10);
    for degree in [2u32, 3, 4, 5] {
        let model = toy_model(
            Kernel::Polynomial {
                a0: 0.2,
                b0: 0.0,
                degree,
            },
            8,
        );
        let cfg = ProtocolConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(degree), &degree, |b, _| {
            b.iter(|| black_box(expand_model(&model, &cfg).expect("expansion")))
        });
    }
    group.finish();

    // Taylor order for RBF expansion.
    let mut group = c.benchmark_group("ablation_taylor_order");
    group.sample_size(10);
    let model = toy_model(Kernel::Rbf { gamma: 0.4 }, 4);
    for order in [1u32, 2, 3, 4, 5] {
        let cfg = ProtocolConfig {
            taylor_order: order,
            ..ProtocolConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(order), &order, |b, _| {
            b.iter(|| black_box(expand_model(&model, &cfg).expect("expansion")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
