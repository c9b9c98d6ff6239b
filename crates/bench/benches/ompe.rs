//! OMPE protocol benchmarks: one oblivious evaluation across input
//! arities — the per-sample cost core of Fig. 9.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppcs_bench::ompe_round;
use ppcs_math::{Algebra, FixedFpAlgebra, MvPolynomial};
use ppcs_ompe::OmpeParams;
use std::hint::black_box;

fn run_fixed(arity: usize, params: OmpeParams) {
    let alg = FixedFpAlgebra::new(16);
    let weights: Vec<_> = (0..arity)
        .map(|i| alg.encode(0.1 * i as f64 - 0.3, 1))
        .collect();
    let secret = MvPolynomial::affine(&alg, &weights, alg.encode(0.5, 2));
    let alpha: Vec<_> = (0..arity)
        .map(|i| alg.encode(0.05 * i as f64 - 0.2, 1))
        .collect();
    black_box(ompe_round(&secret, &alpha, &params));
}

fn bench_ompe(c: &mut Criterion) {
    let params = OmpeParams::new(1, 3, 2).unwrap();

    let mut group = c.benchmark_group("ompe_affine");
    group.sample_size(30);
    for arity in [8usize, 60, 123, 500] {
        group.bench_with_input(BenchmarkId::new("fp256", arity), &arity, |b, &n| {
            b.iter(|| run_fixed(n, params))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ompe);
criterion_main!(benches);
