//! OMPE protocol benchmarks: one oblivious evaluation across input
//! arities — the per-sample cost core of Fig. 9.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppcs_math::{Algebra, FixedFpAlgebra, MvPolynomial};
use ppcs_ompe::{ompe_receive, ompe_send, OmpeParams};
use ppcs_ot::TrustedSimOt;
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

static SIM: TrustedSimOt = TrustedSimOt;

fn run_fixed(arity: usize, params: OmpeParams) {
    let alg = FixedFpAlgebra::new(16);
    let weights: Vec<_> = (0..arity)
        .map(|i| alg.encode(0.1 * i as f64 - 0.3, 1))
        .collect();
    let secret = MvPolynomial::affine(&alg, &weights, alg.encode(0.5, 2));
    let alpha: Vec<_> = (0..arity)
        .map(|i| alg.encode(0.05 * i as f64 - 0.2, 1))
        .collect();
    let (res, v) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(1);
            ompe_send(&alg, &ep, &SIM, &mut rng, &secret, &params)
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(2);
            ompe_receive(&alg, &ep, &SIM, &mut rng, &alpha, &params)
        },
    );
    res.expect("send");
    black_box(v.expect("receive"));
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
