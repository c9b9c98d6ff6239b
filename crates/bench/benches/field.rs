//! Field-arithmetic microbenchmarks: the in-tree `Fp256` implementation,
//! the fixed-point encoding into it, and a Horner loop
//! against the same loop in plain `f64` — what computing over the field
//! costs over the plaintext arithmetic.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ppcs_math::{Algebra, FixedFpAlgebra, Fp256};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_field(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Fp256::random(&mut rng);
    let b = Fp256::random(&mut rng);

    let mut group = c.benchmark_group("fp256");
    group.bench_function("mul", |bench| {
        bench.iter(|| black_box(black_box(a) * black_box(b)))
    });
    group.bench_function("add", |bench| {
        bench.iter(|| black_box(black_box(a) + black_box(b)))
    });
    group.bench_function("square", |bench| {
        bench.iter(|| black_box(black_box(a).square()))
    });
    group.bench_function("inv", |bench| bench.iter(|| black_box(black_box(a).inv())));
    group.finish();

    let fixed = FixedFpAlgebra::new(16);
    let mut group = c.benchmark_group("encode_decode");
    group.bench_function("fixed/encode_scale1", |bench| {
        bench.iter(|| black_box(fixed.encode(black_box(0.73214), 1)))
    });
    group.bench_function("fixed/encode_scale8", |bench| {
        bench.iter(|| black_box(fixed.encode(black_box(0.73214), 8)))
    });
    let e = fixed.encode(0.73214, 2);
    group.bench_function("fixed/decode_scale2", |bench| {
        bench.iter(|| black_box(fixed.decode(black_box(&e), 2)))
    });
    group.finish();

    // A realistic protocol inner loop: Horner evaluation of a degree-12
    // polynomial, fixed-point vs float.
    let mut group = c.benchmark_group("horner_deg12");
    group.bench_function("fp256", |bench| {
        let mut rng = StdRng::seed_from_u64(2);
        let coeffs: Vec<Fp256> = (0..13).map(|_| Fp256::random(&mut rng)).collect();
        let x = Fp256::random(&mut rng);
        bench.iter_batched(
            || coeffs.clone(),
            |coeffs| {
                let mut acc = Fp256::ZERO;
                for c in coeffs.iter().rev() {
                    acc = acc * x + *c;
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("f64", |bench| {
        let coeffs: Vec<f64> = (0..13).map(|i| i as f64 * 0.37).collect();
        let x = 1.234f64;
        bench.iter(|| {
            let mut acc = 0.0;
            for c in coeffs.iter().rev() {
                acc = acc * x + *c;
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_field
}
criterion_main!(benches);
