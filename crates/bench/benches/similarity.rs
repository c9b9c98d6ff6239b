//! Similarity-evaluation cost (Fig. 10): ordinary metric vs the private
//! three-round protocol, across hyperplane dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppcs_core::{similarity_plain, similarity_request, similarity_respond, SimilarityConfig};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn model_of_dim(dim: usize, seed: u64) -> SvmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut ds = Dataset::new(dim);
    while ds.len() < 100 {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let score = ppcs_svm::dot(&w, &x) + 0.05;
        if score.abs() < 0.1 {
            continue;
        }
        ds.push(x, Label::from_sign(score));
    }
    SvmModel::train(&ds, Kernel::Linear, &SmoParams::default())
}

fn bench_similarity(c: &mut Criterion) {
    let cfg = SimilarityConfig::default();
    let mut group = c.benchmark_group("similarity");
    group.sample_size(20);
    for dim in [2usize, 4, 8] {
        let ma = model_of_dim(dim, 10 + dim as u64);
        let mb = model_of_dim(dim, 20 + dim as u64);
        group.bench_with_input(BenchmarkId::new("ordinary", dim), &dim, |b, _| {
            b.iter(|| black_box(similarity_plain(&ma, &mb, &cfg).expect("metric")))
        });
        group.bench_with_input(BenchmarkId::new("private", dim), &dim, |b, _| {
            b.iter(|| {
                let (ma, mb) = (ma.clone(), mb.clone());
                let (res, t) = run_pair(
                    move |ep| {
                        let mut rng = StdRng::seed_from_u64(1);
                        similarity_respond(
                            &FixedFpAlgebra::new(16),
                            &ep,
                            &TrustedSimOt,
                            &mut rng,
                            &ma,
                            &cfg,
                        )
                    },
                    move |ep| {
                        let mut rng = StdRng::seed_from_u64(2);
                        similarity_request(
                            &FixedFpAlgebra::new(16),
                            &ep,
                            &TrustedSimOt,
                            &mut rng,
                            &mb,
                            &cfg,
                        )
                        .expect("similarity")
                    },
                );
                res.expect("responder");
                black_box(t)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_similarity);
criterion_main!(benches);
