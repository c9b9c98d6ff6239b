//! **Fig. 10** — Computational cost of similarity evaluation vs
//! hyperplane dimension (2–8): ordinary (in-the-clear metric) vs the
//! privacy-preserving protocol.
//!
//! Both parties' geometries (boundary points, centroids, norms) are
//! precomputed outside the timed region — the paper's comparison is
//! between "a simple multiplication per dimension" (ordinary) and "more
//! random polynomials per dimension" (private), i.e. the per-evaluation
//! work after training.
//!
//! ```text
//! cargo run -p ppcs-bench --bin fig10 --release
//! ```

use ppcs_bench::{print_row, print_rule, time_ms};
use ppcs_core::{
    direction_input, similarity_plain_geometry, similarity_request_geometry,
    similarity_respond_geometry, ModelGeometry, SimilarityConfig,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_svm::{Dataset, Kernel, Label, SmoParams, SvmModel};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn model_of_dim(dim: usize, seed: u64) -> SvmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut ds = Dataset::new(dim);
    while ds.len() < 120 {
        let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let score = ppcs_svm::dot(&w, &x) + 0.05;
        if score.abs() < 0.1 {
            continue;
        }
        ds.push(x, Label::from_sign(score));
    }
    SvmModel::train(
        &ds,
        Kernel::Linear,
        &SmoParams {
            c: 10.0,
            ..SmoParams::default()
        },
    )
}

fn main() {
    const RUNS: usize = 20;
    println!(
        "\nFig. 10 — Computational Cost of Similarity Evaluation vs Dimension\n\
         \nPer-evaluation wall-clock time with precomputed geometry\n\
         (averaged over {RUNS} runs).\n"
    );
    let widths = [6usize, 16, 18, 8];
    print_row(
        &[
            "dims".into(),
            "ordinary (ns)".into(),
            "private (µs)".into(),
            "ratio".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let cfg = SimilarityConfig::default();
    for dim in 2..=8usize {
        let ma = model_of_dim(dim, 1000 + dim as u64);
        let mb = model_of_dim(dim, 2000 + dim as u64);
        let ga = ModelGeometry::from_model(&ma, &cfg).expect("geometry A");
        let gb = ModelGeometry::from_model(&mb, &cfg).expect("geometry B");
        let gb_dir = direction_input(&gb, &mb);

        // Ordinary: the metric formula over precomputed geometry.
        const ORD_REPS: usize = 20_000;
        let (_, ordinary_ms) = time_ms(|| {
            let mut acc = 0.0;
            for _ in 0..ORD_REPS {
                acc += similarity_plain_geometry(
                    &ga,
                    &gb,
                    Kernel::Linear,
                    std::hint::black_box(&gb_dir),
                    &cfg,
                );
            }
            std::hint::black_box(acc)
        });
        let ordinary_ns = 1e6 * ordinary_ms / ORD_REPS as f64;

        // Private: the three OMPE rounds over the same geometry.
        let (_, private_total_ms) = time_ms(|| {
            for run in 0..RUNS {
                let (ga, gb) = (ga.clone(), gb.clone());
                let gb_dir = gb_dir.clone();
                let (res, _t) = run_pair(
                    move |ep| {
                        let mut rng = StdRng::seed_from_u64(3000 + run as u64);
                        similarity_respond_geometry(
                            &FixedFpAlgebra::new(16),
                            &ep,
                            &TrustedSimOt,
                            &mut rng,
                            &ga,
                            Kernel::Linear,
                            dim,
                            &cfg,
                        )
                    },
                    move |ep| {
                        let mut rng = StdRng::seed_from_u64(4000 + run as u64);
                        similarity_request_geometry(
                            &FixedFpAlgebra::new(16),
                            &ep,
                            &TrustedSimOt,
                            &mut rng,
                            &gb,
                            &gb_dir,
                            dim,
                            &cfg,
                        )
                        .expect("similarity")
                    },
                );
                res.expect("responder");
            }
        });
        let private_us = 1e3 * private_total_ms / RUNS as f64;

        print_row(
            &[
                format!("{dim}"),
                format!("{ordinary_ns:.1}"),
                format!("{private_us:.1}"),
                format!("{:.0}x", 1e3 * private_us / ordinary_ns),
            ],
            &widths,
        );
    }
    println!(
        "\nShape to compare with the paper's Fig. 10: the private evaluation's\n\
         cost grows faster with dimension than the ordinary one's (each extra\n\
         dimension adds masking polynomials, not just one multiplication)."
    );
}
