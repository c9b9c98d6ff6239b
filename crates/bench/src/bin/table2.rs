//! **Table II** — Privacy-preserving similarity evaluation on the four
//! diabetes subsets: averaged two-sample K-S statistic vs the private
//! triangle metric `10³·T`, with the Spearman rank correlation
//! quantifying the paper's "same trend" claim.
//!
//! ```text
//! cargo run -p ppcs-bench --bin table2 --release
//! ```

use ppcs_bench::{print_row, print_rule};
use ppcs_core::{similarity_request, similarity_respond, SimilarityConfig};
use ppcs_datasets::{diabetes_subsets, TABLE2_PAIRS, TABLE2_PAPER};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::TrustedSimOt;
use ppcs_stats::{ks_average_over_dims, spearman_rank_correlation};
use ppcs_svm::{Kernel, SmoParams, SvmModel};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let subsets = diabetes_subsets(42);
    let params = SmoParams {
        c: 8.0,
        ..SmoParams::default()
    };
    let models: Vec<SvmModel> = subsets
        .iter()
        .map(|ds| SvmModel::train(ds, Kernel::Linear, &params))
        .collect();
    let cfg = SimilarityConfig::default();

    let widths = [10usize, 12, 12, 12, 12];
    println!("\nTable II — Privacy-preserving Data Similarity Evaluation\n");
    print_row(
        &[
            "pair".into(),
            "K-S avg".into(),
            "paper K-S".into(),
            "10³·T".into(),
            "paper 10³T".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    let mut ks_values = Vec::new();
    let mut t_values = Vec::new();
    for (row, &(i, j)) in TABLE2_PAIRS.iter().enumerate() {
        let ks = ks_average_over_dims(&subsets[i], &subsets[j]);
        let (ma, mb) = (models[i].clone(), models[j].clone());
        let (res, t) = run_pair(
            move |ep| {
                let mut rng = StdRng::seed_from_u64(10 + row as u64);
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
                let mut rng = StdRng::seed_from_u64(50 + row as u64);
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
        let (paper_ks, paper_t) = TABLE2_PAPER[row];
        print_row(
            &[
                format!("S{} vs S{}", i + 1, j + 1),
                format!("{ks:.3}"),
                format!("{paper_ks:.3}"),
                format!("{:.3}", 1e3 * t),
                format!("{paper_t:.3}"),
            ],
            &widths,
        );
        ks_values.push(ks);
        t_values.push(t);
    }

    let rho = spearman_rank_correlation(&ks_values, &t_values);
    println!(
        "\nSpearman rank correlation between K-S and private T: {rho:.3} \
         (paper claims \"same trend\"; 1.0 = identical ranking)."
    );
    println!(
        "Note: absolute magnitudes differ from the paper's (synthetic subsets; \
         the paper's values are not triangle-consistent) — the claim under test \
         is the shared ordering."
    );
}
