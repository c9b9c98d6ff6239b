//! **Fig. 7** — Accuracy of linear data classification: original SVM vs
//! the privacy-preserving scheme on the eight named datasets. The paper's
//! claim: the bars are identical.
//!
//! ```text
//! cargo run -p ppcs-bench --bin fig7 --release
//! ```

use ppcs_bench::{plain_accuracy, print_row, print_rule, private_accuracy, train_entry};
use ppcs_core::ProtocolConfig;
use ppcs_datasets::spec_by_name;

/// The paper's Fig. 7 x-axis order.
const DATASETS: [&str; 8] = [
    "splice",
    "madelon",
    "diabetes",
    "german.numer",
    "australian",
    "cod-rna",
    "ionosphere",
    "breast-cancer",
];

/// Cap on private protocol runs per dataset (functional mode is fast,
/// but cod-rna's 59k-test split would still dominate the run).
const MAX_PRIVATE_SAMPLES: usize = 2000;

fn main() {
    println!("\nFig. 7 — Accuracy of Linear Data Classification\n");
    let widths = [14usize, 12, 14, 12];
    print_row(
        &[
            "dataset".into(),
            "original %".into(),
            "private %".into(),
            "labels =".into(),
        ],
        &widths,
    );
    print_rule(&widths);

    for name in DATASETS {
        let spec = spec_by_name(name).expect("catalog entry");
        let entry = train_entry(&spec);
        let cfg = ProtocolConfig::functional();
        let plain = plain_accuracy(&entry.linear, &entry.test, MAX_PRIVATE_SAMPLES);
        let (private, agreeing, n) =
            private_accuracy(&entry.linear, &entry.test, MAX_PRIVATE_SAMPLES, cfg, 7);
        print_row(
            &[
                name.into(),
                format!("{:.2}", 100.0 * plain),
                format!("{:.2}", 100.0 * private),
                format!("{agreeing}/{n}"),
            ],
            &widths,
        );
    }
    println!(
        "\nThe paper's claim: identical bars. 'labels =' counts the private labels\n\
         equal to the original SVM's, the model and samples fixed-point encoded\n\
         at 16 fractional bits in the 256-bit field."
    );
}
