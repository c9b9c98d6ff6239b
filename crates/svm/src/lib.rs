//! # ppcs-svm
//!
//! A self-contained support vector machine trainer standing in for
//! LIBSVM \[29\] in the ICDCS'16 reproduction: C-SVC solved by Sequential
//! Minimal Optimization with maximal-violating-pair selection and an LRU
//! kernel-row cache.
//!
//! Provides the decision-function form the private protocols consume —
//! `d(t) = Σ_s α_s y_s K(x_s, t) + b` — for linear, polynomial, RBF, and
//! sigmoid kernels, plus the `[-1, 1]` feature scaling the paper applies
//! to every dataset.
//!
//! ## Example
//!
//! ```
//! use ppcs_svm::{Dataset, Kernel, Label, Scaler, SmoParams, SvmModel};
//!
//! let mut raw = Dataset::new(2);
//! for i in 0..40 {
//!     let v = i as f64;
//!     raw.push(vec![v, 40.0 - v], if v < 20.0 { Label::Negative } else { Label::Positive });
//! }
//! let scaler = Scaler::fit(&raw);
//! let data = scaler.transform(&raw);
//! let model = SvmModel::train(&data, Kernel::Linear, &SmoParams::default());
//! assert!(model.accuracy(&data) > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod kernel;
mod model;
mod multiclass;
mod naive_bayes;
mod smo;

pub use data::{Dataset, Label, Scaler};
pub use kernel::{dot, Kernel};
pub use model::SvmModel;
pub use multiclass::{MultiClassModel, MultiDataset};
pub use naive_bayes::{GaussianNb, QuadraticForm};
pub use smo::{solve, SmoParams, SmoSolution};
