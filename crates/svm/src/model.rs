//! Trained SVM models and the training entry point.

use crate::data::{Dataset, Label};
use crate::kernel::Kernel;
use crate::smo::{solve, SmoParams, SmoSolution};

/// A trained binary SVM classifier: `d(t) = Σ_s coeff_s·K(x_s, t) + b`,
/// with `coeff_s = α_s y_s` over the support vectors.
///
/// # Examples
///
/// ```
/// use ppcs_svm::{Dataset, Kernel, Label, SvmModel, SmoParams};
///
/// let mut ds = Dataset::new(1);
/// for i in 0..10 {
///     let v = i as f64 / 10.0;
///     ds.push(vec![v], if v < 0.5 { Label::Negative } else { Label::Positive });
/// }
/// let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
/// assert_eq!(model.predict(&[0.9]), Label::Positive);
/// assert_eq!(model.predict(&[0.1]), Label::Negative);
/// ```
#[derive(Clone, Debug)]
pub struct SvmModel {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    /// `α_s y_s` per support vector.
    coefficients: Vec<f64>,
    bias: f64,
    dim: usize,
    converged: bool,
    iterations: usize,
}

impl SvmModel {
    /// Trains a C-SVC model with SMO.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or single-class (see
    /// [`solve`]).
    pub fn train(data: &Dataset, kernel: Kernel, params: &SmoParams) -> Self {
        let SmoSolution {
            alphas,
            bias,
            iterations,
            converged,
        } = solve(data, kernel, params);

        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for (i, &a) in alphas.iter().enumerate() {
            if a > 1e-12 {
                support_vectors.push(data.features(i).to_vec());
                coefficients.push(a * data.label(i).to_f64());
            }
        }
        Self {
            kernel,
            support_vectors,
            coefficients,
            bias,
            dim: data.dim(),
            converged,
            iterations,
        }
    }

    /// Builds a model directly from parts (used by synthetic privacy
    /// experiments that need a known ground-truth classifier).
    pub fn from_parts(
        kernel: Kernel,
        support_vectors: Vec<Vec<f64>>,
        coefficients: Vec<f64>,
        bias: f64,
    ) -> Self {
        assert_eq!(
            support_vectors.len(),
            coefficients.len(),
            "one coefficient per support vector"
        );
        let dim = support_vectors.first().map_or(0, Vec::len);
        assert!(
            support_vectors.iter().all(|v| v.len() == dim),
            "support vectors must share dimensionality"
        );
        Self {
            kernel,
            support_vectors,
            coefficients,
            bias,
            dim,
            converged: true,
            iterations: 0,
        }
    }

    /// The decision value `d(t)`.
    pub fn decision(&self, t: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (sv, c) in self.support_vectors.iter().zip(&self.coefficients) {
            acc += c * self.kernel.eval(sv, t);
        }
        acc
    }

    /// The predicted class `sign(d(t))`.
    pub fn predict(&self, t: &[f64]) -> Label {
        Label::from_sign(self.decision(t))
    }

    /// Fraction of `data` classified correctly.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .filter(|(x, label)| self.predict(x) == *label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// The kernel in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The support vectors.
    pub fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support_vectors
    }

    /// The per-support-vector coefficients `α_s y_s`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The bias `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Whether SMO met its tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// SMO iterations spent during training.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// For a linear kernel, the explicit hyperplane weights
    /// `w = Σ_s α_s y_s x_s`; `None` for nonlinear kernels.
    pub fn linear_weights(&self) -> Option<Vec<f64>> {
        if !self.kernel.is_linear() {
            return None;
        }
        let mut w = vec![0.0; self.dim];
        for (sv, c) in self.support_vectors.iter().zip(&self.coefficients) {
            for (wd, &v) in w.iter_mut().zip(sv) {
                *wd += c * v;
            }
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(3);
        for _ in 0..n {
            let positive = rng.gen::<bool>();
            let c = if positive { 1.0 } else { -1.0 };
            ds.push(
                (0..3).map(|_| c + rng.gen_range(-0.6..0.6)).collect(),
                if positive {
                    Label::Positive
                } else {
                    Label::Negative
                },
            );
        }
        ds
    }

    #[test]
    fn train_and_predict() {
        let ds = blobs(120, 7);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        assert!(model.converged());
        assert!(model.accuracy(&ds) > 0.98);
        assert!(!model.support_vectors().is_empty());
    }

    #[test]
    fn linear_weights_reproduce_decision() {
        let ds = blobs(80, 8);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let w = model.linear_weights().unwrap();
        let t = [0.3, -0.2, 0.9];
        let via_weights: f64 = w.iter().zip(&t).map(|(a, b)| a * b).sum::<f64>() + model.bias();
        assert!((via_weights - model.decision(&t)).abs() < 1e-9);
    }

    #[test]
    fn nonlinear_has_no_linear_weights() {
        let ds = blobs(50, 9);
        let model = SvmModel::train(&ds, Kernel::paper_polynomial(3), &SmoParams::default());
        assert!(model.linear_weights().is_none());
    }

    #[test]
    fn from_parts_builds_working_model() {
        // d(t) = 2 t1 - 1 as a "support vector" model: one SV at (1,),
        // coefficient 2, bias -1, linear kernel.
        let model = SvmModel::from_parts(Kernel::Linear, vec![vec![1.0]], vec![2.0], -1.0);
        assert!((model.decision(&[2.0]) - 3.0).abs() < 1e-12);
        assert_eq!(model.predict(&[0.0]), Label::Negative);
    }

    #[test]
    #[should_panic(expected = "one coefficient per support vector")]
    fn from_parts_validates_lengths() {
        let _ = SvmModel::from_parts(Kernel::Linear, vec![vec![1.0]], vec![1.0, 2.0], 0.0);
    }

    #[test]
    fn accuracy_on_empty_dataset_is_zero() {
        let ds = blobs(30, 11);
        let model = SvmModel::train(&ds, Kernel::Linear, &SmoParams::default());
        assert_eq!(model.accuracy(&Dataset::new(3)), 0.0);
    }
}
