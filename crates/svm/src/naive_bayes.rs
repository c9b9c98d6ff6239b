//! Gaussian Naive Bayes — a second classifier family the private
//! protocol can serve (the paper's closest related work, Bost et al.
//! \[17\], covers hyperplane *and* Naive Bayes classifiers; here the NB
//! log-likelihood ratio is an explicit degree-2 polynomial, so it runs
//! through the same OMPE machinery as the SVM).

use crate::data::{Dataset, Label};

/// Variance floor: features that are constant within a class would
/// otherwise produce infinite precision.
const VAR_FLOOR: f64 = 1e-6;

/// A two-class Gaussian Naive Bayes model.
///
/// # Examples
///
/// ```
/// use ppcs_svm::{Dataset, GaussianNb, Label};
///
/// let mut ds = Dataset::new(1);
/// for i in 0..20 {
///     let v = i as f64 / 10.0 - 1.0;
///     ds.push(vec![v], if v < 0.0 { Label::Negative } else { Label::Positive });
/// }
/// let nb = GaussianNb::train(&ds);
/// assert_eq!(nb.predict(&[0.8]), Label::Positive);
/// assert_eq!(nb.predict(&[-0.8]), Label::Negative);
/// ```
#[derive(Clone, Debug)]
pub struct GaussianNb {
    dim: usize,
    log_prior_ratio: f64,
    mean_pos: Vec<f64>,
    var_pos: Vec<f64>,
    mean_neg: Vec<f64>,
    var_neg: Vec<f64>,
}

/// A diagonal quadratic decision function
/// `d(t) = Σ q_i t_i² + Σ l_i t_i + bias` — the exact polynomial form of
/// a Gaussian NB log-likelihood ratio, consumable by the private
/// classification protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct QuadraticForm {
    /// Per-dimension quadratic coefficients.
    pub quadratic: Vec<f64>,
    /// Per-dimension linear coefficients.
    pub linear: Vec<f64>,
    /// Constant term.
    pub bias: f64,
}

impl QuadraticForm {
    /// Evaluates the form.
    ///
    /// # Panics
    ///
    /// Panics on a dimensionality mismatch.
    pub fn eval(&self, t: &[f64]) -> f64 {
        assert_eq!(t.len(), self.linear.len(), "dimensionality mismatch");
        let mut acc = self.bias;
        for ((&q, &l), &x) in self.quadratic.iter().zip(&self.linear).zip(t) {
            acc += q * x * x + l * x;
        }
        acc
    }
}

impl GaussianNb {
    /// Fits class priors and per-feature Gaussians.
    ///
    /// # Panics
    ///
    /// Panics if either class is absent.
    pub fn train(data: &Dataset) -> Self {
        let (pos, neg) = data.class_counts();
        assert!(pos > 0 && neg > 0, "both classes must be present");
        let dim = data.dim();

        let stats = |target: Label| -> (Vec<f64>, Vec<f64>) {
            let mut mean = vec![0.0; dim];
            let mut count = 0usize;
            for (x, y) in data.iter() {
                if y == target {
                    count += 1;
                    for (m, v) in mean.iter_mut().zip(x) {
                        *m += v;
                    }
                }
            }
            for m in &mut mean {
                *m /= count as f64;
            }
            let mut var = vec![0.0; dim];
            for (x, y) in data.iter() {
                if y == target {
                    for ((s, &m), &v) in var.iter_mut().zip(&mean).zip(x) {
                        *s += (v - m) * (v - m);
                    }
                }
            }
            for s in &mut var {
                *s = (*s / count as f64).max(VAR_FLOOR);
            }
            (mean, var)
        };

        let (mean_pos, var_pos) = stats(Label::Positive);
        let (mean_neg, var_neg) = stats(Label::Negative);
        Self {
            dim,
            log_prior_ratio: (pos as f64 / neg as f64).ln(),
            mean_pos,
            var_pos,
            mean_neg,
            var_neg,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The log-likelihood ratio `log P(+|t) − log P(−|t)`.
    pub fn decision(&self, t: &[f64]) -> f64 {
        self.to_quadratic_form().eval(t)
    }

    /// Predicts the class by the sign of the log-likelihood ratio.
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

    /// Expands the log-likelihood ratio into its exact diagonal-quadratic
    /// polynomial form:
    ///
    /// ```text
    /// d(t) = Σ_i [ (1/2σ₋ᵢ² − 1/2σ₊ᵢ²)·tᵢ²
    ///            + (μ₊ᵢ/σ₊ᵢ² − μ₋ᵢ/σ₋ᵢ²)·tᵢ ]
    ///      + Σ_i [ μ₋ᵢ²/2σ₋ᵢ² − μ₊ᵢ²/2σ₊ᵢ² + ½log(σ₋ᵢ²/σ₊ᵢ²) ]
    ///      + log(P₊/P₋)
    /// ```
    pub fn to_quadratic_form(&self) -> QuadraticForm {
        let mut quadratic = Vec::with_capacity(self.dim);
        let mut linear = Vec::with_capacity(self.dim);
        let mut bias = self.log_prior_ratio;
        for i in 0..self.dim {
            let (mp, vp) = (self.mean_pos[i], self.var_pos[i]);
            let (mn, vn) = (self.mean_neg[i], self.var_neg[i]);
            quadratic.push(0.5 / vn - 0.5 / vp);
            linear.push(mp / vp - mn / vn);
            bias += mn * mn / (2.0 * vn) - mp * mp / (2.0 * vp) + 0.5 * (vn / vp).ln();
        }
        QuadraticForm {
            quadratic,
            linear,
            bias,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for k in 0..n {
            let pos = k % 2 == 0;
            let (cx, cy, s) = if pos {
                (0.5, 0.4, 0.15)
            } else {
                (-0.5, -0.3, 0.25)
            };
            // Box-Muller-ish: sum of uniforms approximates a Gaussian.
            let g = |rng: &mut StdRng| -> f64 {
                (0..6).map(|_| rng.gen_range(-0.5..0.5)).sum::<f64>() / 1.5
            };
            ds.push(
                vec![cx + s * g(&mut rng), cy + s * g(&mut rng)],
                if pos {
                    Label::Positive
                } else {
                    Label::Negative
                },
            );
        }
        ds
    }

    #[test]
    fn separates_gaussian_blobs() {
        let ds = gaussian_blobs(400, 1);
        let nb = GaussianNb::train(&ds);
        assert!(nb.accuracy(&ds) > 0.97, "{}", nb.accuracy(&ds));
    }

    #[test]
    fn quadratic_form_matches_direct_loglikelihood() {
        // Independent recomputation of the log-likelihood ratio from the
        // Gaussian densities must equal the polynomial expansion.
        let ds = gaussian_blobs(200, 2);
        let nb = GaussianNb::train(&ds);
        let form = nb.to_quadratic_form();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let t = [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            let direct: f64 = nb.log_prior_ratio
                + (0..2)
                    .map(|i| {
                        let lp = -0.5 * ((t[i] - nb.mean_pos[i]).powi(2) / nb.var_pos[i])
                            - 0.5 * nb.var_pos[i].ln();
                        let ln = -0.5 * ((t[i] - nb.mean_neg[i]).powi(2) / nb.var_neg[i])
                            - 0.5 * nb.var_neg[i].ln();
                        lp - ln
                    })
                    .sum::<f64>();
            assert!(
                (form.eval(&t) - direct).abs() < 1e-9,
                "{} vs {direct}",
                form.eval(&t)
            );
        }
    }

    #[test]
    fn unbalanced_priors_shift_the_decision() {
        let mut ds = Dataset::new(1);
        // 9:1 positive prior, overlapping features.
        for i in 0..90 {
            ds.push(vec![(i % 10) as f64 / 10.0 - 0.45], Label::Positive);
        }
        for i in 0..10 {
            ds.push(vec![(i % 10) as f64 / 10.0 - 0.55], Label::Negative);
        }
        let nb = GaussianNb::train(&ds);
        // At the feature midpoint the prior dominates.
        assert_eq!(nb.predict(&[0.0]), Label::Positive);
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let mut ds = Dataset::new(2);
        ds.push(vec![1.0, 0.3], Label::Positive);
        ds.push(vec![1.0, 0.5], Label::Positive);
        ds.push(vec![1.0, -0.4], Label::Negative);
        ds.push(vec![1.0, -0.6], Label::Negative);
        let nb = GaussianNb::train(&ds);
        let d = nb.decision(&[1.0, 0.0]);
        assert!(d.is_finite());
        assert_eq!(nb.predict(&[1.0, 0.4]), Label::Positive);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_rejected() {
        let mut ds = Dataset::new(1);
        ds.push(vec![0.1], Label::Positive);
        let _ = GaussianNb::train(&ds);
    }
}
