//! One-vs-rest multi-class SVM — the natural extension of the paper's
//! binary classifier (its related work \[15\] handles multi-class the same
//! way).

use crate::data::{Dataset, Label};
use crate::kernel::Kernel;
use crate::model::SvmModel;
use crate::smo::SmoParams;

/// A multi-class dataset: dense features with `u32` class ids.
#[derive(Clone, Debug, Default)]
pub struct MultiDataset {
    dim: usize,
    features: Vec<Vec<f64>>,
    classes: Vec<u32>,
}

impl MultiDataset {
    /// Creates an empty dataset of fixed dimensionality.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            features: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics on a dimensionality mismatch.
    pub fn push(&mut self, features: Vec<f64>, class: u32) {
        assert_eq!(
            features.len(),
            self.dim,
            "sample has {} features, dataset dimensionality is {}",
            features.len(),
            self.dim
        );
        self.features.push(features);
        self.classes.push(class);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature vector of sample `i`.
    pub fn features(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// The class of sample `i`.
    pub fn class(&self, i: usize) -> u32 {
        self.classes[i]
    }

    /// The sorted distinct class ids.
    pub fn class_ids(&self) -> Vec<u32> {
        let mut ids = self.classes.clone();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// A one-vs-rest multi-class classifier: one binary SVM per class, the
/// winner decided by the largest decision value.
///
/// # Examples
///
/// ```
/// use ppcs_svm::{Kernel, MultiClassModel, MultiDataset, SmoParams};
///
/// let mut ds = MultiDataset::new(1);
/// for i in 0..30 {
///     let v = i as f64 / 10.0; // three bands: [0,1), [1,2), [2,3)
///     ds.push(vec![v], v as u32);
/// }
/// let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
/// assert_eq!(model.predict(&[0.5]), 0);
/// assert_eq!(model.predict(&[2.5]), 2);
/// ```
#[derive(Clone, Debug)]
pub struct MultiClassModel {
    class_ids: Vec<u32>,
    models: Vec<SvmModel>,
}

impl MultiClassModel {
    /// Trains one one-vs-rest binary model per class.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than two classes.
    pub fn train(data: &MultiDataset, kernel: Kernel, params: &SmoParams) -> Self {
        let class_ids = data.class_ids();
        assert!(
            class_ids.len() >= 2,
            "multi-class training needs at least two classes, got {}",
            class_ids.len()
        );
        let models = class_ids
            .iter()
            .map(|&target| {
                let mut binary = Dataset::new(data.dim());
                for i in 0..data.len() {
                    let label = if data.class(i) == target {
                        Label::Positive
                    } else {
                        Label::Negative
                    };
                    binary.push(data.features(i).to_vec(), label);
                }
                SvmModel::train(&binary, kernel, params)
            })
            .collect();
        Self { class_ids, models }
    }

    /// The class ids, aligned with [`MultiClassModel::binary_models`].
    pub fn class_ids(&self) -> &[u32] {
        &self.class_ids
    }

    /// The underlying one-vs-rest binary models.
    pub fn binary_models(&self) -> &[SvmModel] {
        &self.models
    }

    /// All per-class decision values for `t`.
    pub fn decision_values(&self, t: &[f64]) -> Vec<f64> {
        self.models.iter().map(|m| m.decision(t)).collect()
    }

    /// Predicts by the largest one-vs-rest decision value.
    pub fn predict(&self, t: &[f64]) -> u32 {
        let values = self.decision_values(t);
        let best = values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite decision values"))
            .expect("at least two classes")
            .0;
        self.class_ids[best]
    }

    /// Fraction of `data` classified correctly.
    pub fn accuracy(&self, data: &MultiDataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.len())
            .filter(|&i| self.predict(data.features(i)) == data.class(i))
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn three_blobs(n: usize, seed: u64) -> MultiDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(-0.7, -0.7), (0.7, -0.5), (0.0, 0.8)];
        let mut ds = MultiDataset::new(2);
        for k in 0..n {
            let class = (k % 3) as u32;
            let (cx, cy) = centers[class as usize];
            ds.push(
                vec![
                    cx + rng.gen_range(-0.25..0.25),
                    cy + rng.gen_range(-0.25..0.25),
                ],
                class,
            );
        }
        ds
    }

    #[test]
    fn classifies_three_blobs() {
        let ds = three_blobs(150, 1);
        let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
        assert!(model.accuracy(&ds) > 0.97, "{}", model.accuracy(&ds));
        assert_eq!(model.class_ids(), &[0, 1, 2]);
        assert_eq!(model.binary_models().len(), 3);
    }

    #[test]
    fn class_ids_are_sorted_and_deduped() {
        let mut ds = MultiDataset::new(1);
        ds.push(vec![0.9], 7);
        ds.push(vec![0.1], 2);
        ds.push(vec![0.8], 7);
        ds.push(vec![0.15], 2);
        assert_eq!(ds.class_ids(), vec![2, 7]);
    }

    #[test]
    fn decision_values_align_with_classes() {
        let ds = three_blobs(120, 2);
        let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
        let values = model.decision_values(&[-0.7, -0.7]);
        assert_eq!(values.len(), 3);
        assert!(
            values[0] > values[1] && values[0] > values[2],
            "class-0 model should dominate at its center: {values:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn single_class_rejected() {
        let mut ds = MultiDataset::new(1);
        ds.push(vec![0.1], 1);
        ds.push(vec![0.2], 1);
        let _ = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
    }

    #[test]
    fn empty_accuracy_is_zero() {
        let ds = three_blobs(90, 3);
        let model = MultiClassModel::train(&ds, Kernel::Linear, &SmoParams::default());
        assert_eq!(model.accuracy(&MultiDataset::new(2)), 0.0);
    }
}
