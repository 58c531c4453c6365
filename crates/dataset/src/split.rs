//! Dataset container, splits, and feature standardization.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labelled dataset of dense `f32` feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Vec<Vec<f32>>,
    y: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ, rows have inconsistent
    /// widths, or any label is `≥ classes`.
    pub fn new(x: Vec<Vec<f32>>, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.len(), y.len(), "feature and label counts differ");
        if let Some(w) = x.first().map(Vec::len) {
            assert!(x.iter().all(|r| r.len() == w), "inconsistent feature widths");
        }
        assert!(y.iter().all(|&l| l < classes), "label out of range");
        Self { x, y, classes }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature width (0 for an empty dataset).
    pub fn width(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Feature rows.
    pub fn features(&self) -> &[Vec<f32>] {
        &self.x
    }

    /// Labels.
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// Iterates over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], usize)> {
        self.x.iter().map(Vec::as_slice).zip(self.y.iter().copied())
    }

    /// Shuffles examples in place, deterministically under `seed`.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut rng);
        self.x = idx.iter().map(|&i| std::mem::take(&mut self.x[i])).collect();
        self.y = idx.iter().map(|&i| self.y[i]).collect();
    }

    /// Splits into `(train, test)` with `train_frac` of examples in train.
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is outside `[0, 1]`.
    pub fn split(mut self, train_frac: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac must be in [0,1]");
        let n_train = (self.len() as f64 * train_frac).round() as usize;
        let test_x = self.x.split_off(n_train.min(self.x.len()));
        let test_y = self.y.split_off(n_train.min(self.y.len()));
        let classes = self.classes;
        (Dataset::new(self.x, self.y, classes), Dataset::new(test_x, test_y, classes))
    }

    /// Applies a transform to every feature row.
    pub fn map_features(&mut self, f: impl Fn(&mut Vec<f32>)) {
        for row in &mut self.x {
            f(row);
        }
    }
}

/// Per-feature mean/std standardizer (fit on train, apply to both splits).
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits means and standard deviations on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(ds: &Dataset) -> Self {
        assert!(!ds.is_empty(), "cannot fit a standardizer on an empty dataset");
        let w = ds.width();
        let n = ds.len() as f32;
        let mut mean = vec![0.0f32; w];
        for row in ds.features() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; w];
        for row in ds.features() {
            for ((s, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var.into_iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
        Self { mean, std }
    }

    /// Standardizes one feature row in place.
    pub fn apply_row(&self, row: &mut [f32]) {
        for ((v, &m), &s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Standardizes an entire dataset in place.
    pub fn apply(&self, ds: &mut Dataset) {
        ds.map_features(|row| self.apply_row(row));
    }

    /// Fitted means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Fitted standard deviations.
    pub fn std(&self) -> &[f32] {
        &self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0], vec![4.0, 40.0]],
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn accessors() {
        let ds = toy();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.width(), 2);
        assert_eq!(ds.classes(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.iter().count(), 4);
    }

    #[test]
    fn split_preserves_counts_and_order() {
        let (train, test) = toy().split(0.75);
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(test.features()[0], vec![4.0, 40.0]);
    }

    #[test]
    fn split_edges() {
        let (train, test) = toy().split(0.0);
        assert_eq!(train.len(), 0);
        assert_eq!(test.len(), 4);
        let (train, test) = toy().split(1.0);
        assert_eq!(train.len(), 4);
        assert_eq!(test.len(), 0);
    }

    #[test]
    fn shuffle_is_deterministic_and_label_consistent() {
        let mut a = toy();
        let mut b = toy();
        a.shuffle(9);
        b.shuffle(9);
        assert_eq!(a, b);
        let mut c = toy();
        c.shuffle(10);
        // Same multiset of (x, y) pairs regardless of order.
        let key = |d: &Dataset| {
            let mut pairs: Vec<(String, usize)> =
                d.iter().map(|(x, y)| (format!("{x:?}"), y)).collect();
            pairs.sort();
            pairs
        };
        assert_eq!(key(&a), key(&c));
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let mut ds = toy();
        let st = Standardizer::fit(&ds);
        st.apply(&mut ds);
        let w = ds.width();
        for j in 0..w {
            let col: Vec<f32> = ds.features().iter().map(|r| r[j]).collect();
            let mean = col.iter().sum::<f32>() / col.len() as f32;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / col.len() as f32;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(vec![vec![0.0]], vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature widths")]
    fn rejects_ragged_rows() {
        let _ = Dataset::new(vec![vec![0.0], vec![0.0, 1.0]], vec![0, 0], 1);
    }
}
