//! Minimal dense matrix/vector kernels.
//!
//! The models here are tiny by design — the whole point of the paper is
//! that data-plane models must fit in a few dozen compute units — so a
//! simple row-major `Vec<f32>` matrix is the right tool; no BLAS needed.

use rand::rngs::StdRng;
use rand::Rng;

/// A row-major dense `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform random initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "vector length must equal matrix cols");
        (0..self.rows).map(|r| dot(self.row(r), x)).collect()
    }

    /// `self += scale · other` (elementwise).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `scale`.
    pub fn scale(&mut self, scale: f32) {
        for a in &mut self.data {
            *a *= scale;
        }
    }
}

/// Where [`dot`]'s fold starts: `-0.0`, the start of `f32`'s `Sum`, so
/// an empty or all-`-0.0` product sums to `-0.0`. Lane-wise dot products
/// (`crate::mlp`) start from it too and match [`dot`] bit for bit.
pub(crate) const DOT_START: f32 = -0.0;

/// Dot product of two equal-length slices: `Σ a[i]·b[i]`, folded in
/// index order from `-0.0`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    a.iter().zip(b).fold(DOT_START, |acc, (x, y)| acc + x * y)
}

/// Squared Euclidean distance.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance of unequal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; logits.len()];
    softmax_into(logits, &mut out);
    out
}

/// [`softmax`] into a caller buffer of the same length.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn softmax_into(logits: &[f32], out: &mut [f32]) {
    assert_eq!(logits.len(), out.len(), "softmax of unequal lengths");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (o, &l) in out.iter_mut().zip(logits) {
        *o = (l - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmin(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmin of empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_identity() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_known() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn argmax_argmin_and_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmin(&[1.0, 3.0, 0.5]), 2);
        assert_eq!(argmax(&[2.0, 2.0]), 0);
    }

    #[test]
    fn sq_dist_known() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
