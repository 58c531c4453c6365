//! Budgeted RBF-kernel SVM.
//!
//! The paper's second anomaly detector is "an SVM with eight input
//! features … and a radial-basis function to model nonlinear
//! relationships" (Mehmood & Rais 2015). For a line-rate data plane the
//! support set must be small and fixed, so training uses Pegasos-style
//! kernelized subgradient descent over a *budget* of candidate support
//! vectors: the decision function is
//! `f(x) = Σᵢ αᵢ·exp(−γ‖x − svᵢ‖²) + b`, with the αᵢ learned and pruned
//! to the budget. Inference is exactly the shape the frontend lowers to
//! MapReduce: per-SV squared distance → exp LUT → weighted sum.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::linalg::sq_dist;

/// SVM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmConfig {
    /// RBF width: `K(x, z) = exp(−γ‖x−z‖²)`.
    pub gamma: f32,
    /// Regularization strength (Pegasos λ).
    pub lambda: f32,
    /// Maximum number of support vectors kept.
    pub budget: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self { gamma: 0.5, lambda: 1e-4, budget: 16, epochs: 10, seed: 0 }
    }
}

/// A trained budgeted RBF SVM (binary: positive = anomalous).
#[derive(Debug, Clone, PartialEq)]
pub struct Svm {
    support: Vec<Vec<f32>>,
    alpha: Vec<f32>,
    bias: f32,
    gamma: f32,
}

impl Svm {
    /// Trains on binary-labelled data (`y ∈ {0, 1}`).
    ///
    /// The budget is filled with a class-balanced random subset of the
    /// training data; Pegasos updates learn the coefficients.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, lengths mismatch, or only one class is
    /// present.
    pub fn train(x: &[Vec<f32>], y: &[usize], config: &SvmConfig) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "cannot train on empty data");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Class-balanced budget of candidate support vectors.
        let pos: Vec<usize> = (0..y.len()).filter(|&i| y[i] == 1).collect();
        let neg: Vec<usize> = (0..y.len()).filter(|&i| y[i] == 0).collect();
        assert!(!pos.is_empty() && !neg.is_empty(), "need both classes to train");
        let half = (config.budget / 2).max(1);
        let mut chosen: Vec<usize> = Vec::new();
        let mut pos_pool = pos.clone();
        let mut neg_pool = neg.clone();
        pos_pool.shuffle(&mut rng);
        neg_pool.shuffle(&mut rng);
        chosen.extend(pos_pool.iter().take(half));
        chosen.extend(neg_pool.iter().take(config.budget - chosen.len().min(config.budget)));
        let support: Vec<Vec<f32>> = chosen.iter().map(|&i| x[i].clone()).collect();

        // Precompute kernel rows K[j][i] = K(x_j, sv_i) lazily per sample.
        let mut alpha = vec![0.0f32; support.len()];
        let mut bias = 0.0f32;
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut t = 1usize;
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &j in &order {
                let target = if y[j] == 1 { 1.0f32 } else { -1.0 };
                let k_row: Vec<f32> =
                    support.iter().map(|sv| (-config.gamma * sq_dist(&x[j], sv)).exp()).collect();
                let f: f32 = alpha.iter().zip(&k_row).map(|(a, k)| a * k).sum::<f32>() + bias;
                let eta = 1.0 / (config.lambda * t as f32);
                // Regularization shrink.
                let shrink = 1.0 - eta * config.lambda;
                for a in &mut alpha {
                    *a *= shrink;
                }
                if target * f < 1.0 {
                    // Hinge subgradient: push along the kernel row.
                    for (a, k) in alpha.iter_mut().zip(&k_row) {
                        *a += eta * target * k * 0.1;
                    }
                    bias += eta * target * 0.01;
                }
                t += 1;
            }
        }
        Self { support, alpha, bias, gamma: config.gamma }
    }

    /// Decision value `f(x)` (positive ⇒ anomalous).
    pub fn decision(&self, x: &[f32]) -> f32 {
        self.support
            .iter()
            .zip(&self.alpha)
            .map(|(sv, a)| a * (-self.gamma * sq_dist(x, sv)).exp())
            .sum::<f32>()
            + self.bias
    }

    /// Predicted binary class (1 = anomalous).
    pub fn predict(&self, x: &[f32]) -> usize {
        usize::from(self.decision(x) > 0.0)
    }

    /// Support vectors.
    pub fn support_vectors(&self) -> &[Vec<f32>] {
        &self.support
    }

    /// Coefficients αᵢ.
    pub fn alphas(&self) -> &[f32] {
        &self.alpha
    }

    /// Bias term.
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Kernel width γ.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Accuracy over a labelled set.
    pub fn accuracy(&self, x: &[Vec<f32>], y: &[usize]) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        x.iter().zip(y).filter(|(xi, &yi)| self.predict(xi) == yi).count() as f64 / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn ring_data(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        // Nonlinearly separable: class 1 inside radius 1, class 0 in a ring
        // at radius 2–3. RBF needed; a linear model fails.
        let mut rng = StdRng::seed_from_u64(0);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let inner = i % 2 == 0;
            let r = if inner { rng.gen_range(0.0..1.0) } else { rng.gen_range(2.0..3.0) };
            let theta = rng.gen_range(0.0..std::f32::consts::TAU);
            x.push(vec![r * theta.cos(), r * theta.sin()]);
            y.push(usize::from(inner));
        }
        (x, y)
    }

    #[test]
    fn learns_nonlinear_ring() {
        let (x, y) = ring_data(400);
        let svm = Svm::train(
            &x,
            &y,
            &SvmConfig { gamma: 1.0, budget: 24, epochs: 20, ..SvmConfig::default() },
        );
        let acc = svm.accuracy(&x, &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn budget_is_respected() {
        let (x, y) = ring_data(200);
        let svm = Svm::train(&x, &y, &SvmConfig { budget: 8, ..SvmConfig::default() });
        assert!(svm.support_vectors().len() <= 8);
        assert_eq!(svm.support_vectors().len(), svm.alphas().len());
    }

    #[test]
    fn decision_from_parts_is_exact() {
        let svm = Svm { support: vec![vec![0.0, 0.0]], alpha: vec![2.0], bias: -0.5, gamma: 1.0 };
        // f(x) = 2·exp(−‖x‖²) − 0.5; at origin = 1.5.
        assert!((svm.decision(&[0.0, 0.0]) - 1.5).abs() < 1e-6);
        assert_eq!(svm.predict(&[0.0, 0.0]), 1);
        // Far away: f → −0.5.
        assert_eq!(svm.predict(&[10.0, 10.0]), 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = ring_data(100);
        let a = Svm::train(&x, &y, &SvmConfig::default());
        let b = Svm::train(&x, &y, &SvmConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn rejects_single_class() {
        let x = vec![vec![0.0]; 10];
        let y = vec![1; 10];
        let _ = Svm::train(&x, &y, &SvmConfig::default());
    }
}
