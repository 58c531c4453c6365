//! Multilayer perceptrons with SGD training.
//!
//! The paper's anomaly-detection DNN (Tang et al. 2016) is a small MLP —
//! six input features, hidden layers of 12, 6, and 3 units, one sigmoid
//! output — trained in the control plane and executed per-packet on the
//! MapReduce block. This module provides the float training side; the
//! int8 deployment side lives in [`crate::quantized`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use taurus_fixed::Activation;

use crate::linalg::{argmax, softmax, Matrix};
use crate::weights::{LayerWeights, MlpWeights, WeightShapeError};

/// Output head: decides both the final nonlinearity and the loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputHead {
    /// Softmax over `k ≥ 2` logits with cross-entropy loss.
    Softmax,
    /// Single sigmoid unit with binary cross-entropy loss.
    Sigmoid,
    /// Linear outputs with mean-squared-error loss.
    Linear,
}

/// One dense layer: `y = act(W·x + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weight matrix, `out × in`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f32>,
    /// Activation applied to the pre-activation.
    pub act: Activation,
}

impl Dense {
    /// Forward pass returning `(pre_activation, post_activation)`.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut pre = self.w.matvec(x);
        for (p, &bias) in pre.iter_mut().zip(&self.b) {
            *p += bias;
        }
        let post = pre.iter().map(|&p| self.act.eval_f32(p)).collect();
        (pre, post)
    }
}

/// Activation derivative given pre-activation `x` and post-activation `y`.
fn act_deriv(act: Activation, x: f32, y: f32) -> f32 {
    match act {
        Activation::Identity => 1.0,
        Activation::Relu => {
            if x > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Activation::LeakyRelu => {
            if x > 0.0 {
                1.0
            } else {
                0.125
            }
        }
        Activation::SigmoidExp | Activation::SigmoidPw => y * (1.0 - y),
        Activation::TanhExp | Activation::TanhPw | Activation::Lut => 1.0 - y * y,
    }
}

/// Architecture description for an [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Layer widths, input first, output last (e.g. `[6, 12, 6, 3, 1]`).
    pub layers: Vec<usize>,
    /// Hidden-layer activation.
    pub hidden: Activation,
    /// Output head.
    pub head: OutputHead,
}

impl MlpConfig {
    /// The paper's anomaly-detection DNN: 6 → 12 → 6 → 3 → 1 (ReLU hidden,
    /// sigmoid output), per §5.1.2 and Fig. 11.
    pub fn anomaly_dnn() -> Self {
        Self { layers: vec![6, 12, 6, 3, 1], hidden: Activation::Relu, head: OutputHead::Sigmoid }
    }

    /// One of Table 3's TMC IoT kernels, e.g. `4×10×2` = `[4, 10, 2]`.
    pub fn tmc_kernel(widths: &[usize]) -> Self {
        Self { layers: widths.to_vec(), hidden: Activation::Relu, head: OutputHead::Softmax }
    }
}

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainParams {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self { lr: 0.05, momentum: 0.9, batch_size: 32, epochs: 20, lr_decay: 0.95, seed: 0 }
    }
}

/// A multilayer perceptron.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    head: OutputHead,
    velocity_w: Vec<Matrix>,
    velocity_b: Vec<Vec<f32>>,
}

impl Mlp {
    /// Creates a randomly initialized MLP.
    ///
    /// # Panics
    ///
    /// Panics if the config has fewer than two layer widths, or if a
    /// sigmoid head has more than one output unit.
    pub fn new(config: &MlpConfig, seed: u64) -> Self {
        assert!(config.layers.len() >= 2, "need at least input and output widths");
        if config.head == OutputHead::Sigmoid {
            assert_eq!(
                *config.layers.last().expect("nonempty"),
                1,
                "sigmoid head requires exactly one output unit"
            );
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let n = config.layers.len() - 1;
        let mut layers = Vec::with_capacity(n);
        for i in 0..n {
            let (inw, outw) = (config.layers[i], config.layers[i + 1]);
            let act = if i + 1 == n {
                match config.head {
                    OutputHead::Sigmoid => Activation::SigmoidExp,
                    OutputHead::Softmax | OutputHead::Linear => Activation::Identity,
                }
            } else {
                config.hidden
            };
            layers.push(Dense { w: Matrix::xavier(outw, inw, &mut rng), b: vec![0.0; outw], act });
        }
        let velocity_w = layers.iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect();
        let velocity_b = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        Self { layers, head: config.head, velocity_w, velocity_b }
    }

    /// The layers (for quantization and IR lowering).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// The output head.
    pub fn head(&self) -> OutputHead {
        self.head
    }

    /// Input width.
    pub fn input_width(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.cols())
    }

    /// Output width.
    pub fn output_width(&self) -> usize {
        self.layers.last().map_or(0, |l| l.w.rows())
    }

    /// Forward pass to final outputs (post-head: probabilities for
    /// softmax/sigmoid heads, raw values for linear).
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut h = x.to_vec();
        for layer in &self.layers {
            h = layer.forward(&h).1;
        }
        match self.head {
            OutputHead::Softmax => softmax(&h),
            // Sigmoid activation already applied by the last layer.
            OutputHead::Sigmoid | OutputHead::Linear => h,
        }
    }

    /// Predicted class index: argmax for softmax, threshold 0.5 for
    /// sigmoid heads.
    ///
    /// # Panics
    ///
    /// Panics for [`OutputHead::Linear`], which has no classes.
    pub fn predict_class(&self, x: &[f32]) -> usize {
        let out = self.forward(x);
        match self.head {
            OutputHead::Softmax => argmax(&out),
            OutputHead::Sigmoid => usize::from(out[0] >= 0.5),
            OutputHead::Linear => panic!("linear head has no classes"),
        }
    }

    /// Anomaly score in `[0, 1]` for single-output models; for softmax
    /// heads, the probability of class 1.
    pub fn score(&self, x: &[f32]) -> f32 {
        let out = self.forward(x);
        match self.head {
            OutputHead::Sigmoid | OutputHead::Linear => out[0],
            OutputHead::Softmax => out.get(1).copied().unwrap_or(out[0]),
        }
    }

    /// Trains on `(x, y)` class-labelled data for `params.epochs`,
    /// returning the mean loss of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ or `x` is empty.
    pub fn train(&mut self, x: &[Vec<f32>], y: &[usize], params: &TrainParams) -> f32 {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "cannot train on empty data");
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut lr = params.lr;
        let mut last_loss = 0.0;
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            last_loss = 0.0;
            for chunk in order.chunks(params.batch_size.max(1)) {
                last_loss +=
                    self.train_batch(chunk.iter().map(|&i| (&x[i], y[i])), lr, params.momentum);
            }
            last_loss /= (x.len() as f32 / params.batch_size.max(1) as f32).max(1.0);
            lr *= params.lr_decay;
        }
        last_loss
    }

    /// Runs one minibatch of SGD with momentum; returns the batch loss.
    pub fn train_batch<'a>(
        &mut self,
        batch: impl IntoIterator<Item = (&'a Vec<f32>, usize)>,
        lr: f32,
        momentum: f32,
    ) -> f32 {
        let mut grad_w: Vec<Matrix> =
            self.layers.iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect();
        let mut grad_b: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut count = 0usize;
        let mut loss = 0.0f32;

        for (x, label) in batch {
            count += 1;
            // Forward, keeping pre/post activations.
            let mut pres = Vec::with_capacity(self.layers.len());
            let mut posts: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len() + 1);
            posts.push(x.clone());
            for layer in &self.layers {
                let (pre, post) = layer.forward(posts.last().expect("nonempty"));
                pres.push(pre);
                posts.push(post);
            }
            let out = posts.last().expect("nonempty").clone();

            // Output delta dL/d(pre_last) and loss.
            let delta_out: Vec<f32> = match self.head {
                OutputHead::Softmax => {
                    let p = softmax(&out);
                    loss += -(p[label].max(1e-9)).ln();
                    let mut d = p;
                    d[label] -= 1.0;
                    d
                }
                OutputHead::Sigmoid => {
                    let p = out[0].clamp(1e-7, 1.0 - 1e-7);
                    let t = label as f32;
                    loss += -(t * p.ln() + (1.0 - t) * (1.0 - p).ln());
                    // d BCE/d pre = p - t for sigmoid output.
                    vec![p - t]
                }
                OutputHead::Linear => {
                    let t = label as f32;
                    loss += (out[0] - t) * (out[0] - t);
                    vec![2.0 * (out[0] - t)]
                }
            };

            // Backward.
            let mut delta = delta_out;
            for l in (0..self.layers.len()).rev() {
                // The final layer's delta is already w.r.t. the
                // pre-activation (softmax/sigmoid shortcuts; linear heads
                // use an identity activation), so only hidden layers fold
                // in the activation derivative.
                if l + 1 != self.layers.len() {
                    for (d, (&pre, &post)) in
                        delta.iter_mut().zip(pres[l].iter().zip(posts[l + 1].iter()))
                    {
                        *d *= act_deriv(self.layers[l].act, pre, post);
                    }
                }
                let input = &posts[l];
                for (i, &d) in delta.iter().enumerate() {
                    grad_b[l][i] += d;
                    for (j, &xin) in input.iter().enumerate() {
                        *grad_w[l].get_mut(i, j) += d * xin;
                    }
                }
                if l > 0 {
                    let mut next = vec![0.0f32; self.layers[l].w.cols()];
                    for (i, &d) in delta.iter().enumerate() {
                        for (j, n) in next.iter_mut().enumerate() {
                            *n += d * self.layers[l].w.get(i, j);
                        }
                    }
                    delta = next;
                }
            }
        }
        if count == 0 {
            return 0.0;
        }

        // Momentum update.
        let inv = 1.0 / count as f32;
        for l in 0..self.layers.len() {
            self.velocity_w[l].scale(momentum);
            self.velocity_w[l].add_scaled(&grad_w[l], -lr * inv);
            let vw = self.velocity_w[l].clone();
            self.layers[l].w.add_scaled(&vw, 1.0);
            for ((v, g), b) in
                self.velocity_b[l].iter_mut().zip(&grad_b[l]).zip(self.layers[l].b.iter_mut())
            {
                *v = momentum * *v - lr * inv * g;
                *b += *v;
            }
        }
        loss * inv
    }

    /// Exports the current parameters as a portable snapshot — the
    /// payload a live `ModelUpdate` carries to deployed switches.
    pub fn export_weights(&self) -> MlpWeights {
        MlpWeights {
            layers: self
                .layers
                .iter()
                .map(|l| LayerWeights {
                    rows: l.w.rows(),
                    cols: l.w.cols(),
                    w: l.w.data().to_vec(),
                    b: l.b.clone(),
                    act: l.act,
                })
                .collect(),
            head: self.head,
        }
    }

    /// Replaces this model's parameters with a snapshot of the same
    /// architecture. Momentum state is reset: the optimizer restarts
    /// from the imported point (velocities accumulated under the old
    /// weights would be meaningless).
    ///
    /// # Errors
    ///
    /// [`WeightShapeError`] when layer counts, dimensions, internal
    /// value lengths, activations, or the output head disagree.
    pub fn import_weights(&mut self, weights: &MlpWeights) -> Result<(), WeightShapeError> {
        if weights.layers.len() != self.layers.len() {
            return Err(WeightShapeError::LayerCount {
                expected: self.layers.len(),
                got: weights.layers.len(),
            });
        }
        for (i, (mine, theirs)) in self.layers.iter().zip(&weights.layers).enumerate() {
            if theirs.w.len() != theirs.rows * theirs.cols || theirs.b.len() != theirs.rows {
                return Err(WeightShapeError::Malformed { layer: i });
            }
            if (theirs.rows, theirs.cols) != (mine.w.rows(), mine.w.cols()) {
                return Err(WeightShapeError::LayerDims {
                    layer: i,
                    expected: (mine.w.rows(), mine.w.cols()),
                    got: (theirs.rows, theirs.cols),
                });
            }
            if theirs.act != mine.act {
                return Err(WeightShapeError::FunctionMismatch { layer: i });
            }
        }
        if weights.head != self.head {
            return Err(WeightShapeError::FunctionMismatch { layer: self.layers.len() });
        }
        for (mine, theirs) in self.layers.iter_mut().zip(&weights.layers) {
            mine.w = Matrix::from_vec(theirs.rows, theirs.cols, theirs.w.clone());
            mine.b = theirs.b.clone();
        }
        for v in &mut self.velocity_w {
            *v = Matrix::zeros(v.rows(), v.cols());
        }
        for v in &mut self.velocity_b {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
        Ok(())
    }

    /// Reconstructs a model from a snapshot (fresh optimizer state).
    ///
    /// # Panics
    ///
    /// Panics on an internally inconsistent snapshot (value lengths
    /// disagreeing with declared dimensions).
    pub fn from_weights(weights: &MlpWeights) -> Self {
        let layers: Vec<Dense> = weights
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                assert!(
                    l.w.len() == l.rows * l.cols && l.b.len() == l.rows,
                    "layer {i} value lengths disagree with its declared dimensions"
                );
                Dense {
                    w: Matrix::from_vec(l.rows, l.cols, l.w.clone()),
                    b: l.b.clone(),
                    act: l.act,
                }
            })
            .collect();
        let velocity_w = layers.iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect();
        let velocity_b = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        Self { layers, head: weights.head, velocity_w, velocity_b }
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, x: &[Vec<f32>], y: &[usize]) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        let correct = x.iter().zip(y).filter(|(xi, &yi)| self.predict_class(xi) == yi).count();
        correct as f64 / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BinaryMetrics;

    /// Tiny two-blob binary problem the MLP must solve essentially
    /// perfectly.
    fn blobs(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        use rand::Rng;
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.5 } else { 1.5 };
            x.push(vec![cx + rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn learns_blobs_with_sigmoid_head() {
        let (x, y) = blobs(400);
        let cfg = MlpConfig {
            layers: vec![2, 8, 1],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        let mut mlp = Mlp::new(&cfg, 1);
        mlp.train(&x, &y, &TrainParams { epochs: 30, ..TrainParams::default() });
        assert!(mlp.accuracy(&x, &y) > 0.97, "accuracy {}", mlp.accuracy(&x, &y));
    }

    #[test]
    fn learns_blobs_with_softmax_head() {
        let (x, y) = blobs(400);
        let cfg = MlpConfig {
            layers: vec![2, 8, 2],
            hidden: Activation::Relu,
            head: OutputHead::Softmax,
        };
        let mut mlp = Mlp::new(&cfg, 2);
        mlp.train(&x, &y, &TrainParams { epochs: 30, ..TrainParams::default() });
        assert!(mlp.accuracy(&x, &y) > 0.97, "accuracy {}", mlp.accuracy(&x, &y));
    }

    #[test]
    fn learns_xor_nonlinear() {
        let x: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let y = vec![0, 1, 1, 0];
        // Replicate to form batches.
        let xs: Vec<Vec<f32>> = x.iter().cycle().take(200).cloned().collect();
        let ys: Vec<usize> = y.iter().cycle().take(200).copied().collect();
        let cfg = MlpConfig {
            layers: vec![2, 8, 1],
            hidden: Activation::TanhExp,
            head: OutputHead::Sigmoid,
        };
        let mut mlp = Mlp::new(&cfg, 3);
        mlp.train(
            &xs,
            &ys,
            &TrainParams { epochs: 200, lr: 0.2, lr_decay: 1.0, ..TrainParams::default() },
        );
        assert_eq!(mlp.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn anomaly_dnn_topology() {
        let mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 0);
        assert_eq!(mlp.input_width(), 6);
        assert_eq!(mlp.output_width(), 1);
        assert_eq!(mlp.layers().len(), 4);
        let widths: Vec<usize> = mlp.layers().iter().map(|l| l.w.rows()).collect();
        assert_eq!(widths, vec![12, 6, 3, 1]);
    }

    #[test]
    fn scores_are_probabilities() {
        let mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 5);
        for i in 0..50 {
            let x = vec![i as f32 / 10.0; 6];
            let s = mlp.score(&x);
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn f1_on_separable_data_is_high() {
        let (x, y) = blobs(600);
        let cfg = MlpConfig {
            layers: vec![2, 6, 1],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        let mut mlp = Mlp::new(&cfg, 7);
        mlp.train(&x, &y, &TrainParams { epochs: 25, ..TrainParams::default() });
        let m = BinaryMetrics::from_pairs(
            x.iter().zip(&y).map(|(xi, &yi)| (mlp.predict_class(xi) == 1, yi == 1)),
        );
        assert!(m.f1() > 0.95, "f1 {}", m.f1());
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = blobs(100);
        let cfg = MlpConfig::tmc_kernel(&[2, 4, 2]);
        let mut a = Mlp::new(&cfg, 9);
        let mut b = Mlp::new(&cfg, 9);
        a.train(&x, &y, &TrainParams::default());
        b.train(&x, &y, &TrainParams::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sigmoid head requires")]
    fn sigmoid_head_needs_single_output() {
        let cfg = MlpConfig {
            layers: vec![2, 4, 2],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        let _ = Mlp::new(&cfg, 0);
    }
}
