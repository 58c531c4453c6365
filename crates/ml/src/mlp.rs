//! Multilayer perceptrons with SGD training.
//!
//! The paper's anomaly-detection DNN (Tang et al. 2016) is a small MLP —
//! six input features, hidden layers of 12, 6, and 3 units, one sigmoid
//! output — trained in the control plane and executed per-packet on the
//! MapReduce block. This module provides the float training side; the
//! int8 deployment side lives in [`crate::quantized`].
//!
//! [`Mlp::train`] runs each minibatch in lane-major form, one sample per
//! lane: activations, deltas and the back-propagated error are stored
//! `[unit][lane]`, so each weight meets a block of samples in one
//! vectorizable loop. It sizes that working set once per call and
//! allocates nothing per sample or per batch. Every lane computes its
//! sample's values in a textbook per-sample loop's order, and every
//! gradient sum and the loss take the samples in batch order, so the
//! trained weights are a function of the data, the seed and the
//! parameters alone — pinned bit for bit against that loop in this
//! module's tests.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use taurus_fixed::Activation;

use crate::linalg::{argmax, dot, softmax, softmax_into, Matrix, DOT_START};

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
    /// Forward pass into caller buffers: `pre = W·x + b` (one [`dot`] per
    /// row), `post = act(pre)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not the layer's input width or `pre` / `post` are
    /// not its output width.
    pub fn forward(&self, x: &[f32], pre: &mut [f32], post: &mut [f32]) {
        assert_eq!(x.len(), self.w.cols(), "input length must equal the layer's input width");
        assert!(
            pre.len() == self.b.len() && post.len() == self.b.len(),
            "output buffers must be the layer's output width"
        );
        for (r, ((p, q), &bias)) in pre.iter_mut().zip(post.iter_mut()).zip(&self.b).enumerate() {
            *p = dot(self.w.row(r), x) + bias;
            *q = self.act.eval_f32(*p);
        }
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

/// `d *= act'(pre, post)`, lane by lane.
fn scale_by_deriv(act: Activation, d: &mut [f32], pre: &[f32], post: &[f32]) {
    with_act(act, |act| {
        for ((d, &pre), &post) in d.iter_mut().zip(pre).zip(post) {
            *d *= act_deriv(act, pre, post);
        }
    });
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

/// Samples per lane block. The lane loops run over `[f32; LANES]` blocks,
/// four SSE2 registers of independent sums, and a batch's lane count is
/// its size rounded up to whole blocks.
const LANES: usize = 16;

/// Columns per gradient chunk, one SSE2 register: each `grad_w` row is
/// padded to whole chunks, so a sample's row update has no scalar tail.
const CHUNK: usize = 4;

/// A batch in lane-major form: one sample per lane, and every per-unit
/// value (the inputs, each layer's pre- and post-activations) stored
/// `[unit][lane]`, so each weight is loaded once and meets a whole block
/// of samples.
pub(crate) struct LaneBatch {
    /// Lanes per unit: the largest batch rounded up to whole blocks.
    lanes: usize,
    /// Samples loaded. Lanes past it are padding holding stale values.
    count: usize,
    /// The loaded samples, `[feature][lane]`.
    input: Vec<f32>,
    /// Per layer: pre- and post-activations, `[unit][lane]`.
    pre: Vec<Vec<f32>>,
    post: Vec<Vec<f32>>,
}

impl LaneBatch {
    /// Sized for batches of up to `batch` samples through `layers`.
    pub(crate) fn new(layers: &[Dense], batch: usize) -> Self {
        let lanes = batch.max(1).div_ceil(LANES) * LANES;
        let per_layer = || layers.iter().map(|l| vec![0.0; l.b.len() * lanes]).collect();
        let inputs = layers.first().map_or(0, |l| l.w.cols());
        Self {
            lanes,
            count: 0,
            input: vec![0.0; inputs * lanes],
            pre: per_layer(),
            post: per_layer(),
        }
    }

    /// Lanes per unit: the most samples one [`LaneBatch::forward`] takes.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Loads `rows`, one per lane, and runs them through `layers`. Each
    /// lane computes exactly what [`Dense::forward`] computes for its row.
    pub(crate) fn forward<'a>(&mut self, layers: &[Dense], rows: impl Iterator<Item = &'a [f32]>) {
        let Self { lanes, count, input, pre, post } = self;
        let lanes = *lanes;
        *count = 0;
        for (k, row) in rows.enumerate() {
            assert!(k < lanes, "a lane batch takes at most {lanes} rows");
            for (j, &v) in row.iter().enumerate() {
                input[j * lanes + k] = v;
            }
            *count += 1;
        }
        let used = count.div_ceil(LANES) * LANES;
        for (l, layer) in layers.iter().enumerate() {
            let (below, here) = post.split_at_mut(l);
            let x = below.last().unwrap_or(input);
            forward_lanes(layer, x, &mut pre[l], &mut here[0], lanes, used);
        }
    }

    /// Layer `l`'s input, `[feature][lane]`: the loaded samples, or the
    /// layer below's post-activations.
    fn input_of(&self, l: usize) -> &[f32] {
        if l == 0 {
            &self.input
        } else {
            &self.post[l - 1]
        }
    }

    /// Layer `l`'s pre- and post-activations, `[unit][lane]`.
    pub(crate) fn layer(&self, l: usize) -> (&[f32], &[f32]) {
        (&self.pre[l], &self.post[l])
    }
}

/// `pre = W·x + b` and `post = act(pre)` over lanes `..used`, every
/// operand `[unit][lane]` with `lanes` lanes. Each lane folds its dot
/// product as [`dot`] does, from [`DOT_START`] in column order, then
/// adds the bias: the per-sample [`Dense::forward`], bit for bit.
fn forward_lanes(
    layer: &Dense,
    x: &[f32],
    pre: &mut [f32],
    post: &mut [f32],
    lanes: usize,
    used: usize,
) {
    let act = layer.act;
    for (r, (pre, post)) in
        pre.chunks_exact_mut(lanes).zip(post.chunks_exact_mut(lanes)).enumerate()
    {
        let (w, bias) = (layer.w.row(r), layer.b[r]);
        for k in (0..used).step_by(LANES) {
            let mut acc = [DOT_START; LANES];
            for (j, &wj) in w.iter().enumerate() {
                for (a, &xv) in acc.iter_mut().zip(&x[j * lanes + k..][..LANES]) {
                    *a += wj * xv;
                }
            }
            for (p, a) in pre[k..k + LANES].iter_mut().zip(acc) {
                *p = a + bias;
            }
        }
        activate(act, &pre[..used], &mut post[..used]);
    }
}

/// Calls `f` with `act` as a constant: each arm inlines `f` with its own
/// variant, so the `match` inside [`Activation::eval_f32`] and
/// [`act_deriv`] folds away and the loop in `f` can vectorize.
#[inline(always)]
fn with_act(act: Activation, mut f: impl FnMut(Activation)) {
    match act {
        Activation::Identity => f(Activation::Identity),
        Activation::Relu => f(Activation::Relu),
        Activation::LeakyRelu => f(Activation::LeakyRelu),
        // Transcendental: one libm call per lane either way.
        _ => f(act),
    }
}

/// `post = act(pre)`, lane by lane.
fn activate(act: Activation, pre: &[f32], post: &mut [f32]) {
    with_act(act, |act| {
        for (q, &p) in post.iter_mut().zip(pre) {
            *q = act.eval_f32(p);
        }
    });
}

/// The working set of one [`Mlp::train`] call, sized once from the
/// layer shapes and the batch size.
struct Scratch {
    /// The minibatch, forward pass included.
    batch: LaneBatch,
    /// Error w.r.t. the current layer's pre-activation, and the one being
    /// propagated to the layer below: `[unit][lane]`, as many units as
    /// the widest layer.
    delta: Vec<f32>,
    next: Vec<f32>,
    /// A layer's inputs again, `[chunk][lane]`: [`CHUNK`] columns per
    /// chunk, the last one zero-padded.
    xs: Vec<[f32; CHUNK]>,
    /// A softmax head's logits and probabilities for one sample.
    head: Vec<f32>,
    /// Per layer: the minibatch's summed gradients. `grad_w` is `out`
    /// rows of [`chunks`] chunks, the columns past `in` padding;
    /// `grad_b` is `out`.
    grad_w: Vec<Vec<[f32; CHUNK]>>,
    grad_b: Vec<Vec<f32>>,
}

/// Gradient chunks in a row of `cols` columns.
fn chunks(cols: usize) -> usize {
    cols.div_ceil(CHUNK)
}

impl Scratch {
    fn new(layers: &[Dense], batch: usize) -> Self {
        let batch = LaneBatch::new(layers, batch);
        let widest = layers.iter().map(|l| l.w.rows().max(l.w.cols())).max().unwrap_or(0);
        let outputs = layers.last().map_or(0, |l| l.b.len());
        Self {
            delta: vec![0.0; widest * batch.lanes],
            next: vec![0.0; widest * batch.lanes],
            xs: vec![[0.0; CHUNK]; chunks(widest) * batch.lanes],
            head: vec![0.0; 2 * outputs],
            grad_w: layers
                .iter()
                .map(|l| vec![[0.0; CHUNK]; l.w.rows() * chunks(l.w.cols())])
                .collect(),
            grad_b: layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            batch,
        }
    }
}

/// Adds samples `k..k + S` to one layer's gradient sums: `d` is the
/// layer's delta and `xs` its inputs, both with `lanes` lanes (`xs` as
/// `[chunk][lane]`), and `grad_w` has `chunks` chunks per unit. Each sum
/// takes the samples in order, as the per-sample loop does; taking `S` of
/// them per pass keeps a chunk of `grad_w` in a register across them.
#[inline(always)]
fn add_gradients<const S: usize>(
    k: usize,
    d: &[f32],
    xs: &[[f32; CHUNK]],
    lanes: usize,
    chunks: usize,
    grad_w: &mut [[f32; CHUNK]],
    grad_b: &mut [f32],
) {
    for (i, gb) in grad_b.iter_mut().enumerate() {
        let d: &[f32; S] = d[i * lanes + k..][..S].try_into().expect("S lanes");
        for &d in d {
            *gb += d;
        }
        for (c, g) in grad_w[i * chunks..][..chunks].iter_mut().enumerate() {
            let xs: &[[f32; CHUNK]; S] = xs[c * lanes + k..][..S].try_into().expect("S lanes");
            let mut acc = *g;
            for (&d, x) in d.iter().zip(xs) {
                acc = [acc[0] + d * x[0], acc[1] + d * x[1], acc[2] + d * x[2], acc[3] + d * x[3]];
            }
            *g = acc;
        }
    }
}

/// One minibatch: the rows of `x` and `y` that `rows` names, in order.
#[derive(Clone, Copy)]
struct Batch<'a> {
    x: &'a [Vec<f32>],
    y: &'a [usize],
    rows: &'a [usize],
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

    /// The layers, mutably, for tests that set parameters directly.
    #[cfg(test)]
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
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
            let mut pre = vec![0.0; layer.b.len()];
            let mut post = vec![0.0; layer.b.len()];
            layer.forward(&h, &mut pre, &mut post);
            h = post;
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

    /// Trains on `(x, y)` class-labelled data for `params.epochs` of
    /// minibatch SGD with momentum, reshuffling every epoch.
    ///
    /// Returns the final epoch's loss as `Σ batch mean losses / max(1,
    /// rows / batch_size)`, the ratio taken in `f32` (a `batch_size` of 0
    /// counts as 1). That divisor is not the batch count, so a ragged last
    /// batch weighs as much as a full one; `0.0` when `epochs` is 0.
    ///
    /// # Panics
    ///
    /// Before the first step, if `x` and `y` lengths differ, `x` is
    /// empty, a row is not [`Mlp::input_width`] wide, or a label is out of
    /// range for the head (≥ 2 for a sigmoid head, ≥ the output width for
    /// a softmax head; linear targets are unrestricted). The message names
    /// the first offending row.
    pub fn train(&mut self, x: &[Vec<f32>], y: &[usize], params: &TrainParams) -> f32 {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "cannot train on empty data");
        self.check_rows(x, y);
        let batch_size = params.batch_size.max(1);
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut scratch = Scratch::new(&self.layers, batch_size.min(x.len()));
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut lr = params.lr;
        let mut last_loss = 0.0;
        for epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            // Each epoch restarts the sum, so only the final one's loss
            // can reach the caller; the others skip its `ln`s.
            let with_loss = epoch + 1 == params.epochs;
            last_loss = 0.0;
            for rows in order.chunks(batch_size) {
                let batch = Batch { x, y, rows };
                last_loss += self.train_batch(batch, lr, params.momentum, with_loss, &mut scratch);
            }
            last_loss /= (x.len() as f32 / batch_size as f32).max(1.0);
            lr *= params.lr_decay;
        }
        last_loss
    }

    /// Panics, naming the row, on a width or label `train` cannot use.
    fn check_rows(&self, x: &[Vec<f32>], y: &[usize]) {
        let width = self.input_width();
        let classes = match self.head {
            OutputHead::Sigmoid => Some(2),
            OutputHead::Softmax => Some(self.output_width()),
            OutputHead::Linear => None,
        };
        for (i, (row, &label)) in x.iter().zip(y).enumerate() {
            assert!(
                row.len() == width,
                "training row {i} has {} features; the model takes {width}",
                row.len()
            );
            if let Some(k) = classes {
                assert!(
                    label < k,
                    "training row {i} has label {label}; a {:?} head takes 0..{k}",
                    self.head
                );
            }
        }
    }

    /// Runs one non-empty minibatch of SGD with momentum; returns the
    /// batch's mean loss, or 0 unless `with_loss`.
    ///
    /// Per-sample values (activations, deltas, the back-propagated error)
    /// are computed lane by lane, each lane in the per-sample loop's
    /// order. The shared sums (`grad_w`, `grad_b`, the loss) then take
    /// the samples in batch order, lanes `..count` only, so every sum sees
    /// the per-sample loop's operands in its order and no padding lane
    /// reaches one.
    fn train_batch(
        &mut self,
        batch: Batch<'_>,
        lr: f32,
        momentum: f32,
        with_loss: bool,
        s: &mut Scratch,
    ) -> f32 {
        let Scratch { batch: b, delta, next, xs, head, grad_w, grad_b } = s;
        for g in grad_w.iter_mut() {
            g.fill([0.0; CHUNK]);
        }
        for g in grad_b.iter_mut() {
            g.fill(0.0);
        }
        b.forward(&self.layers, batch.rows.iter().map(|&i| batch.x[i].as_slice()));
        let (lanes, count) = (b.lanes, b.count);
        let used = count.div_ceil(LANES) * LANES;
        let n = self.layers.len();

        // Output delta dL/d(pre_last) and loss, sample by sample.
        let out = b.layer(n - 1).1;
        // Units with a delta: every output for softmax, else the first.
        let mut len = if self.head == OutputHead::Softmax { head.len() / 2 } else { 1 };
        let mut loss = 0.0f32;
        for (k, &i) in batch.rows.iter().enumerate() {
            let label = batch.y[i];
            let sample_loss = match self.head {
                OutputHead::Softmax => {
                    let (logits, probs) = head.split_at_mut(len);
                    for (u, logit) in logits.iter_mut().enumerate() {
                        *logit = out[u * lanes + k];
                    }
                    softmax_into(logits, probs);
                    let loss = with_loss.then(|| -(probs[label].max(1e-9)).ln());
                    probs[label] -= 1.0;
                    for (u, &p) in probs.iter().enumerate() {
                        delta[u * lanes + k] = p;
                    }
                    loss
                }
                OutputHead::Sigmoid => {
                    let p = out[k].clamp(1e-7, 1.0 - 1e-7);
                    let t = label as f32;
                    // d BCE/d pre = p - t for sigmoid output.
                    delta[k] = p - t;
                    with_loss.then(|| -(t * p.ln() + (1.0 - t) * (1.0 - p).ln()))
                }
                OutputHead::Linear => {
                    // Only the first output is fitted, whatever the width.
                    let (o, t) = (out[k], label as f32);
                    delta[k] = 2.0 * (o - t);
                    with_loss.then_some((o - t) * (o - t))
                }
            };
            if let Some(sample_loss) = sample_loss {
                loss += sample_loss;
            }
        }

        // Backward.
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let d = &mut delta[..len * lanes];
            // The final layer's delta is already w.r.t. the pre-activation
            // (softmax/sigmoid shortcuts; linear heads use an identity
            // activation), so only hidden layers fold in the derivative.
            if l + 1 != n {
                let (pre, post) = b.layer(l);
                scale_by_deriv(layer.act, d, pre, post);
            }
            let input = b.input_of(l);
            let cols = layer.w.cols();
            let chunks = chunks(cols);
            // The inputs again, `[chunk][lane]`: one sample's chunk of a
            // row update is one load.
            let xs = &mut xs[..chunks * lanes];
            for (c, xs) in xs.chunks_exact_mut(lanes).enumerate() {
                for (k, x) in xs[..count].iter_mut().enumerate() {
                    *x = std::array::from_fn(|q| {
                        let col = c * CHUNK + q;
                        if col < cols {
                            input[col * lanes + k]
                        } else {
                            0.0
                        }
                    });
                }
            }
            let (gw, gb) = (&mut grad_w[l][..], &mut grad_b[l][..len]);
            let whole = count / LANES * LANES;
            for k in (0..whole).step_by(LANES) {
                add_gradients::<LANES>(k, d, xs, lanes, chunks, gw, gb);
            }
            for k in whole..count {
                add_gradients::<1>(k, d, xs, lanes, chunks, gw, gb);
            }
            if l > 0 {
                for (j, below) in next[..cols * lanes].chunks_exact_mut(lanes).enumerate() {
                    for k in (0..used).step_by(LANES) {
                        let mut acc = [0.0f32; LANES];
                        for i in 0..len {
                            let w = layer.w.get(i, j);
                            for (a, &dv) in acc.iter_mut().zip(&d[i * lanes + k..][..LANES]) {
                                *a += dv * w;
                            }
                        }
                        below[k..k + LANES].copy_from_slice(&acc);
                    }
                }
                std::mem::swap(delta, next);
                len = cols;
            }
        }

        // Momentum update.
        let inv = 1.0 / count as f32;
        let step = -lr * inv;
        let params = self.layers.iter_mut().zip(&mut self.velocity_w).zip(&mut self.velocity_b);
        for (((layer, vw), vb), (gw, gb)) in params.zip(grad_w.iter().zip(grad_b.iter())) {
            let (cols, chunks) = (layer.w.cols(), chunks(layer.w.cols()));
            let (w, v) = (layer.w.data_mut(), vw.data_mut());
            for r in 0..layer.b.len() {
                let (w, v) = (&mut w[r * cols..(r + 1) * cols], &mut v[r * cols..(r + 1) * cols]);
                let g = gw[r * chunks..(r + 1) * chunks].as_flattened();
                for ((w, v), &g) in w.iter_mut().zip(v).zip(g) {
                    *v *= momentum;
                    *v += step * g;
                    *w += *v;
                }
            }
            for ((b, v), &g) in layer.b.iter_mut().zip(vb).zip(gb) {
                *v = momentum * *v - lr * inv * g;
                *b += *v;
            }
        }
        loss * inv
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
    use proptest::prelude::*;
    use rand::Rng;

    /// `train` as a per-sample loop that allocates its activations,
    /// deltas and gradient banks as it goes — kept as the reference the
    /// scratch loop is pinned against, bit for bit.
    fn train_reference(mlp: &mut Mlp, x: &[Vec<f32>], y: &[usize], params: &TrainParams) -> f32 {
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut lr = params.lr;
        let mut last_loss = 0.0;
        for _ in 0..params.epochs {
            order.shuffle(&mut rng);
            last_loss = 0.0;
            for chunk in order.chunks(params.batch_size.max(1)) {
                last_loss += train_batch_reference(
                    mlp,
                    chunk.iter().map(|&i| (&x[i], y[i])),
                    lr,
                    params.momentum,
                );
            }
            last_loss /= (x.len() as f32 / params.batch_size.max(1) as f32).max(1.0);
            lr *= params.lr_decay;
        }
        last_loss
    }

    fn forward_reference(layer: &Dense, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut pre = layer.w.matvec(x);
        for (p, &bias) in pre.iter_mut().zip(&layer.b) {
            *p += bias;
        }
        let post = pre.iter().map(|&p| layer.act.eval_f32(p)).collect();
        (pre, post)
    }

    fn train_batch_reference<'a>(
        mlp: &mut Mlp,
        batch: impl IntoIterator<Item = (&'a Vec<f32>, usize)>,
        lr: f32,
        momentum: f32,
    ) -> f32 {
        let mut grad_w: Vec<Matrix> =
            mlp.layers.iter().map(|l| Matrix::zeros(l.w.rows(), l.w.cols())).collect();
        let mut grad_b: Vec<Vec<f32>> = mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut count = 0usize;
        let mut loss = 0.0f32;

        for (x, label) in batch {
            count += 1;
            let mut pres = Vec::with_capacity(mlp.layers.len());
            let mut posts: Vec<Vec<f32>> = Vec::with_capacity(mlp.layers.len() + 1);
            posts.push(x.clone());
            for layer in &mlp.layers {
                let (pre, post) = forward_reference(layer, posts.last().expect("nonempty"));
                pres.push(pre);
                posts.push(post);
            }
            let out = posts.last().expect("nonempty").clone();

            let delta_out: Vec<f32> = match mlp.head {
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
                    vec![p - t]
                }
                OutputHead::Linear => {
                    let t = label as f32;
                    loss += (out[0] - t) * (out[0] - t);
                    vec![2.0 * (out[0] - t)]
                }
            };

            let mut delta = delta_out;
            for l in (0..mlp.layers.len()).rev() {
                if l + 1 != mlp.layers.len() {
                    for (d, (&pre, &post)) in
                        delta.iter_mut().zip(pres[l].iter().zip(posts[l + 1].iter()))
                    {
                        *d *= act_deriv(mlp.layers[l].act, pre, post);
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
                    let mut next = vec![0.0f32; mlp.layers[l].w.cols()];
                    for (i, &d) in delta.iter().enumerate() {
                        for (j, n) in next.iter_mut().enumerate() {
                            *n += d * mlp.layers[l].w.get(i, j);
                        }
                    }
                    delta = next;
                }
            }
        }
        if count == 0 {
            return 0.0;
        }

        let inv = 1.0 / count as f32;
        for l in 0..mlp.layers.len() {
            mlp.velocity_w[l].scale(momentum);
            mlp.velocity_w[l].add_scaled(&grad_w[l], -lr * inv);
            let vw = mlp.velocity_w[l].clone();
            mlp.layers[l].w.add_scaled(&vw, 1.0);
            for ((v, g), b) in
                mlp.velocity_b[l].iter_mut().zip(&grad_b[l]).zip(mlp.layers[l].b.iter_mut())
            {
                *v = momentum * *v - lr * inv * g;
                *b += *v;
            }
        }
        loss * inv
    }

    /// The bits of `x`, with every NaN mapped to one pattern: Rust leaves
    /// the sign and payload of a NaN result unspecified (the compiler may
    /// commute an `fadd` of two NaNs), so a diverged run is only required
    /// to diverge in both loops.
    fn bits_of(x: f32) -> u32 {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Asserts every weight, bias, velocity and the two losses are the
    /// same bits.
    fn assert_same_bits(got: (&Mlp, f32), want: (&Mlp, f32), case: &str) {
        let bits = |v: &[f32]| v.iter().copied().map(bits_of).collect::<Vec<_>>();
        assert_eq!(bits_of(got.1), bits_of(want.1), "loss {} vs {}: {case}", got.1, want.1);
        let (a, b) = (got.0, want.0);
        for l in 0..a.layers.len() {
            assert_eq!(bits(a.layers[l].w.data()), bits(b.layers[l].w.data()), "w[{l}]: {case}");
            assert_eq!(bits(&a.layers[l].b), bits(&b.layers[l].b), "b[{l}]: {case}");
            assert_eq!(
                bits(a.velocity_w[l].data()),
                bits(b.velocity_w[l].data()),
                "velocity_w[{l}]: {case}"
            );
            assert_eq!(bits(&a.velocity_b[l]), bits(&b.velocity_b[l]), "velocity_b[{l}]: {case}");
        }
    }

    /// Uniform features in `[-2, 2)` and labels below `labels`.
    fn random_rows(
        rows: usize,
        width: usize,
        labels: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = (0..rows).map(|_| (0..width).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
        let y = (0..rows).map(|_| rng.gen_range(0..labels)).collect();
        (x, y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_train_equals_the_reference_loop_bit_for_bit(
            head in 0usize..3,
            outputs in 2usize..5,
            hidden in 0usize..3,
            depth in 2usize..6,
            widths in collection::vec(1usize..17, 5),
            rows in 1usize..80,
            batch in 0usize..15,
            lr in 0.01f32..0.1,
            lr_decay in 0.5f32..1.0,
            epochs in 1usize..4,
            seed in any::<u64>(),
        ) {
            // Sigmoid: one output, labels {0, 1}. Softmax: 2..=4 classes.
            // Linear: 1..=3 outputs (only the first is fitted), targets
            // 0..=2 at a tenth of the rate, so MSE rarely diverges.
            let (head, outputs, labels, lr) = match head {
                0 => (OutputHead::Sigmoid, 1, 2, lr),
                1 => (OutputHead::Softmax, outputs, outputs, lr),
                _ => (OutputHead::Linear, outputs - 1, 3, lr / 10.0),
            };
            let hidden = [Activation::Relu, Activation::LeakyRelu, Activation::TanhExp][hidden];
            let mut layers = widths[..depth - 1].to_vec();
            layers.push(outputs);
            // Around the 16-lane block and the 4-column chunk, and a
            // batch larger than the rows.
            let batch_size = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, rows + 3][batch];
            let params =
                TrainParams { lr, batch_size, epochs, lr_decay, seed, ..TrainParams::default() };
            let case = format!("{head:?} {hidden:?} {layers:?} rows {rows} {params:?}");
            let (x, y) = random_rows(rows, layers[0], labels, seed ^ 0x5EED);
            let mut got = Mlp::new(&MlpConfig { layers, hidden, head }, seed);
            let mut want = got.clone();
            let got_loss = got.train(&x, &y, &params);
            let want_loss = train_reference(&mut want, &x, &y, &params);
            assert_same_bits((&got, got_loss), (&want, want_loss), &case);
        }
    }

    #[test]
    fn a_run_diverged_before_a_ragged_last_batch_equals_the_reference_loop_bit_for_bit() {
        // Every fifth of the first 40 rows is scaled far out of range, so
        // the early batches carry ±∞ and NaN through activations, deltas
        // and loss terms. The last batch is ragged (70 rows in batches of
        // 32 end with 6), so those values sit in its padding lanes. A
        // padding lane that reached `grad_w`, `grad_b` or the loss would
        // add a stale value to a sum; even multiplied by zero, a stale ±∞
        // or NaN turns NaN a sum the reference keeps finite.
        let heads = [(OutputHead::Sigmoid, 1, 1e10f32), (OutputHead::Softmax, 2, 1e19)];
        for (head, outputs, scale) in heads {
            for seed in 0..16 {
                let (mut x, y) = random_rows(70, 5, 2, seed);
                for row in x.iter_mut().take(40).step_by(5) {
                    row.iter_mut().for_each(|v| *v *= scale);
                }
                let layers = vec![5, 9, 6, outputs];
                let cfg = MlpConfig { layers, hidden: Activation::Relu, head };
                let params = TrainParams { epochs: 3, seed, ..TrainParams::default() };
                let mut got = Mlp::new(&cfg, seed);
                let mut want = got.clone();
                let got_loss = got.train(&x, &y, &params);
                let want_loss = train_reference(&mut want, &x, &y, &params);
                let case = format!("{head:?} seed {seed}");
                assert_same_bits((&got, got_loss), (&want, want_loss), &case);
            }
        }
    }

    #[test]
    fn anomaly_dnn_training_equals_the_reference_loop_bit_for_bit() {
        let (x, y) = random_rows(1_500, 6, 2, 29);
        let params = TrainParams { epochs: 30, lr: 0.08, ..TrainParams::default() };
        let mut got = Mlp::new(&MlpConfig::anomaly_dnn(), 0x7A);
        let mut want = got.clone();
        let got_loss = got.train(&x, &y, &params);
        let want_loss = train_reference(&mut want, &x, &y, &params);
        assert_same_bits((&got, got_loss), (&want, want_loss), "anomaly DNN, 1500 rows");
    }

    #[test]
    #[should_panic(expected = "training row 2 has 3 features; the model takes 2")]
    fn a_row_of_the_wrong_width_panics_naming_it() {
        let (mut x, y) = blobs(4);
        x[2].push(0.0);
        Mlp::new(&MlpConfig::tmc_kernel(&[2, 4, 2]), 0).train(&x, &y, &TrainParams::default());
    }

    #[test]
    fn a_bad_row_panics_before_the_first_step() {
        // The bad row is the last one, so a loop that checked as it went
        // would have moved the weights on the batches before it.
        let (mut x, y) = blobs(100);
        x[99].pop();
        let mut mlp = Mlp::new(&MlpConfig::tmc_kernel(&[2, 4, 2]), 0);
        let before = mlp.clone();
        let params = TrainParams { batch_size: 8, ..TrainParams::default() };
        let trained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mlp.train(&x, &y, &params);
        }));
        assert!(trained.is_err());
        assert_eq!(mlp, before);
    }

    #[test]
    #[should_panic(expected = "training row 3 has label 2; a Sigmoid head takes 0..2")]
    fn a_sigmoid_label_above_one_panics_naming_its_row() {
        let (x, mut y) = blobs(4);
        y[3] = 2;
        let cfg = MlpConfig {
            layers: vec![2, 4, 1],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        Mlp::new(&cfg, 0).train(&x, &y, &TrainParams::default());
    }

    #[test]
    #[should_panic(expected = "training row 1 has label 3; a Softmax head takes 0..3")]
    fn a_softmax_label_past_the_classes_panics_naming_its_row() {
        let (x, mut y) = blobs(4);
        y[1] = 3;
        Mlp::new(&MlpConfig::tmc_kernel(&[2, 4, 3]), 0).train(&x, &y, &TrainParams::default());
    }

    #[test]
    fn linear_targets_are_unrestricted() {
        let (x, _) = blobs(16);
        let y: Vec<usize> = (0..16).map(|i| 1_000 * i).collect();
        let cfg =
            MlpConfig { layers: vec![2, 4, 1], hidden: Activation::Relu, head: OutputHead::Linear };
        let loss =
            Mlp::new(&cfg, 0).train(&x, &y, &TrainParams { epochs: 1, ..TrainParams::default() });
        assert!(loss > 0.0);
    }

    #[test]
    fn the_returned_loss_divides_by_rows_over_batch_size_not_the_batch_count() {
        // 10 rows in batches of 4 are 3 batches; the sum of their mean
        // losses is divided by 10 / 4 = 2.5.
        let (x, y) = blobs(10);
        let params = TrainParams { batch_size: 4, epochs: 1, lr: 0.0, ..TrainParams::default() };
        let mut mlp = Mlp::new(&MlpConfig::tmc_kernel(&[2, 3, 2]), 4);
        let frozen = mlp.clone();
        let loss = mlp.train(&x, &y, &params);
        let mut order: Vec<usize> = (0..10).collect();
        order.shuffle(&mut StdRng::seed_from_u64(params.seed));
        let sample_loss = |i: usize| -(frozen.forward(&x[i])[y[i]].max(1e-9)).ln();
        let batch_means: f32 = order
            .chunks(4)
            .map(|b| b.iter().map(|&i| sample_loss(i)).sum::<f32>() / b.len() as f32)
            .sum();
        assert!((loss - batch_means / 2.5).abs() < 1e-5, "{loss} vs {}", batch_means / 2.5);
        assert!((loss - batch_means / 3.0).abs() > 1e-3);
    }

    /// Tiny two-blob binary problem the MLP must solve essentially
    /// perfectly.
    fn blobs(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
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
