//! Post-training int8 quantization with integer-only inference.
//!
//! §5.1.1: Taurus executes models on an 8-bit fixed-point datapath;
//! Table 3 shows the accuracy cost is ≤0.07%. This module lowers trained
//! float models into *integer-only* pipelines built from exactly four
//! primitive operations:
//!
//! 1. zero-point-corrected multiply-accumulate into `i32`,
//! 2. `i32` bias addition,
//! 3. [`Requantizer`] rescale back to an int8 code,
//! 4. 256-entry int8→int8 activation lookup.
//!
//! These are the same primitives the MapReduce IR exposes and the CGRA
//! simulator executes, so [`QuantizedMlp::infer_codes`] is the **golden
//! model**: the compiler/simulator stack must reproduce its outputs
//! bit-for-bit (enforced by cross-crate integration tests).

use taurus_fixed::quant::{MinMax, QuantParams, Requantizer};
use taurus_fixed::Activation;

use crate::kmeans::KMeans;
use crate::linalg::argmax;
use crate::mlp::{LaneBatch, Mlp, OutputHead};
use crate::svm::Svm;

/// Accumulator lanes in the chunked int8 kernels below — the same
/// multi-accumulator shape as `taurus_ir::kernels` (this crate sits
/// below the IR, so the layout is mirrored rather than imported).
const LANES: usize = 8;

/// Calibration rows per lane batch in [`QuantizedMlp::quantize`]: the
/// working set is this many lanes per unit, whatever the row count.
const CALIBRATION_LANES: usize = 64;

/// Zero-point-corrected int8 dot product with `i32` accumulation —
/// primitive (1) of the integer pipeline. Chunked over `LANES`
/// independent accumulators so the compiler autovectorizes it;
/// reassociating the `i32` sum is exact (int8×int8 partial products
/// cannot overflow an `i32` accumulator at any realistic width).
#[inline]
pub fn dot_acc(w: &[i8], x: &[i8], x_zero_point: i32) -> i32 {
    debug_assert_eq!(w.len(), x.len());
    let n = w.len().min(x.len());
    let (w, x) = (&w[..n], &x[..n]);
    let mut acc = [0i32; LANES];
    let mut ws = w.chunks_exact(LANES);
    let mut xs = x.chunks_exact(LANES);
    for (ww, xw) in (&mut ws).zip(&mut xs) {
        for l in 0..LANES {
            acc[l] += i32::from(ww[l]) * (i32::from(xw[l]) - x_zero_point);
        }
    }
    let tail: i32 = ws
        .remainder()
        .iter()
        .zip(xs.remainder())
        .map(|(&wv, &xv)| i32::from(wv) * (i32::from(xv) - x_zero_point))
        .sum();
    acc.iter().sum::<i32>() + tail
}

/// Squared L2 distance between int8 code vectors (zero points cancel when
/// both sides share quantization parameters). Chunked like [`dot_acc`].
#[inline]
pub fn sq_dist_codes(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0i32; LANES];
    let mut avs = a.chunks_exact(LANES);
    let mut bvs = b.chunks_exact(LANES);
    for (aw, bw) in (&mut avs).zip(&mut bvs) {
        for l in 0..LANES {
            let d = i32::from(aw[l]) - i32::from(bw[l]);
            acc[l] += d * d;
        }
    }
    let tail: i32 = avs
        .remainder()
        .iter()
        .zip(bvs.remainder())
        .map(|(&x, &y)| {
            let d = i32::from(x) - i32::from(y);
            d * d
        })
        .sum();
    acc.iter().sum::<i32>() + tail
}

/// A 256-entry int8→int8 lookup table (primitive (4)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lut256 {
    table: Vec<i8>,
}

impl Lut256 {
    /// Builds a table mapping every input code through `f`.
    pub fn from_fn(f: impl Fn(i8) -> i8) -> Self {
        Self { table: (i8::MIN..=i8::MAX).map(f).collect() }
    }

    /// Builds the activation table: input codes under `pre`, output codes
    /// under `post`, function `act`.
    pub fn activation(act: Activation, pre: QuantParams, post: QuantParams) -> Self {
        Self::from_fn(|code| post.quantize(act.eval_f32(pre.dequantize(code))))
    }

    /// Looks up one code.
    #[inline]
    pub fn eval(&self, code: i8) -> i8 {
        self.table[(i32::from(code) + 128) as usize]
    }

    /// The raw table (what an MU stores).
    pub fn entries(&self) -> &[i8] {
        &self.table
    }
}

/// One quantized dense layer.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDense {
    /// Row-major int8 weights (`out × in`), symmetric quantization.
    pub w: Vec<i8>,
    /// Output count.
    pub rows: usize,
    /// Input count.
    pub cols: usize,
    /// `i32` biases pre-scaled by `s_in · s_w`.
    pub bias: Vec<i32>,
    /// Input quantization (shared with the previous layer's output).
    pub in_params: QuantParams,
    /// Pre-activation quantization.
    pub pre_params: QuantParams,
    /// Post-activation quantization (= next layer's input params).
    pub out_params: QuantParams,
    /// Accumulator → pre-activation code rescale.
    pub requant: Requantizer,
    /// Activation lookup (identity layers use an identity-through-quant
    /// table).
    pub act_lut: Lut256,
    /// The activation this layer applies (kept for IR lowering).
    pub act: Activation,
}

impl QuantizedDense {
    /// Integer-only forward: int8 codes in, int8 codes out.
    pub fn forward_codes(&self, x: &[i8]) -> Vec<i8> {
        assert_eq!(x.len(), self.cols, "input width mismatch");
        (0..self.rows)
            .map(|r| {
                let row = &self.w[r * self.cols..(r + 1) * self.cols];
                let acc = dot_acc(row, x, self.in_params.zero_point) + self.bias[r];
                let pre = self.requant.apply(acc);
                self.act_lut.eval(pre)
            })
            .collect()
    }
}

/// A fully quantized MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedDense>,
    head: OutputHead,
    input_params: QuantParams,
}

impl QuantizedMlp {
    /// Quantizes a trained float MLP using `calibration` inputs to choose
    /// activation ranges (TF-Lite-style post-training quantization).
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty or has the wrong width.
    pub fn quantize(mlp: &Mlp, calibration: &[Vec<f32>]) -> Self {
        assert!(!calibration.is_empty(), "need calibration data");
        assert!(
            calibration.iter().all(|x| x.len() == mlp.input_width()),
            "calibration width mismatch"
        );

        // Fold each layer's pre- and post-activation range as the rows
        // go through, a lane batch at a time, in the order
        // `QuantParams::from_values` would walk a per-layer column of them
        // (row by row, unit by unit): only the ranges are kept.
        let n_layers = mlp.layers().len();
        let mut input_range = MinMax::EMPTY;
        let mut ranges = vec![(MinMax::EMPTY, MinMax::EMPTY); n_layers];
        let mut batch = LaneBatch::new(mlp.layers(), calibration.len().min(CALIBRATION_LANES));
        for rows in calibration.chunks(batch.lanes()) {
            for &v in rows.iter().flatten() {
                input_range.observe(v);
            }
            batch.forward(mlp.layers(), rows.iter().map(Vec::as_slice));
            for (l, (pre_range, post_range)) in ranges.iter_mut().enumerate() {
                let (pre, post) = batch.layer(l);
                for k in 0..rows.len() {
                    for (&p, &q) in pre[k..].iter().zip(&post[k..]).step_by(batch.lanes()) {
                        pre_range.observe(p);
                        post_range.observe(q);
                    }
                }
            }
        }

        let input_params = input_range.params();
        let mut layers = Vec::with_capacity(n_layers);
        let mut in_params = input_params;
        for (l, layer) in mlp.layers().iter().enumerate() {
            let w_params = QuantParams::symmetric_from_values(layer.w.data());
            let w: Vec<i8> = layer.w.data().iter().map(|&v| w_params.quantize(v)).collect();
            let acc_scale = f64::from(in_params.scale) * f64::from(w_params.scale);
            let bias: Vec<i32> =
                layer.b.iter().map(|&b| (f64::from(b) / acc_scale).round() as i32).collect();
            let (pre_range, post_range) = ranges[l];
            let pre_params = pre_range.params();
            let out_params = match layer.act {
                // Bounded activations get their natural fixed ranges so
                // downstream layers see stable scales.
                Activation::SigmoidExp | Activation::SigmoidPw => QuantParams::from_range(0.0, 1.0),
                Activation::TanhExp | Activation::TanhPw | Activation::Lut => {
                    QuantParams::from_range(-1.0, 1.0)
                }
                _ => post_range.params(),
            };
            let requant = Requantizer::from_real_multiplier(
                acc_scale / f64::from(pre_params.scale),
                pre_params.zero_point,
            );
            let act_lut = Lut256::activation(layer.act, pre_params, out_params);
            layers.push(QuantizedDense {
                w,
                rows: layer.w.rows(),
                cols: layer.w.cols(),
                bias,
                in_params,
                pre_params,
                out_params,
                requant,
                act_lut,
                act: layer.act,
            });
            in_params = out_params;
        }
        Self { layers, head: mlp.head(), input_params }
    }

    /// The quantized layers (for IR lowering).
    pub fn layers(&self) -> &[QuantizedDense] {
        &self.layers
    }

    /// The output head.
    pub fn head(&self) -> OutputHead {
        self.head
    }

    /// Input quantization parameters.
    pub fn input_params(&self) -> QuantParams {
        self.input_params
    }

    /// Output quantization parameters (of the final layer).
    pub fn output_params(&self) -> QuantParams {
        self.layers.last().expect("at least one layer").out_params
    }

    /// Quantizes a float input vector to codes.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<i8> {
        x.iter().map(|&v| self.input_params.quantize(v)).collect()
    }

    /// Integer-only inference: codes in, codes out. **This is the golden
    /// model for the CGRA simulator.**
    pub fn infer_codes(&self, x: &[i8]) -> Vec<i8> {
        let mut h = x.to_vec();
        for layer in &self.layers {
            h = layer.forward_codes(&h);
        }
        h
    }

    /// Float-convenience inference: quantize, run codes, dequantize.
    pub fn infer_f32(&self, x: &[f32]) -> Vec<f32> {
        let codes = self.infer_codes(&self.quantize_input(x));
        let out = self.output_params();
        codes.into_iter().map(|c| out.dequantize(c)).collect()
    }

    /// Predicted class (threshold 0.5 for sigmoid heads, argmax otherwise).
    pub fn predict_class(&self, x: &[f32]) -> usize {
        let out = self.infer_f32(x);
        match self.head {
            OutputHead::Sigmoid => usize::from(out[0] >= 0.5),
            _ => argmax(&out),
        }
    }

    /// Anomaly score (single-output models) or class-1 probability.
    pub fn score(&self, x: &[f32]) -> f32 {
        let out = self.infer_f32(x);
        match self.head {
            OutputHead::Sigmoid | OutputHead::Linear => out[0],
            OutputHead::Softmax => out.get(1).copied().unwrap_or(out[0]),
        }
    }

    /// Accuracy over a labelled set.
    pub fn accuracy(&self, x: &[Vec<f32>], y: &[usize]) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        x.iter().zip(y).filter(|(xi, &yi)| self.predict_class(xi) == yi).count() as f64
            / x.len() as f64
    }

    /// Total weight memory in bytes (the paper's 5.6 KB-vs-12 MB argument
    /// in §3 compares this against equivalent flow rules).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + 4 * l.bias.len()).sum()
    }
}

/// A quantized KMeans classifier: nearest centroid in int8 code space.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedKMeans {
    centroids: Vec<Vec<i8>>,
    params: QuantParams,
}

impl QuantizedKMeans {
    /// Quantizes a float KMeans model; `calibration` sets the shared
    /// input/centroid range.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty.
    pub fn quantize(km: &KMeans, calibration: &[Vec<f32>]) -> Self {
        assert!(!calibration.is_empty(), "need calibration data");
        let mut all: Vec<f32> = calibration.iter().flatten().copied().collect();
        all.extend(km.centroids().iter().flatten().copied());
        let params = QuantParams::from_values(&all);
        let centroids = km
            .centroids()
            .iter()
            .map(|c| c.iter().map(|&v| params.quantize(v)).collect())
            .collect();
        Self { centroids, params }
    }

    /// Shared quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Quantized centroids.
    pub fn centroids(&self) -> &[Vec<i8>] {
        &self.centroids
    }

    /// Quantizes an input vector.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<i8> {
        x.iter().map(|&v| self.params.quantize(v)).collect()
    }

    /// Integer-only prediction from codes (golden model).
    pub fn predict_codes(&self, x: &[i8]) -> usize {
        let mut best = 0usize;
        let mut best_d = i32::MAX;
        for (i, c) in self.centroids.iter().enumerate() {
            let d = sq_dist_codes(x, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Float-convenience prediction.
    pub fn predict(&self, x: &[f32]) -> usize {
        self.predict_codes(&self.quantize_input(x))
    }

    /// Accuracy over a labelled set.
    pub fn accuracy(&self, x: &[Vec<f32>], y: &[usize]) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        x.iter().zip(y).filter(|(xi, &yi)| self.predict(xi) == yi).count() as f64 / x.len() as f64
    }
}

/// A quantized RBF SVM: per-SV distance → requant → exp LUT → weighted sum.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSvm {
    support: Vec<Vec<i8>>,
    alpha: Vec<i8>,
    alpha_params: QuantParams,
    in_params: QuantParams,
    dist_requant: Requantizer,
    dist_params: QuantParams,
    kernel_lut: Lut256,
    kernel_params: QuantParams,
    bias_acc: i32,
}

impl QuantizedSvm {
    /// Quantizes a trained float SVM with calibration inputs.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty.
    pub fn quantize(svm: &Svm, calibration: &[Vec<f32>]) -> Self {
        assert!(!calibration.is_empty(), "need calibration data");
        let mut all: Vec<f32> = calibration.iter().flatten().copied().collect();
        all.extend(svm.support_vectors().iter().flatten().copied());
        let in_params = QuantParams::from_values(&all);

        let support: Vec<Vec<i8>> = svm
            .support_vectors()
            .iter()
            .map(|sv| sv.iter().map(|&v| in_params.quantize(v)).collect())
            .collect();

        // Observe real squared distances on calibration data to size the
        // distance code range.
        let mut dists: Vec<f32> = Vec::new();
        for x in calibration {
            let xq: Vec<i8> = x.iter().map(|&v| in_params.quantize(v)).collect();
            for sv in &support {
                let d_codes = sq_dist_codes(&xq, sv);
                dists.push(d_codes as f32 * in_params.scale * in_params.scale);
            }
        }
        let dist_params = QuantParams::from_values(&dists);
        // acc (code² units) → dist code: real per acc unit = s_in².
        let dist_requant = Requantizer::from_real_multiplier(
            (f64::from(in_params.scale) * f64::from(in_params.scale))
                / f64::from(dist_params.scale),
            dist_params.zero_point,
        );

        // Kernel LUT: dist code → exp(−γ·d) code in [0, 1].
        let kernel_params = QuantParams::from_range(0.0, 1.0);
        let gamma = svm.gamma();
        let kernel_lut = Lut256::from_fn(|code| {
            let d = dist_params.dequantize(code).max(0.0);
            kernel_params.quantize((-gamma * d).exp())
        });

        let alpha_params = QuantParams::symmetric_from_values(svm.alphas());
        let alpha: Vec<i8> = svm.alphas().iter().map(|&a| alpha_params.quantize(a)).collect();
        // Decision accumulates Σ α_q·(k_q − z_k) in units of s_α·s_k;
        // fold the bias into the accumulator in the same units.
        let acc_unit = f64::from(alpha_params.scale) * f64::from(kernel_params.scale);
        let bias_acc = (f64::from(svm.bias()) / acc_unit).round() as i32;

        Self {
            support,
            alpha,
            alpha_params,
            in_params,
            dist_requant,
            dist_params,
            kernel_lut,
            kernel_params,
            bias_acc,
        }
    }

    /// Quantized support vectors.
    pub fn support(&self) -> &[Vec<i8>] {
        &self.support
    }

    /// Quantized coefficients.
    pub fn alphas(&self) -> &[i8] {
        &self.alpha
    }

    /// Distance requantizer (for IR lowering).
    pub fn dist_requant(&self) -> Requantizer {
        self.dist_requant
    }

    /// Kernel LUT (for IR lowering).
    pub fn kernel_lut(&self) -> &Lut256 {
        &self.kernel_lut
    }

    /// Kernel output quantization.
    pub fn kernel_params(&self) -> QuantParams {
        self.kernel_params
    }

    /// Bias in accumulator units (for IR lowering).
    pub fn bias_acc(&self) -> i32 {
        self.bias_acc
    }

    /// Quantizes an input vector.
    pub fn quantize_input(&self, x: &[f32]) -> Vec<i8> {
        x.iter().map(|&v| self.in_params.quantize(v)).collect()
    }

    /// Integer-only decision accumulator (positive ⇒ anomalous). Golden
    /// model for the CGRA.
    pub fn decision_acc(&self, x: &[i8]) -> i32 {
        let z_k = self.kernel_params.zero_point;
        let mut acc = self.bias_acc;
        for (sv, &a) in self.support.iter().zip(&self.alpha) {
            let d = sq_dist_codes(x, sv);
            let d_code = self.dist_requant.apply(d);
            let k_code = self.kernel_lut.eval(d_code);
            acc += i32::from(a) * (i32::from(k_code) - z_k);
        }
        acc
    }

    /// Predicted class from codes (1 = anomalous).
    pub fn predict_codes(&self, x: &[i8]) -> usize {
        usize::from(self.decision_acc(x) > 0)
    }

    /// Float-convenience prediction.
    pub fn predict(&self, x: &[f32]) -> usize {
        self.predict_codes(&self.quantize_input(x))
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
    use crate::mlp::{MlpConfig, TrainParams};
    use crate::svm::SvmConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.5 } else { 1.5 };
            x.push(vec![cx + rng.gen_range(-0.6..0.6), rng.gen_range(-0.6..0.6)]);
            y.push(label);
        }
        (x, y)
    }

    /// `QuantizedMlp::quantize` in its column form: every row's pre- and
    /// post-activations kept per layer, and each range taken from its
    /// column by `QuantParams::from_values`. Kept as the reference the
    /// folded ranges are pinned against.
    fn quantize_from_columns(mlp: &Mlp, calibration: &[Vec<f32>]) -> QuantizedMlp {
        let column = || -> Vec<Vec<f32>> { mlp.layers().iter().map(|_| Vec::new()).collect() };
        let (mut pres, mut posts) = (column(), column());
        for x in calibration {
            let mut h = x.clone();
            for (l, layer) in mlp.layers().iter().enumerate() {
                let (mut pre, mut post) = (vec![0.0; layer.b.len()], vec![0.0; layer.b.len()]);
                layer.forward(&h, &mut pre, &mut post);
                pres[l].extend(&pre);
                posts[l].extend(&post);
                h = post;
            }
        }
        let input_params = QuantParams::from_values(&calibration.concat());
        let mut layers = Vec::new();
        let mut in_params = input_params;
        for (l, layer) in mlp.layers().iter().enumerate() {
            let w_params = QuantParams::symmetric_from_values(layer.w.data());
            let acc_scale = f64::from(in_params.scale) * f64::from(w_params.scale);
            let pre_params = QuantParams::from_values(&pres[l]);
            let out_params = match layer.act {
                Activation::SigmoidExp | Activation::SigmoidPw => QuantParams::from_range(0.0, 1.0),
                Activation::TanhExp | Activation::TanhPw | Activation::Lut => {
                    QuantParams::from_range(-1.0, 1.0)
                }
                _ => QuantParams::from_values(&posts[l]),
            };
            layers.push(QuantizedDense {
                w: layer.w.data().iter().map(|&v| w_params.quantize(v)).collect(),
                rows: layer.w.rows(),
                cols: layer.w.cols(),
                bias: layer.b.iter().map(|&b| (f64::from(b) / acc_scale).round() as i32).collect(),
                in_params,
                pre_params,
                out_params,
                requant: Requantizer::from_real_multiplier(
                    acc_scale / f64::from(pre_params.scale),
                    pre_params.zero_point,
                ),
                act_lut: Lut256::activation(layer.act, pre_params, out_params),
                act: layer.act,
            });
            in_params = out_params;
        }
        QuantizedMlp { layers, head: mlp.head(), input_params }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_quantize_folds_the_ranges_its_columns_held(
            head in 0usize..3,
            hidden in 0usize..5,
            depth in 2usize..5,
            widths in collection::vec(1usize..14, 4),
            rows in 1usize..150,
            specials in 0usize..4,
            seed in any::<u64>(),
        ) {
            // Random models with random biases, and rows in which about
            // one value in `4 / specials` is NaN, ±∞, ±0.0 or huge.
            let head = [OutputHead::Sigmoid, OutputHead::Softmax, OutputHead::Linear][head];
            let hidden = [
                Activation::Relu,
                Activation::LeakyRelu,
                Activation::TanhExp,
                Activation::SigmoidExp,
                Activation::Identity,
            ][hidden];
            let mut layers = widths[..depth - 1].to_vec();
            layers.push(if head == OutputHead::Sigmoid { 1 } else { widths[depth - 1] + 1 });
            let mut rng = StdRng::seed_from_u64(seed);
            let mut weights = Mlp::new(&MlpConfig { layers, hidden, head }, seed).export_weights();
            for b in weights.layers.iter_mut().flat_map(|l| &mut l.b) {
                *b = rng.gen_range(-1.0..1.0);
            }
            let mlp = Mlp::from_weights(&weights);
            let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e30, -1e30];
            let x: Vec<Vec<f32>> = (0..rows)
                .map(|_| {
                    (0..mlp.input_width())
                        .map(|_| {
                            if rng.gen_range(0..4) < specials {
                                special[rng.gen_range(0..special.len())]
                            } else {
                                rng.gen_range(-3.0..3.0)
                            }
                        })
                        .collect()
                })
                .collect();
            // `Debug` prints every field, the sign of a zero scale
            // included: the two must agree to the bit.
            let (got, want) = (QuantizedMlp::quantize(&mlp, &x), quantize_from_columns(&mlp, &x));
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn lut256_round_trip() {
        let lut = Lut256::from_fn(|c| c.saturating_add(1));
        assert_eq!(lut.eval(0), 1);
        assert_eq!(lut.eval(i8::MAX), i8::MAX);
        assert_eq!(lut.entries().len(), 256);
    }

    #[test]
    fn dot_acc_matches_reference() {
        let w = [1i8, -2, 3];
        let x = [10i8, 20, 30];
        // z = 5: Σ w·(x−5) = 1·5 + (−2)·15 + 3·25 = 50.
        assert_eq!(dot_acc(&w, &x, 5), 50);
    }

    #[test]
    fn quantized_mlp_tracks_float_accuracy() {
        let (x, y) = blobs(600, 0);
        let cfg = MlpConfig {
            layers: vec![2, 8, 1],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        let mut mlp = Mlp::new(&cfg, 1);
        mlp.train(&x, &y, &TrainParams { epochs: 30, ..TrainParams::default() });
        let q = QuantizedMlp::quantize(&mlp, &x);
        let float_acc = mlp.accuracy(&x, &y);
        let quant_acc = q.accuracy(&x, &y);
        assert!(float_acc > 0.95, "float {float_acc}");
        assert!((float_acc - quant_acc).abs() < 0.05, "float {float_acc} vs quantized {quant_acc}");
    }

    #[test]
    fn quantized_scores_track_float_scores() {
        let (x, y) = blobs(300, 2);
        let cfg = MlpConfig::anomaly_dnn();
        let mut mlp = Mlp::new(&cfg, 3);
        let wide: Vec<Vec<f32>> = x
            .iter()
            .map(|p| vec![p[0], p[1], p[0] * 0.5, p[1] * 0.5, p[0] + p[1], p[0] - p[1]])
            .collect();
        mlp.train(&wide, &y, &TrainParams { epochs: 15, ..TrainParams::default() });
        let q = QuantizedMlp::quantize(&mlp, &wide);
        let mut max_err = 0.0f32;
        for xi in &wide {
            max_err = max_err.max((mlp.score(xi) - q.score(xi)).abs());
        }
        assert!(max_err < 0.15, "max score error {max_err}");
    }

    #[test]
    fn infer_codes_is_deterministic_and_pure_integer() {
        let (x, y) = blobs(200, 4);
        let cfg = MlpConfig {
            layers: vec![2, 4, 1],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        let mut mlp = Mlp::new(&cfg, 5);
        mlp.train(&x, &y, &TrainParams { epochs: 5, ..TrainParams::default() });
        let q = QuantizedMlp::quantize(&mlp, &x);
        let codes = q.quantize_input(&x[0]);
        assert_eq!(q.infer_codes(&codes), q.infer_codes(&codes));
    }

    #[test]
    fn weight_bytes_is_small() {
        let mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 6);
        let calib = vec![vec![0.5; 6]; 4];
        let q = QuantizedMlp::quantize(&mlp, &calib);
        // 6·12+12·6+6·3+3·1 = 165 weights + 22 biases·4B = 253 B ≪ 5.6 KB.
        assert!(q.weight_bytes() < 5_600, "{} bytes", q.weight_bytes());
        assert!(q.weight_bytes() > 100);
    }

    #[test]
    fn quantized_kmeans_matches_float_predictions() {
        let (x, _) = blobs(400, 7);
        let km = KMeans::fit(&x, 2, 30, 8);
        let q = QuantizedKMeans::quantize(&km, &x);
        let agree = x.iter().filter(|xi| km.predict(xi) == q.predict(xi)).count();
        assert!(agree as f64 / x.len() as f64 > 0.97, "agreement {agree}/400");
    }

    #[test]
    fn quantized_svm_tracks_float_predictions() {
        let (x, y) = blobs(400, 9);
        let svm = Svm::train(&x, &y, &SvmConfig { gamma: 0.8, ..SvmConfig::default() });
        let q = QuantizedSvm::quantize(&svm, &x);
        let agree = x.iter().filter(|xi| svm.predict(xi) == q.predict(xi)).count();
        assert!(agree as f64 / x.len() as f64 > 0.93, "agreement {agree}/400");
    }

    #[test]
    fn sq_dist_codes_known() {
        assert_eq!(sq_dist_codes(&[0, 3], &[4, 0]), 25);
        assert_eq!(sq_dist_codes(&[-128], &[127]), 255 * 255);
    }
}
