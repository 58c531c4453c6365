//! Portable MLP weight snapshots: the unit of a live model update.
//!
//! §5.2.3's operational claim is that the control plane retrains the
//! data-plane model online and installs new weights at flow-rule
//! latency. The artifact that crosses the control→data boundary is not
//! a model object but its *parameters*: this module defines that
//! artifact ([`MlpWeights`]) as a plain, owned value that can be
//! exported from a training-side [`Mlp`](crate::Mlp), shipped to a
//! switch, and either imported into another float model or requantized
//! into a fresh int8 deployment pipeline
//! ([`QuantizedMlp::quantize`](crate::QuantizedMlp::quantize)).

use taurus_fixed::Activation;

use crate::mlp::OutputHead;

/// One dense layer's parameters, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Output count.
    pub rows: usize,
    /// Input count.
    pub cols: usize,
    /// Row-major weight values, length `rows × cols`.
    pub w: Vec<f32>,
    /// Bias values, length `rows`.
    pub b: Vec<f32>,
    /// The activation this layer applies.
    pub act: Activation,
}

/// A complete, architecture-tagged snapshot of an MLP's parameters —
/// what `ModelUpdate` carries across the control/data-plane boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpWeights {
    /// Per-layer parameters, input side first.
    pub layers: Vec<LayerWeights>,
    /// The output head the parameters were trained under.
    pub head: OutputHead,
}

impl MlpWeights {
    /// Layer widths, input first (e.g. `[6, 12, 6, 3, 1]`).
    pub fn shape(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.layers.first().map(|l| l.cols).into_iter().collect();
        s.extend(self.layers.iter().map(|l| l.rows));
        s
    }

    /// Total trainable parameter count (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Mean absolute parameter difference against another snapshot of
    /// the same shape (0 for identical weights) — a cheap "did training
    /// move the model" probe for tests and telemetry.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mean_abs_diff(&self, other: &MlpWeights) -> f32 {
        assert_eq!(self.shape(), other.shape(), "weight snapshots have different shapes");
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for (a, b) in self.layers.iter().zip(&other.layers) {
            for (x, y) in a.w.iter().zip(&b.w).chain(a.b.iter().zip(&b.b)) {
                sum += f64::from((x - y).abs());
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64) as f32
        }
    }
}

/// Why a weight snapshot could not be imported into a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightShapeError {
    /// Layer counts differ.
    LayerCount {
        /// Layers in the receiving model.
        expected: usize,
        /// Layers in the snapshot.
        got: usize,
    },
    /// A layer's dimensions differ.
    LayerDims {
        /// Index of the first mismatching layer.
        layer: usize,
        /// `(rows, cols)` of the receiving model's layer.
        expected: (usize, usize),
        /// `(rows, cols)` of the snapshot's layer.
        got: (usize, usize),
    },
    /// The snapshot's internal lengths are inconsistent with its own
    /// declared dimensions (a corrupt or hand-built snapshot).
    Malformed {
        /// Index of the malformed layer.
        layer: usize,
    },
    /// The activation or output head differs — importing would silently
    /// change the model's function class, not just its parameters.
    FunctionMismatch {
        /// Index of the mismatching layer, or `layers.len()` for the
        /// output head.
        layer: usize,
    },
}

impl core::fmt::Display for WeightShapeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WeightShapeError::LayerCount { expected, got } => {
                write!(f, "weight snapshot has {got} layers, model has {expected}")
            }
            WeightShapeError::LayerDims { layer, expected, got } => write!(
                f,
                "layer {layer} shape mismatch: model is {}x{}, snapshot is {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            WeightShapeError::Malformed { layer } => {
                write!(f, "layer {layer} value lengths disagree with its declared dimensions")
            }
            WeightShapeError::FunctionMismatch { layer } => write!(
                f,
                "layer {layer} activation (or the output head) differs; weights can only be \
                 imported into the same architecture"
            ),
        }
    }
}

impl std::error::Error for WeightShapeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Mlp, MlpConfig, TrainParams};
    use crate::quantized::QuantizedMlp;

    fn cfg() -> MlpConfig {
        MlpConfig { layers: vec![2, 4, 1], hidden: Activation::Relu, head: OutputHead::Sigmoid }
    }

    fn blobs(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.4 } else { 1.4 };
            x.push(vec![cx + rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn export_round_trips_through_import() {
        let (x, y) = blobs(200);
        let mut trained = Mlp::new(&cfg(), 1);
        trained.train(&x, &y, &TrainParams { epochs: 10, ..TrainParams::default() });
        let snapshot = trained.export_weights();
        assert_eq!(snapshot.shape(), vec![2, 4, 1]);
        assert_eq!(snapshot.parameter_count(), 2 * 4 + 4 + 4 + 1);

        let mut fresh = Mlp::new(&cfg(), 2);
        assert_ne!(fresh.forward(&x[0]), trained.forward(&x[0]));
        fresh.import_weights(&snapshot).expect("same architecture");
        for xi in x.iter().take(20) {
            assert_eq!(fresh.forward(xi), trained.forward(xi), "bit-identical after import");
        }
    }

    #[test]
    fn from_weights_reconstructs_the_model() {
        let (x, y) = blobs(150);
        let mut trained = Mlp::new(&cfg(), 3);
        trained.train(&x, &y, &TrainParams { epochs: 8, ..TrainParams::default() });
        let rebuilt = Mlp::from_weights(&trained.export_weights());
        for xi in x.iter().take(20) {
            assert_eq!(rebuilt.forward(xi), trained.forward(xi));
        }
        assert_eq!(rebuilt.export_weights(), trained.export_weights());
    }

    #[test]
    fn quantized_path_is_weight_faithful() {
        // The deployment path: exported weights → fresh float model →
        // int8 quantization must equal quantizing the original model.
        let (x, y) = blobs(300);
        let mut trained = Mlp::new(&cfg(), 4);
        trained.train(&x, &y, &TrainParams { epochs: 12, ..TrainParams::default() });
        let direct = QuantizedMlp::quantize(&trained, &x);
        let via_weights = QuantizedMlp::quantize(&Mlp::from_weights(&trained.export_weights()), &x);
        let codes = direct.quantize_input(&x[0]);
        assert_eq!(direct.infer_codes(&codes), via_weights.infer_codes(&codes));
        assert_eq!(direct.output_params(), via_weights.output_params());
    }

    #[test]
    fn import_rejects_shape_and_function_mismatches() {
        let mut model = Mlp::new(&cfg(), 5);
        let other = Mlp::new(
            &MlpConfig {
                layers: vec![2, 6, 1],
                hidden: Activation::Relu,
                head: OutputHead::Sigmoid,
            },
            5,
        );
        let err = model.import_weights(&other.export_weights()).unwrap_err();
        assert_eq!(err, WeightShapeError::LayerDims { layer: 0, expected: (4, 2), got: (6, 2) });

        let deeper = Mlp::new(&MlpConfig::anomaly_dnn(), 5);
        let err = model.import_weights(&deeper.export_weights()).unwrap_err();
        assert_eq!(err, WeightShapeError::LayerCount { expected: 2, got: 4 });

        let mut tanh_snapshot = model.export_weights();
        tanh_snapshot.layers[0].act = Activation::TanhExp;
        let err = model.import_weights(&tanh_snapshot).unwrap_err();
        assert_eq!(err, WeightShapeError::FunctionMismatch { layer: 0 });

        let mut corrupt = model.export_weights();
        corrupt.layers[0].w.pop();
        let err = model.import_weights(&corrupt).unwrap_err();
        assert_eq!(err, WeightShapeError::Malformed { layer: 0 });

        assert!(err.to_string().contains("layer 0"), "{err}");
    }

    #[test]
    fn mean_abs_diff_sees_training_move_the_model() {
        let (x, y) = blobs(200);
        let mut model = Mlp::new(&cfg(), 6);
        let before = model.export_weights();
        assert_eq!(before.mean_abs_diff(&before), 0.0);
        model.train(&x, &y, &TrainParams { epochs: 5, ..TrainParams::default() });
        assert!(before.mean_abs_diff(&model.export_weights()) > 0.0);
    }
}
