//! From-scratch ML models, training, and int8 quantization for Taurus.
//!
//! The paper evaluates four model families on the MapReduce block
//! (§5.1.2): a KMeans IoT traffic classifier, an RBF-kernel SVM and a
//! small DNN for anomaly detection, and an LSTM congestion controller
//! (Indigo). All are implemented here from scratch — training included —
//! because the reproduction needs to *train* models (Table 3's
//! quantization study, §5.2.3's online training) and then lower them onto
//! an 8-bit integer datapath.
//!
//! - [`linalg`]: minimal dense matrix/vector kernels.
//! - [`mlp`]: multilayer perceptrons with SGD + momentum, softmax/CE and
//!   sigmoid/BCE heads. Training validates its rows up front, then
//!   allocates once per call, not per sample, and stays bit-identical to
//!   a plain per-sample loop.
//! - [`svm`]: budgeted kernelized (RBF) SVM trained with Pegasos-style
//!   subgradient descent.
//! - [`kmeans`]: k-means++ initialization + Lloyd iterations.
//! - [`lstm`]: a full LSTM cell with truncated BPTT, for the Indigo-like
//!   congestion-control workload.
//! - [`metrics`]: accuracy, precision/recall/F1, confusion matrices.
//! - [`quantized`]: post-training int8 quantization with integer-only
//!   inference — the golden model the CGRA simulator must match
//!   bit-for-bit.

pub mod kmeans;
pub mod linalg;
pub mod lstm;
pub mod metrics;
pub mod mlp;
pub mod quantized;
pub mod svm;
pub mod weights;

pub use kmeans::KMeans;
pub use linalg::Matrix;
pub use lstm::{Lstm, LstmConfig};
pub use metrics::{BinaryMetrics, ConfusionMatrix};
pub use mlp::{Mlp, MlpConfig, TrainParams};
pub use quantized::{QuantizedKMeans, QuantizedMlp, QuantizedSvm};
pub use svm::{Svm, SvmConfig};
pub use weights::{LayerWeights, MlpWeights, WeightShapeError};
