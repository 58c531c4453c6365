//! LSTM sequence classifier with truncated BPTT.
//!
//! Table 5's largest model is Indigo (Yan et al. 2018): an online
//! congestion-control policy using "32 LSTM units followed by a softmax
//! layer", designed for an end-host NIC. In software it produces a
//! decision every 10 ms; on Taurus it produces one every 805 ns. This
//! module implements the full cell — gates, state, and backpropagation
//! through time — so the congestion-control example can actually be
//! trained, then lowered to the int8 datapath.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::linalg::{argmax, softmax, Matrix};

/// LSTM architecture description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LstmConfig {
    /// Input feature width per step.
    pub input: usize,
    /// Hidden-state width (the paper's Indigo uses 32).
    pub hidden: usize,
    /// Output classes of the softmax head (Indigo's action space).
    pub classes: usize,
}

impl LstmConfig {
    /// The Indigo shape: 16 input features, 32 LSTM units, 5 cwnd actions.
    pub fn indigo() -> Self {
        Self { input: 16, hidden: 32, classes: 5 }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Gate activations for one step (cached for BPTT).
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    o: Vec<f32>,
    g: Vec<f32>,
    c: Vec<f32>,
    c_prev: Vec<f32>,
    h_prev: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// An LSTM with a softmax classification head on the final hidden state.
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    /// Input weights, `4·hidden × input`, gate order `[i, f, o, g]`.
    wx: Matrix,
    /// Recurrent weights, `4·hidden × hidden`.
    wh: Matrix,
    /// Gate biases, length `4·hidden` (forget biases start at 1).
    b: Vec<f32>,
    /// Head weights, `classes × hidden`.
    why: Matrix,
    /// Head biases.
    by: Vec<f32>,
    config: LstmConfig,
}

impl Lstm {
    /// Creates a randomly initialized LSTM.
    ///
    /// # Panics
    ///
    /// Panics if any config dimension is zero.
    pub fn new(config: &LstmConfig, seed: u64) -> Self {
        assert!(
            config.input > 0 && config.hidden > 0 && config.classes > 0,
            "all dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let h = config.hidden;
        let mut b = vec![0.0f32; 4 * h];
        // Forget-gate bias of 1.0: the standard trick for gradient flow.
        for bias in b.iter_mut().skip(h).take(h) {
            *bias = 1.0;
        }
        Self {
            wx: Matrix::xavier(4 * h, config.input, &mut rng),
            wh: Matrix::xavier(4 * h, h, &mut rng),
            b,
            why: Matrix::xavier(config.classes, h, &mut rng),
            by: vec![0.0; config.classes],
            config: *config,
        }
    }

    /// The architecture.
    pub fn config(&self) -> LstmConfig {
        self.config
    }

    /// Weight accessors for lowering: `(wx, wh, b, why, by)`.
    pub fn weights(&self) -> (&Matrix, &Matrix, &[f32], &Matrix, &[f32]) {
        (&self.wx, &self.wh, &self.b, &self.why, &self.by)
    }

    fn step(&self, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> StepCache {
        let hidden = self.config.hidden;
        let mut gates = self.wx.matvec(x);
        let rec = self.wh.matvec(h_prev);
        for ((gv, &rv), &bv) in gates.iter_mut().zip(&rec).zip(&self.b) {
            *gv += rv + bv;
        }
        let i: Vec<f32> = gates[0..hidden].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f32> = gates[hidden..2 * hidden].iter().map(|&v| sigmoid(v)).collect();
        let o: Vec<f32> = gates[2 * hidden..3 * hidden].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f32> = gates[3 * hidden..4 * hidden].iter().map(|&v| v.tanh()).collect();
        let c: Vec<f32> = (0..hidden).map(|k| f[k] * c_prev[k] + i[k] * g[k]).collect();
        let tanh_c: Vec<f32> = c.iter().map(|&v| v.tanh()).collect();
        StepCache {
            x: x.to_vec(),
            i,
            f,
            o,
            g,
            c,
            c_prev: c_prev.to_vec(),
            h_prev: h_prev.to_vec(),
            tanh_c,
        }
    }

    /// Runs the sequence and returns `(hidden states per step, final h)`.
    fn run(&self, seq: &[Vec<f32>]) -> (Vec<StepCache>, Vec<f32>) {
        let hidden = self.config.hidden;
        let mut h = vec![0.0f32; hidden];
        let mut c = vec![0.0f32; hidden];
        let mut caches = Vec::with_capacity(seq.len());
        for x in seq {
            let cache = self.step(x, &h, &c);
            h = (0..hidden).map(|k| cache.o[k] * cache.tanh_c[k]).collect();
            c = cache.c.clone();
            caches.push(cache);
        }
        (caches, h)
    }

    /// Class probabilities for a sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or a step has the wrong width.
    pub fn forward(&self, seq: &[Vec<f32>]) -> Vec<f32> {
        assert!(!seq.is_empty(), "empty sequence");
        assert!(seq.iter().all(|x| x.len() == self.config.input), "bad step width");
        let (_, h) = self.run(seq);
        let mut logits = self.why.matvec(&h);
        for (l, &bias) in logits.iter_mut().zip(&self.by) {
            *l += bias;
        }
        softmax(&logits)
    }

    /// Predicted class for a sequence.
    pub fn predict(&self, seq: &[Vec<f32>]) -> usize {
        argmax(&self.forward(seq))
    }

    /// Trains with full BPTT over each sequence; returns final-epoch mean
    /// loss.
    ///
    /// # Panics
    ///
    /// Panics on empty data or mismatched lengths.
    pub fn train(
        &mut self,
        seqs: &[Vec<Vec<f32>>],
        labels: &[usize],
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> f32 {
        assert_eq!(seqs.len(), labels.len(), "sequence/label length mismatch");
        assert!(!seqs.is_empty(), "cannot train on empty data");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        let mut last = 0.0;
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            last = 0.0;
            for &idx in &order {
                last += self.train_one(&seqs[idx], labels[idx], lr);
            }
            last /= seqs.len() as f32;
        }
        last
    }

    fn train_one(&mut self, seq: &[Vec<f32>], label: usize, lr: f32) -> f32 {
        let hidden = self.config.hidden;
        let (caches, h_final) = self.run(seq);

        let mut logits = self.why.matvec(&h_final);
        for (l, &bias) in logits.iter_mut().zip(&self.by) {
            *l += bias;
        }
        let p = softmax(&logits);
        let loss = -(p[label].max(1e-9)).ln();

        // Head gradients.
        let mut d_logits = p;
        d_logits[label] -= 1.0;
        let mut g_why = Matrix::zeros(self.config.classes, hidden);
        let mut g_by = vec![0.0f32; self.config.classes];
        let mut dh = vec![0.0f32; hidden];
        for (cls, &dl) in d_logits.iter().enumerate() {
            g_by[cls] += dl;
            for k in 0..hidden {
                *g_why.get_mut(cls, k) += dl * h_final[k];
                dh[k] += dl * self.why.get(cls, k);
            }
        }

        // BPTT.
        let mut g_wx = Matrix::zeros(4 * hidden, self.config.input);
        let mut g_wh = Matrix::zeros(4 * hidden, hidden);
        let mut g_b = vec![0.0f32; 4 * hidden];
        let mut dc = vec![0.0f32; hidden];
        for cache in caches.iter().rev() {
            // dh -> gates.
            let mut d_gates = vec![0.0f32; 4 * hidden]; // [di, df, do, dg] pre-activation
            for k in 0..hidden {
                let do_ = dh[k] * cache.tanh_c[k];
                let dtanh_c = dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
                let dck = dc[k] + dtanh_c;
                let di = dck * cache.g[k];
                let df = dck * cache.c_prev[k];
                let dg = dck * cache.i[k];
                d_gates[k] = di * cache.i[k] * (1.0 - cache.i[k]);
                d_gates[hidden + k] = df * cache.f[k] * (1.0 - cache.f[k]);
                d_gates[2 * hidden + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
                d_gates[3 * hidden + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
                dc[k] = dck * cache.f[k];
            }
            // Accumulate weight grads; propagate to h_prev.
            let mut dh_prev = vec![0.0f32; hidden];
            for (row, &dgate) in d_gates.iter().enumerate() {
                g_b[row] += dgate;
                for (j, &xj) in cache.x.iter().enumerate() {
                    *g_wx.get_mut(row, j) += dgate * xj;
                }
                for (k, &hk) in cache.h_prev.iter().enumerate() {
                    *g_wh.get_mut(row, k) += dgate * hk;
                    dh_prev[k] += dgate * self.wh.get(row, k);
                }
            }
            dh = dh_prev;
        }

        // Clipped SGD step (LSTMs explode without clipping).
        let clip = |m: &mut Matrix| {
            for v in m.data_mut() {
                *v = v.clamp(-5.0, 5.0);
            }
        };
        self.wx.add_scaled(&g_wx, -lr);
        self.wh.add_scaled(&g_wh, -lr);
        self.why.add_scaled(&g_why, -lr);
        clip(&mut self.wx);
        clip(&mut self.wh);
        clip(&mut self.why);
        for (b, g) in self.b.iter_mut().zip(&g_b) {
            *b -= lr * g;
        }
        for (b, g) in self.by.iter_mut().zip(&g_by) {
            *b -= lr * g;
        }
        loss
    }

    /// Accuracy over labelled sequences.
    pub fn accuracy(&self, seqs: &[Vec<Vec<f32>>], labels: &[usize]) -> f64 {
        if seqs.is_empty() {
            return 0.0;
        }
        seqs.iter().zip(labels).filter(|(s, &l)| self.predict(s) == l).count() as f64
            / seqs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Temporal task: classify the *sign of the running sum* of a noisy
    /// sequence — requires integrating over time.
    fn make_task(n: usize, len: usize, seed: u64) -> (Vec<Vec<Vec<f32>>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let bias = if i % 2 == 0 { 0.3 } else { -0.3 };
            let seq: Vec<Vec<f32>> =
                (0..len).map(|_| vec![bias + rng.gen_range(-1.0..1.0f32)]).collect();
            seqs.push(seq);
            labels.push(usize::from(i % 2 == 0));
        }
        (seqs, labels)
    }

    #[test]
    fn learns_temporal_sign_task() {
        let (seqs, labels) = make_task(200, 8, 0);
        let mut lstm = Lstm::new(&LstmConfig { input: 1, hidden: 8, classes: 2 }, 1);
        lstm.train(&seqs, &labels, 12, 0.05, 2);
        let acc = lstm.accuracy(&seqs, &labels);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn forward_is_probability() {
        let lstm = Lstm::new(&LstmConfig::indigo(), 3);
        let seq = vec![vec![0.1; 16]; 4];
        let p = lstm.forward(&seq);
        assert_eq!(p.len(), 5);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic_under_seed() {
        let (seqs, labels) = make_task(50, 5, 4);
        let mut a = Lstm::new(&LstmConfig { input: 1, hidden: 4, classes: 2 }, 5);
        let mut b = Lstm::new(&LstmConfig { input: 1, hidden: 4, classes: 2 }, 5);
        a.train(&seqs, &labels, 3, 0.05, 6);
        b.train(&seqs, &labels, 3, 0.05, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn indigo_shape() {
        let lstm = Lstm::new(&LstmConfig::indigo(), 0);
        let (wx, wh, b, why, by) = lstm.weights();
        assert_eq!((wx.rows(), wx.cols()), (128, 16));
        assert_eq!((wh.rows(), wh.cols()), (128, 32));
        assert_eq!(b.len(), 128);
        assert_eq!((why.rows(), why.cols()), (5, 32));
        assert_eq!(by.len(), 5);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn rejects_empty_sequence() {
        let lstm = Lstm::new(&LstmConfig { input: 1, hidden: 2, classes: 2 }, 0);
        let _ = lstm.forward(&[]);
    }
}
