//! Frontends: lowering quantized ML models to MapReduce IR.
//!
//! Fig. 5 of the paper: "ML applications map to models and simpler
//! primitives, which compile to MapReduce." Each function here turns a
//! trained, quantized model into the [`Graph`] the compiler places on the
//! grid. The DNN / KMeans / SVM lowerings are *exact*: the IR interpreter
//! (and therefore the CGRA simulator) reproduces the integer golden
//! models in `taurus-ml::quantized` bit for bit — enforced by the tests
//! at the bottom of this module and by cross-crate integration tests.

use taurus_fixed::quant::{QuantParams, Requantizer};
use taurus_ir::{Graph, GraphBuilder, MapOp, NodeId, ReduceOp};
use taurus_ml::lstm::Lstm;
use taurus_ml::quantized::{Lut256, QuantizedKMeans, QuantizedMlp, QuantizedSvm};

/// Lowers a quantized MLP. Output lanes are the final layer's activation
/// codes (one per output unit) — identical to
/// [`QuantizedMlp::infer_codes`].
pub fn mlp_to_graph(q: &QuantizedMlp) -> Graph {
    let mut b = GraphBuilder::new();
    let input_width = q.layers().first().expect("mlp has layers").cols;
    let mut h = b.input(input_width);
    for (l, layer) in q.layers().iter().enumerate() {
        let w = b.weights(format!("l{l}.w"), layer.rows, layer.cols, layer.w.clone());
        let dot = b.map_reduce_rows(w, h, layer.in_params.zero_point);
        let biased = b.add_bias(dot, layer.bias.clone());
        let pre = b.requant(biased, layer.requant);
        let lut = b.lut(layer.act_lut.entries().to_vec());
        h = b.lookup(pre, lut);
    }
    b.output(h);
    b.finish().expect("mlp lowering is structurally valid")
}

/// Lowers a quantized KMeans classifier. The single output lane is the
/// nearest-centroid index — identical to
/// [`QuantizedKMeans::predict_codes`].
pub fn kmeans_to_graph(q: &QuantizedKMeans) -> Graph {
    let mut b = GraphBuilder::new();
    let k = q.centroids().len();
    let dim = q.centroids().first().expect("kmeans has centroids").len();
    let x = b.input(dim);
    let data: Vec<i8> = q.centroids().iter().flatten().copied().collect();
    let c = b.weights("centroids", k, dim, data);
    let dists = b.sq_dist_rows(c, x);
    let nearest = b.reduce(ReduceOp::ArgMin, dists);
    b.output(nearest);
    b.finish().expect("kmeans lowering is structurally valid")
}

/// Lowers a quantized RBF SVM. The single output lane is 1 for anomalous
/// (decision accumulator > 0) — identical to
/// [`QuantizedSvm::predict_codes`].
pub fn svm_to_graph(q: &QuantizedSvm) -> Graph {
    let mut b = GraphBuilder::new();
    let n_sv = q.support().len();
    let dim = q.support().first().expect("svm has support vectors").len();
    let x = b.input(dim);
    let sv_data: Vec<i8> = q.support().iter().flatten().copied().collect();
    let sv = b.weights("support", n_sv, dim, sv_data);
    let dists = b.sq_dist_rows(sv, x);
    let d_codes = b.requant(dists, q.dist_requant());
    let k_lut = b.lut(q.kernel_lut().entries().to_vec());
    let k_codes = b.lookup(d_codes, k_lut);
    let alpha = b.weights("alpha", 1, n_sv, q.alphas().to_vec());
    let acc = b.map_reduce_rows(alpha, k_codes, q.kernel_params().zero_point);
    let biased = b.add_bias(acc, vec![q.bias_acc()]);
    let decision = b.greater_zero(biased);
    b.output(decision);
    b.finish().expect("svm lowering is structurally valid")
}

/// Lowers one recurrence *step* of an LSTM plus its softmax head, with
/// `history` serial steps per packet (the Indigo decision window).
///
/// All values share one symmetric quantization (±`range`); the recurrent
/// dynamics are therefore approximate — this frontend exists for the
/// Table 5 latency/area/power experiments, where the paper's own LSTM
/// runs below line rate (`sequence_steps` forces the serialization).
/// The output lane is the argmax action index.
pub fn lstm_to_graph(lstm: &Lstm, history: usize, range: f32) -> Graph {
    let cfg = lstm.config();
    let (wx, wh, bias, why, by) = lstm.weights();
    let params = QuantParams::symmetric(range);
    let qw = |v: f32| params.quantize(v);
    let hidden = cfg.hidden;

    // Per-code product rescale: value(a)·value(b) = s²·qa·qb ⇒ multiply
    // accumulators by s to return to code units.
    let prod_requant =
        Requantizer::from_real_multiplier(f64::from(params.scale), params.zero_point);
    // Gate pre-activations accumulate s·s_w·Σ...; with the shared scale the
    // rescale factor is again `scale`.
    let gate_requant = prod_requant;

    let sigmoid_lut = Lut256::from_fn(|c| {
        let x = params.dequantize(c);
        params.quantize(1.0 / (1.0 + (-x).exp()) * range.min(1.0))
    });
    let tanh_lut = Lut256::from_fn(|c| {
        let x = params.dequantize(c);
        params.quantize(x.tanh() * range.min(1.0))
    });

    let mut b = GraphBuilder::new();
    let x = b.input(cfg.input);
    let h_state = b.state("h", hidden);
    let c_state = b.state("c", hidden);
    let h_prev = b.state_read(h_state);
    let c_prev = b.state_read(c_state);
    let xh = b.concat(vec![x, h_prev]);

    // Gate matrix [Wx | Wh], 4·hidden × (input + hidden).
    let mut gate_w: Vec<i8> = Vec::with_capacity(4 * hidden * (cfg.input + hidden));
    for r in 0..4 * hidden {
        for c in 0..cfg.input {
            gate_w.push(qw(wx.get(r, c)));
        }
        for c in 0..hidden {
            gate_w.push(qw(wh.get(r, c)));
        }
    }
    let gw = b.weights("gates", 4 * hidden, cfg.input + hidden, gate_w);
    let acc = b.map_reduce_rows(gw, xh, params.zero_point);
    let bias_q: Vec<i32> =
        bias.iter().map(|&v| (v / (params.scale * params.scale)).round() as i32).collect();
    let biased = b.add_bias(acc, bias_q);
    let gates_pre = b.requant(biased, gate_requant);

    let s_lut = b.lut(sigmoid_lut.entries().to_vec());
    let t_lut = b.lut(tanh_lut.entries().to_vec());
    let i_pre = b.slice(gates_pre, 0, hidden);
    let f_pre = b.slice(gates_pre, hidden, hidden);
    let o_pre = b.slice(gates_pre, 2 * hidden, hidden);
    let g_pre = b.slice(gates_pre, 3 * hidden, hidden);
    let i_gate = b.lookup(i_pre, s_lut);
    let f_gate = b.lookup(f_pre, s_lut);
    let o_gate = b.lookup(o_pre, s_lut);
    let g_gate = b.lookup(g_pre, t_lut);

    // c' = f⊙c + i⊙g (code-space products rescaled back to codes).
    let mul_requant = |b: &mut GraphBuilder, a: NodeId, c: NodeId| {
        let m = b.map(MapOp::Mul, a, c);
        b.requant(m, prod_requant)
    };
    let fc = mul_requant(&mut b, f_gate, c_prev);
    let ig = mul_requant(&mut b, i_gate, g_gate);
    let c_sum = b.map(MapOp::Add, fc, ig);
    let c_lo = b.map_const(MapOp::Max, c_sum, vec![-128]);
    let c_new = b.map_const(MapOp::Min, c_lo, vec![127]);
    let c_wr = b.state_write(c_state, c_new);

    // h' = o ⊙ tanh(c').
    let tanh_c = b.lookup(c_wr, t_lut);
    let h_new = mul_requant(&mut b, o_gate, tanh_c);
    let h_wr = b.state_write(h_state, h_new);

    // Softmax head: argmax of logits = argmax of integer accumulators.
    let mut head_w: Vec<i8> = Vec::with_capacity(cfg.classes * hidden);
    for r in 0..cfg.classes {
        for c in 0..hidden {
            head_w.push(qw(why.get(r, c)));
        }
    }
    let hw = b.weights("head", cfg.classes, hidden, head_w);
    let logits = b.map_reduce_rows(hw, h_wr, params.zero_point);
    let by_q: Vec<i32> =
        by.iter().map(|&v| (v / (params.scale * params.scale)).round() as i32).collect();
    let logits_b = b.add_bias(logits, by_q);
    let action = b.reduce(ReduceOp::ArgMax, logits_b);
    b.output(action);
    b.sequence_steps(history);
    b.finish().expect("lstm lowering is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use taurus_fixed::Activation;
    use taurus_ir::Interpreter;
    use taurus_ml::lstm::LstmConfig;
    use taurus_ml::mlp::{Mlp, MlpConfig, OutputHead, TrainParams};
    use taurus_ml::svm::{Svm, SvmConfig};
    use taurus_ml::{KMeans, Rows};

    fn blobs(n: usize, seed: u64) -> (Rows, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.5 } else { 1.5 };
            x.push([cx + rng.gen_range(-0.6..0.6), rng.gen_range(-0.6..0.6)]);
            y.push(label);
        }
        (x.into_iter().collect(), y)
    }

    #[test]
    fn mlp_graph_matches_golden_model_bit_for_bit() {
        let (x, y) = blobs(300, 0);
        let cfg = MlpConfig {
            layers: vec![2, 8, 4, 1],
            hidden: Activation::Relu,
            head: OutputHead::Sigmoid,
        };
        let mut mlp = Mlp::new(&cfg, 1);
        mlp.train(&x, &y, &TrainParams { epochs: 10, ..TrainParams::default() });
        let q = QuantizedMlp::quantize(&mlp, &x);
        let g = mlp_to_graph(&q);
        let mut interp = Interpreter::new(&g);
        for xi in x.iter().take(100) {
            let codes = q.quantize_input(xi);
            let golden: Vec<i32> = q.infer_codes(&codes).iter().map(|&c| i32::from(c)).collect();
            let input: Vec<i32> = codes.iter().map(|&c| i32::from(c)).collect();
            let got = interp.run_flat(&input);
            assert_eq!(got, golden, "input {xi:?}");
        }
    }

    #[test]
    fn kmeans_graph_matches_golden_model() {
        let (x, _) = blobs(200, 2);
        let km = KMeans::fit(&x, 3, 20, 3);
        let q = QuantizedKMeans::quantize(&km, &x);
        let g = kmeans_to_graph(&q);
        let mut interp = Interpreter::new(&g);
        for xi in &x {
            let codes = q.quantize_input(xi);
            let input: Vec<i32> = codes.iter().map(|&c| i32::from(c)).collect();
            let got = interp.run_flat(&input)[0] as usize;
            assert_eq!(got, q.predict_codes(&codes), "input {xi:?}");
        }
    }

    #[test]
    fn svm_graph_matches_golden_model() {
        let (x, y) = blobs(300, 4);
        let svm = Svm::train(&x, &y, &SvmConfig { gamma: 0.8, ..SvmConfig::default() });
        let q = QuantizedSvm::quantize(&svm, &x);
        let g = svm_to_graph(&q);
        let mut interp = Interpreter::new(&g);
        for xi in &x {
            let codes = q.quantize_input(xi);
            let input: Vec<i32> = codes.iter().map(|&c| i32::from(c)).collect();
            let got = interp.run_flat(&input)[0] as usize;
            assert_eq!(got, q.predict_codes(&codes), "input {xi:?}");
        }
    }

    #[test]
    fn lstm_graph_runs_and_keeps_state() {
        let lstm = Lstm::new(&LstmConfig { input: 4, hidden: 8, classes: 3 }, 5);
        let g = lstm_to_graph(&lstm, 4, 4.0);
        assert_eq!(g.sequence_steps(), 4);
        assert_eq!(g.states().len(), 2);
        let mut interp = Interpreter::new(&g);
        let out = interp.run_flat(&[20, -10, 5, 0]);
        assert_eq!(out.len(), 1);
        assert!((0..3).contains(&(out[0] as usize)));
        // State persisted across the call.
        assert!(interp.state().iter().any(|s| s.iter().any(|&v| v != 0)));
    }

    #[test]
    fn indigo_lstm_graph_validates() {
        let lstm = Lstm::new(&LstmConfig::indigo(), 6);
        let g = lstm_to_graph(&lstm, 16, 4.0);
        assert!(g.validate().is_ok());
        assert_eq!(g.sequence_steps(), 16);
    }
}
