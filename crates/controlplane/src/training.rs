//! Online training of the data-plane model (§5.2.3, Figs. 13 & 14).
//!
//! The control plane streams sampled telemetry into an SGD loop and
//! pushes weight updates to the switch; the experiment measures how the
//! *deployed* model's F1 improves over (virtual) time. Virtual time
//! advances from three sources:
//!
//! 1. waiting for samples — at sampling rate `s` over a `pkt_rate`
//!    packet stream, collecting a buffer of `b` samples takes
//!    `b / (s · pkt_rate)` seconds (why higher sampling converges
//!    faster, Fig. 13);
//! 2. training time — `epochs × ⌈buffer/batch⌉ × per-batch cost`
//!    (why 10-epoch/64-batch configurations pay more per update but
//!    converge in fewer updates, Fig. 14);
//! 3. weight installation — one flow-rule-install-sized delay per
//!    update, the paper's stated estimate for model updates.
//!
//! Training itself is *real*: actual `taurus-ml` SGD on the sampled
//! stream, evaluated on a held-out set after every update.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taurus_ml::{BinaryMetrics, Mlp, Rows};

/// Derives the RNG seed for one update round with a SplitMix64 step:
/// `mix(seed + (round + 1) · φ64)`.
///
/// The obvious `seed ^ round` derivation has a structural collision —
/// `(seed, round)` and `(seed ^ k, round ^ k)` draw identical sample
/// buffers, so e.g. (seed 0, round 1) and (seed 1, round 0) were not
/// independent across supposedly independent runs. SplitMix64's
/// avalanche mixing removes the algebraic relationship between nearby
/// `(seed, round)` pairs.
pub fn derive_round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed.wrapping_add(round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One point of a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Virtual time since training began, seconds.
    pub time_s: f64,
    /// Deployed-model F1 (×100) on the held-out set.
    pub f1_percent: f64,
}

/// Configuration for one online-training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRunConfig {
    /// Telemetry sampling probability (Fig. 13's axis).
    pub sampling_rate: f64,
    /// Offered packet rate, packets/second (5 Gb/s ≈ 780 kpps).
    pub pkt_rate: f64,
    /// Samples accumulated per update round.
    pub buffer_size: usize,
    /// SGD minibatch size (Fig. 14's axis).
    pub batch_size: usize,
    /// Epochs over the buffer per update round (Fig. 14's axis).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Modeled training cost per minibatch, ms.
    pub train_ms_per_batch: f64,
    /// Weight-installation latency per update, ms (flow-rule estimate).
    pub install_ms: f64,
    /// Number of update rounds to simulate.
    pub rounds: usize,
    /// RNG seed for sample draws.
    pub seed: u64,
}

impl Default for TrainingRunConfig {
    fn default() -> Self {
        Self {
            sampling_rate: 1e-3,
            pkt_rate: 780_000.0,
            buffer_size: 256,
            batch_size: 64,
            epochs: 1,
            lr: 0.05,
            train_ms_per_batch: 0.8,
            install_ms: 3.0,
            rounds: 30,
            seed: 7,
        }
    }
}

impl TrainingRunConfig {
    /// SGD hyper-parameters for update round `round`: the configured
    /// rate/batch/epochs with a per-round seed ([`derive_round_seed`]).
    pub fn train_params(&self, round: usize) -> taurus_ml::TrainParams {
        taurus_ml::TrainParams {
            lr: self.lr,
            momentum: 0.9,
            batch_size: self.batch_size,
            epochs: self.epochs,
            lr_decay: 1.0,
            seed: derive_round_seed(self.seed, round as u64),
        }
    }

    /// Modeled cost, in ms, of training one round over `samples` rows:
    /// `epochs × ⌈samples/batch⌉ × train_ms_per_batch`.
    pub fn train_cost_ms(&self, samples: usize) -> f64 {
        let n_batches = samples.div_ceil(self.batch_size);
        self.epochs as f64 * n_batches as f64 * self.train_ms_per_batch
    }

    /// Modeled control-plane cost, in ms, of one whole round — training
    /// over `samples` rows, then installing the result:
    /// [`TrainingRunConfig::train_cost_ms`]` + install_ms`.
    pub fn round_cost_ms(&self, samples: usize) -> f64 {
        self.train_cost_ms(samples) + self.install_ms
    }
}

/// Runs online training: draws sample buffers from the labelled pool,
/// trains the model in place, and records the deployed F1 after each
/// weight installation.
///
/// # Panics
///
/// Panics if the pool or evaluation set is empty.
pub fn run_online_training(
    model: &mut Mlp,
    pool_x: &Rows,
    pool_y: &[usize],
    eval_x: &Rows,
    eval_y: &[usize],
    config: &TrainingRunConfig,
) -> Vec<ConvergencePoint> {
    assert!(!pool_x.is_empty() && !eval_x.is_empty(), "empty data");
    assert_eq!(pool_x.len(), pool_y.len());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut curve = Vec::with_capacity(config.rounds + 1);
    let mut now_s = 0.0f64;

    let eval = |m: &Mlp| {
        BinaryMetrics::from_pairs(
            eval_x.iter().zip(eval_y).map(|(x, &y)| (m.predict_class(x) == 1, y == 1)),
        )
        .f1_percent()
    };
    // The pre-training point sits at t = 0 exactly; log-axis plotting
    // (which cannot render 0) is the plot's concern, not the data's.
    curve.push(ConvergencePoint { time_s: 0.0, f1_percent: eval(model) });

    let sample_arrival_rate = (config.sampling_rate * config.pkt_rate).max(1e-9);
    for round in 0..config.rounds {
        // 1. Wait for the buffer to fill.
        now_s += config.buffer_size as f64 / sample_arrival_rate;

        // 2. Draw the buffer and train for the configured epochs.
        let idx: Vec<usize> =
            (0..config.buffer_size).map(|_| rng.gen_range(0..pool_x.len())).collect();
        let bx: Rows = idx.iter().map(|&i| &pool_x[i]).collect();
        let by: Vec<usize> = idx.iter().map(|&i| pool_y[i]).collect();
        model.train(&bx, &by, &config.train_params(round));
        // (Two additions, not one of `round_cost_ms`: the curve's time
        // axis stays bit-identical to every recorded run.)
        now_s += config.train_cost_ms(config.buffer_size) / 1e3;

        // 3. Install the new weights on the switch.
        now_s += config.install_ms / 1e3;
        curve.push(ConvergencePoint { time_s: now_s, f1_percent: eval(model) });
    }
    curve
}

/// Final F1 of a convergence curve (0 if empty).
pub fn final_f1(curve: &[ConvergencePoint]) -> f64 {
    curve.last().map_or(0.0, |p| p.f1_percent)
}

/// Time at which the curve first reaches `threshold` F1, if ever.
pub fn time_to_f1(curve: &[ConvergencePoint], threshold: f64) -> Option<f64> {
    curve.iter().find(|p| p.f1_percent >= threshold).map(|p| p.time_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_fixed::Activation;
    use taurus_ml::mlp::{MlpConfig, OutputHead};

    fn blobs(n: usize, seed: u64) -> (Rows, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.2 } else { 1.2 };
            x.push([cx + rng.gen_range(-0.8..0.8), rng.gen_range(-0.8..0.8)]);
            y.push(label);
        }
        (x.into_iter().collect(), y)
    }

    fn fresh_model(seed: u64) -> Mlp {
        Mlp::new(
            &MlpConfig {
                layers: vec![2, 6, 1],
                hidden: Activation::Relu,
                head: OutputHead::Sigmoid,
            },
            seed,
        )
    }

    #[test]
    fn f1_improves_over_time() {
        let (px, py) = blobs(2_000, 1);
        let (ex, ey) = blobs(500, 2);
        let mut model = fresh_model(3);
        let curve = run_online_training(
            &mut model,
            &px,
            &py,
            &ex,
            &ey,
            &TrainingRunConfig { rounds: 20, ..TrainingRunConfig::default() },
        );
        assert_eq!(curve.len(), 21);
        assert!(final_f1(&curve) > curve[0].f1_percent + 10.0, "learned something");
        assert!(final_f1(&curve) > 90.0, "converged: {}", final_f1(&curve));
        // Time axis strictly increases.
        assert!(curve.windows(2).all(|w| w[1].time_s > w[0].time_s));
    }

    #[test]
    fn higher_sampling_converges_faster_in_wall_time() {
        let (px, py) = blobs(2_000, 4);
        let (ex, ey) = blobs(500, 5);
        let run = |rate: f64| {
            let mut model = fresh_model(6);
            let curve = run_online_training(
                &mut model,
                &px,
                &py,
                &ex,
                &ey,
                &TrainingRunConfig { sampling_rate: rate, rounds: 25, ..Default::default() },
            );
            // Skip the pre-training point: a lucky random init can score
            // above threshold at t≈0, which says nothing about Fig. 13.
            time_to_f1(&curve[1..], 85.0)
        };
        let slow = run(1e-4);
        let fast = run(1e-2);
        let (Some(slow), Some(fast)) = (slow, fast) else {
            panic!("both runs should converge: {slow:?} {fast:?}");
        };
        assert!(fast < slow, "Fig. 13: {fast}s !< {slow}s");
    }

    #[test]
    fn more_epochs_converge_in_fewer_rounds() {
        let (px, py) = blobs(2_000, 7);
        let (ex, ey) = blobs(500, 8);
        let run = |epochs: usize| {
            let mut model = fresh_model(9);
            run_online_training(
                &mut model,
                &px,
                &py,
                &ex,
                &ey,
                &TrainingRunConfig { epochs, rounds: 6, ..Default::default() },
            )
        };
        let one = run(1);
        let ten = run(10);
        assert!(
            final_f1(&ten) >= final_f1(&one),
            "Fig. 14: 10-epoch {} !>= 1-epoch {}",
            final_f1(&ten),
            final_f1(&one)
        );
    }

    #[test]
    fn curve_starts_at_time_zero() {
        let (px, py) = blobs(400, 10);
        let (ex, ey) = blobs(200, 11);
        let mut model = fresh_model(12);
        let curve = run_online_training(
            &mut model,
            &px,
            &py,
            &ex,
            &ey,
            &TrainingRunConfig { rounds: 2, ..TrainingRunConfig::default() },
        );
        assert_eq!(curve[0].time_s, 0.0, "the pre-training point is stamped at t = 0 exactly");
        assert!(curve[1].time_s > 0.0);
    }

    #[test]
    fn round_seed_derivation_has_no_xor_structure() {
        // The old `seed ^ round` scheme collided on (0, 1) vs (1, 0);
        // the SplitMix64 derivation must not.
        assert_ne!(derive_round_seed(0, 1), derive_round_seed(1, 0));
        assert_ne!(derive_round_seed(3, 5), derive_round_seed(5, 3));
        assert_ne!(derive_round_seed(0, 0), derive_round_seed(1, 1));
        // Deterministic and round-sensitive.
        assert_eq!(derive_round_seed(7, 4), derive_round_seed(7, 4));
        assert_ne!(derive_round_seed(7, 4), derive_round_seed(7, 5));
        // No mass collisions over a small grid.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..32u64 {
            for round in 0..32u64 {
                assert!(seen.insert(derive_round_seed(seed, round)), "collision at {seed}/{round}");
            }
        }
    }

    #[test]
    fn round_arithmetic_is_shared_by_both_online_loops() {
        let config = TrainingRunConfig { epochs: 10, batch_size: 64, ..Default::default() };
        // ⌈200/64⌉ = 4 batches × 10 epochs × 0.8 ms, + 3 ms install.
        assert_eq!(config.train_cost_ms(200), 32.0);
        assert_eq!(config.round_cost_ms(200), 35.0);
        let params = config.train_params(4);
        assert_eq!(params.seed, derive_round_seed(config.seed, 4));
        assert_eq!((params.epochs, params.batch_size), (10, 64));
        assert_eq!((params.momentum, params.lr_decay), (0.9, 1.0));
    }

    #[test]
    fn runs_differing_only_in_seed_draw_different_curves() {
        let (px, py) = blobs(2_000, 13);
        let (ex, ey) = blobs(500, 14);
        let run = |seed: u64| {
            let mut model = fresh_model(15); // identical init: only draws differ
            run_online_training(
                &mut model,
                &px,
                &py,
                &ex,
                &ey,
                &TrainingRunConfig { seed, rounds: 8, ..TrainingRunConfig::default() },
            )
        };
        let a = run(0);
        let b = run(1);
        assert_ne!(a, b, "independent seeds must draw independent sample buffers");
        assert_eq!(a, run(0), "same seed stays reproducible");
    }

    #[test]
    fn time_to_f1_finds_threshold() {
        let curve = vec![
            ConvergencePoint { time_s: 0.1, f1_percent: 40.0 },
            ConvergencePoint { time_s: 0.2, f1_percent: 60.0 },
            ConvergencePoint { time_s: 0.3, f1_percent: 80.0 },
        ];
        assert_eq!(time_to_f1(&curve, 55.0), Some(0.2));
        assert_eq!(time_to_f1(&curve, 90.0), None);
        assert_eq!(final_f1(&curve), 80.0);
    }
}
