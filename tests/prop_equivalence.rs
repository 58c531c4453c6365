//! Property test over the whole stack: random MLP topologies, trained
//! briefly on random data, must survive quantize → lower → compile →
//! simulate with outputs bit-identical to the integer golden model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taurus_cgra::CgraSim;
use taurus_compiler::{compile, frontend, CompileOptions, GridConfig};
use taurus_fixed::Activation;
use taurus_ml::mlp::{Mlp, MlpConfig, OutputHead, TrainParams};
use taurus_ml::{QuantizedMlp, Rows};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_mlps_survive_the_full_pipeline(
        seed in 0u64..1_000,
        inputs in 2usize..8,
        hidden1 in 2usize..12,
        hidden2 in 0usize..8,
        act_pick in 0usize..3,
    ) {
        let hidden = match act_pick {
            0 => Activation::Relu,
            1 => Activation::LeakyRelu,
            _ => Activation::TanhExp,
        };
        let mut layers = vec![inputs, hidden1];
        if hidden2 > 1 {
            layers.push(hidden2);
        }
        layers.push(1);
        let cfg = MlpConfig { layers, hidden, head: OutputHead::Sigmoid };

        // Brief training on random blobs so weights are non-degenerate.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Rows::new(
            (0..60 * inputs)
                .map(|k| {
                    let c = if k / inputs % 2 == 0 { -1.0 } else { 1.0 };
                    c + rng.gen_range(-0.5..0.5)
                })
                .collect(),
            inputs,
        );
        let y: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let mut mlp = Mlp::new(&cfg, seed);
        mlp.train(&x, &y, &TrainParams { epochs: 3, ..TrainParams::default() });

        // Quantize → IR → grid → simulate; must equal the golden model.
        let q = QuantizedMlp::quantize(&mlp, &x);
        let graph = frontend::mlp_to_graph(&q);
        prop_assert!(graph.validate().is_ok());
        let program = compile(&graph, &GridConfig::default(), &CompileOptions::default())
            .expect("small MLPs always fit");
        let mut sim = CgraSim::new(&program);
        for xi in x.iter().take(20) {
            let codes = q.quantize_input(xi);
            let golden: Vec<i32> = q.infer_codes(&codes).iter().map(|&c| i32::from(c)).collect();
            let lanes: Vec<i32> = codes.iter().map(|&c| i32::from(c)).collect();
            let hw = sim.process(&lanes).outputs.concat();
            prop_assert_eq!(hw, golden);
        }
    }
}
