//! Table 3: accuracy of TMC IoT DNN classifiers, float32 vs int8.
//!
//! Trains each of the paper's three kernels (`4×10×2`, `4×5×5×2`,
//! `4×10×10×2`) on the synthetic IoT binary task, quantizes post-training
//! to int8, and reports the accuracy difference. The paper's point —
//! quantization costs well under 1 % accuracy — must reproduce.

use taurus_bench::{f, print_table};
use taurus_dataset::{IotGenerator, Standardizer};
use taurus_ml::mlp::MlpConfig;
use taurus_ml::{Mlp, QuantizedMlp, TrainParams};

fn main() {
    let kernels: Vec<(&str, Vec<usize>, f64)> = vec![
        ("4 x 10 x 2", vec![4, 10, 2], 67.06),
        ("4 x 5 x 5 x 2", vec![4, 5, 5, 2], 67.02),
        ("4 x 10 x 10 x 2", vec![4, 10, 10, 2], 67.04),
    ];

    let mut ds = IotGenerator::new(30).binary_dataset(12_000);
    ds.shuffle(31);
    let st = Standardizer::fit(&ds);
    st.apply(&mut ds);
    let (train, test) = ds.split(0.75);

    let mut rows = Vec::new();
    for (name, widths, paper_f32) in kernels {
        let mut mlp = Mlp::new(&MlpConfig::tmc_kernel(&widths), 7);
        mlp.train(
            train.features(),
            train.labels(),
            &TrainParams { epochs: 25, lr: 0.05, ..TrainParams::default() },
        );
        let q = QuantizedMlp::quantize(&mlp, train.features());
        let acc_f32 = mlp.accuracy(test.features(), test.labels()) * 100.0;
        let acc_fix8 = q.accuracy(test.features(), test.labels()) * 100.0;
        rows.push(vec![
            name.to_string(),
            f(acc_f32, 2),
            f(acc_fix8, 2),
            f(acc_fix8 - acc_f32, 2),
            f(paper_f32, 2),
        ]);
    }
    print_table(
        "Table 3: TMC IoT DNN accuracy, float32 vs fix8 (paper diff <= 0.07)",
        &["DNN Kernel", "float32 (%)", "fix8 (%)", "Diff", "paper f32 (%)"],
        &rows,
    );
}
