//! Figure 14: online-training convergence vs epochs/batch-size
//! ({1, 10} epochs × {64, 256} batch) at sampling rate 10⁻².

use taurus_bench::{f, print_table};
use taurus_controlplane::training::{final_f1, run_online_training, TrainingRunConfig};
use taurus_core::e2e::{build_detector_from_trace, extract_stream_features};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_ml::mlp::MlpConfig;
use taurus_ml::Mlp;

fn main() {
    let detector = build_detector_from_trace(88, 1_500);
    let records = KddGenerator::new(89).take(1_500);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 89, ..Default::default() });
    let samples = extract_stream_features(&trace);
    let std_x: Vec<Vec<f32>> = samples
        .iter()
        .map(|s| {
            let mut row = s.features.clone();
            detector.standardizer.apply_row(&mut row);
            row
        })
        .collect();
    let labels: Vec<usize> = samples.iter().map(|s| usize::from(s.anomalous)).collect();
    let half = std_x.len() / 2;
    let (pool_x, eval_x) = std_x.split_at(half);
    let (pool_y, eval_y) = labels.split_at(half);

    let mut rows = Vec::new();
    for (epochs, batch) in [(1usize, 64usize), (1, 256), (10, 64), (10, 256)] {
        let mut model = Mlp::new(&MlpConfig::anomaly_dnn(), 6);
        let curve = run_online_training(
            &mut model,
            pool_x,
            pool_y,
            eval_x,
            eval_y,
            &TrainingRunConfig {
                sampling_rate: 1e-2,
                epochs,
                batch_size: batch,
                rounds: 20,
                ..Default::default()
            },
        );
        rows.push(vec![
            format!("{epochs}/{batch}"),
            f(curve.last().map_or(0.0, |p| p.time_s), 3),
            f(final_f1(&curve), 1),
        ]);
    }
    print_table(
        "Figure 14: convergence vs epochs/batch at sampling 1e-2",
        &["Epoch/Batch", "end time (s)", "final F1"],
        &rows,
    );
    println!("\nPaper shape: smaller batches with more epochs converge to the highest F1;\nthe extra training time is offset by faster convergence.");
}
