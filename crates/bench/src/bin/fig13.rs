//! Figure 13: online training — deployed F1 vs time at sampling rates
//! 10⁻⁵ … 10⁻² (higher sampling ⇒ faster convergence).

use taurus_bench::{f, print_table};
use taurus_controlplane::training::{run_online_training, TrainingRunConfig};
use taurus_core::e2e::{build_detector_from_trace, extract_stream_features};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_ml::mlp::MlpConfig;
use taurus_ml::Mlp;

fn main() {
    // Shared pools: stream features from a training trace, standardized
    // with the deployed detector's parameters.
    let detector = build_detector_from_trace(77, 1_500);
    let records = KddGenerator::new(78).take(1_500);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 78, ..Default::default() });
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
    for rate in [1e-5, 1e-4, 1e-3, 1e-2] {
        // Fresh, untrained model per curve: training from scratch online.
        let mut model = Mlp::new(&MlpConfig::anomaly_dnn(), 5);
        let curve = run_online_training(
            &mut model,
            pool_x,
            pool_y,
            eval_x,
            eval_y,
            &TrainingRunConfig { sampling_rate: rate, rounds: 25, ..Default::default() },
        );
        for p in curve.iter().step_by(5) {
            rows.push(vec![format!("{rate:.0e}"), f(p.time_s, 3), f(p.f1_percent, 1)]);
        }
    }
    print_table(
        "Figure 13: online training — F1 vs time by sampling rate",
        &["Sampling", "time (s)", "F1"],
        &rows,
    );
    println!("\nPaper shape: higher sampling rates converge in less wall time\n(tens to hundreds of milliseconds at 1e-2).");
}
