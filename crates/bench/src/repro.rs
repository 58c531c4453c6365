//! The paper's evaluation, one function per table and figure.
//!
//! Each experiment renders into a `String`: the same workloads and
//! parameter sweeps as Taurus §5, in the paper's row/series structure
//! with the published values beside ours. [`EXPERIMENTS`] is the one
//! dispatch table. The `repro` binary prints what these functions
//! return, and `tests/golden_repro.rs` compares the same renderings with
//! the committed `results/repro/<name>.txt`.
//!
//! Everything rendered is deterministic (seeded generators, simulated
//! time) except a line ending in [`LIVE`], which carries a live
//! measurement of this host: the binary prints it and the golden test
//! leaves it out. Nothing here writes a file.
//!
//! Writing into a `String` cannot fail, so `writeln!` results are
//! discarded.

use std::fmt::Write;

use taurus_compiler::{compile, CompileOptions, GridConfig, GridProgram};
use taurus_controlplane::accelerator::{measure_host_unbatched, Accelerator};
use taurus_controlplane::training::{
    final_f1, run_online_training, ConvergencePoint, TrainingRunConfig,
};
use taurus_core::apps::{registry, AnomalyDetector, ReactionTime};
use taurus_core::e2e::{
    build_detector_from_packets, build_detector_from_trace, extract_stream_features, run_table8,
};
use taurus_core::SwitchBuilder;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_dataset::{IotGenerator, Standardizer};
use taurus_hw_model::mat_compare::comparison;
use taurus_hw_model::{
    cu_area_mm2, fu_area_um2, fu_power_uw, grid_report, model_report, mu_area_mm2, CuGeometry,
    Precision, SwitchChip,
};
use taurus_ir::microbench;
use taurus_ml::mlp::MlpConfig;
use taurus_ml::{Mlp, QuantizedMlp, Rows, TrainParams};
use taurus_runtime::{run_online_deployment, DeploymentConfig, DeploymentReport, RuntimeBuilder};

use crate::{f, table5_models, write_table};

/// An experiment: renders its tables into the `String`.
pub type Experiment = fn(&mut String);

/// Every experiment, by the name `repro <name>` takes, in `repro all`
/// order.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("table8", table8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig13", fig13),
    ("fig14", fig14),
    ("mat_only", mat_only),
    ("throughput", throughput),
    ("online", |out| {
        online(out, OnlineSize::FULL);
    }),
];

/// The last cell of a row that reports a live host measurement.
pub const LIVE: &str = "measured live";

/// Area of a compiled program: its CUs at the grid's fix8 geometry plus
/// its MUs.
fn area_mm2(p: &GridProgram, grid: &GridConfig) -> f64 {
    let geom = CuGeometry { lanes: grid.lanes, stages: grid.stages };
    p.resources.cus as f64 * cu_area_mm2(geom, Precision::Fix8)
        + p.resources.mus as f64 * mu_area_mm2(grid.mu_banks, grid.mu_bank_entries)
}

/// Table 1: in-network applications and their demanded reaction times.
pub fn table1(out: &mut String) {
    let mark = |r: &[ReactionTime], t: ReactionTime| {
        if r.contains(&t) {
            "X".to_string()
        } else {
            String::new()
        }
    };
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|a| {
            vec![
                if a.security { "Security" } else { "Performance" }.to_string(),
                a.name.to_string(),
                mark(a.reaction, ReactionTime::PerPacket),
                mark(a.reaction, ReactionTime::PerFlowlet),
                mark(a.reaction, ReactionTime::PerFlow),
                mark(a.reaction, ReactionTime::PerMicroburst),
            ]
        })
        .collect();
    write_table(
        out,
        "Table 1: in-network applications demand fast reaction times",
        &["Category", "Application", "Pkt", "Flowlet", "Flow", "µburst"],
        &rows,
    );
}

/// Table 2: unbatched inference latency on control-plane accelerators.
///
/// Paper values are carried as calibrated constants (we own none of the
/// devices); a [`LIVE`] measurement of unbatched inference on this
/// host's CPU cross-checks the order of magnitude. Either way, the gap
/// to the 221 ns data-plane DNN is 3–6 orders of magnitude.
pub fn table2(out: &mut String) {
    let mut rows: Vec<Vec<String>> = Accelerator::ALL
        .iter()
        .map(|a| {
            vec![a.name().to_string(), f(a.latency_ms(), 2), "paper (calibrated constant)".into()]
        })
        .collect();

    let mlp = Mlp::new(&MlpConfig::anomaly_dnn(), 0);
    let host_ms = measure_host_unbatched(&mlp, &[0.3; 6], 10_000);
    rows.push(vec!["This host (bare Rust fwd)".into(), f(host_ms, 4), LIVE.into()]);

    write_table(
        out,
        "Table 2: inference time for control-plane accelerators (batch = 1)",
        &["Accelerator", "Latency (ms)", "Source"],
        &rows,
    );
    let _ = writeln!(
        out,
        "\nData-plane DNN on Taurus: ~221 ns (paper) — even the fastest control-plane\n\
         option is >10^3x slower; framework-laden stacks are >10^6x slower."
    );
}

/// Table 3: accuracy of TMC IoT DNN classifiers, float32 vs int8.
///
/// Trains each of the paper's three kernels (`4×10×2`, `4×5×5×2`,
/// `4×10×10×2`) on the synthetic IoT binary task, quantizes
/// post-training to int8, and reports the accuracy difference. The
/// paper's point — quantization costs well under 1 % accuracy — must
/// reproduce.
pub fn table3(out: &mut String) {
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
    write_table(
        out,
        "Table 3: TMC IoT DNN accuracy, float32 vs fix8 (paper diff <= 0.07)",
        &["DNN Kernel", "float32 (%)", "fix8 (%)", "Diff", "paper f32 (%)"],
        &rows,
    );
}

/// Table 4: per-FU area and power at the target design (16 lanes ×
/// 4 stages) across precisions — the hardware model's calibration
/// anchors, printed with the paper's published values.
pub fn table4(out: &mut String) {
    let g = CuGeometry::PAPER;
    let rows: Vec<Vec<String>> = [
        (Precision::Fix8, "fix8", 670.0, 456.0),
        (Precision::Fix16, "fix16", 1338.0, 887.0),
        (Precision::Fix32, "fix32", 2949.0, 2341.0),
    ]
    .iter()
    .map(|&(p, name, paper_area, paper_power)| {
        vec![
            name.to_string(),
            f(fu_area_um2(g, p), 0),
            f(paper_area, 0),
            f(fu_power_uw(g, p, 0.1), 0),
            f(paper_power, 0),
        ]
    })
    .collect();
    write_table(
        out,
        "Table 4: per-FU area & power at 16 lanes / 4 stages (10% switching)",
        &["Precision", "Area (um2)", "paper", "Power (uW)", "paper"],
        &rows,
    );
}

/// Table 5: performance and resource overheads of the application
/// models (KMeans, SVM, DNN, LSTM) plus the full 12×10 grid, against a
/// 500 mm² / 270 W four-pipeline reference switch.
pub fn table5(out: &mut String) {
    let grid = GridConfig::default();
    let chip = SwitchChip::default();
    let mut rows = Vec::new();

    for (name, paper_ns, paper_mm2, program) in table5_models() {
        let hw = model_report(&program.resources, &grid, &chip, 0.1);
        let rate = if program.timing.initiation_interval == 1 {
            "1.00".to_string()
        } else {
            "—".to_string()
        };
        rows.push(vec![
            name.to_string(),
            rate,
            f(program.timing.latency_ns, 0),
            f(paper_ns, 0),
            f(hw.area_mm2, 2),
            f(paper_mm2, 1),
            f(hw.area_overhead_pct, 2),
            f(hw.power_mw, 0),
            f(hw.power_overhead_pct, 2),
            program.resources.cus.to_string(),
            program.resources.mus.to_string(),
        ]);
    }

    let gr = grid_report(&grid, &chip, 0.1);
    rows.push(vec![
        "12x10 Grid".into(),
        String::new(),
        String::new(),
        String::new(),
        f(gr.area_mm2, 2),
        "4.8".into(),
        f(gr.area_overhead_pct, 2),
        f(gr.power_mw, 0),
        f(gr.power_overhead_pct, 2),
        grid.cu_cells().to_string(),
        grid.mu_cells().to_string(),
    ]);

    write_table(
        out,
        "Table 5: application models — performance and resource overheads",
        &[
            "App Model",
            "GPkt/s",
            "ns",
            "paper ns",
            "mm2",
            "paper",
            "+area%",
            "mW",
            "+pwr%",
            "CUs",
            "MUs",
        ],
        &rows,
    );
    let _ = writeln!(
        out,
        "\nPaper anchors: grid 4.8 mm2, +3.8% area, +2.8% power; KMeans 61 ns/0.3 mm2,\n\
         SVM 83 ns/0.6 mm2, DNN 221 ns/1.0 mm2, LSTM 805 ns/3.0 mm2 (not line rate)."
    );
}

/// Table 6: area and latency of each microbenchmark at line rate in a
/// 16-lane, four-stage CU.
pub fn table6(out: &mut String) {
    let grid = GridConfig::default();
    let paper: &[(&str, f64, f64)] = &[
        ("Conv1D", 1.57, 122.0),
        ("Inner Product", 0.04, 23.0),
        ("ReLU", 0.04, 22.0),
        ("LeakyReLU", 0.04, 22.0),
        ("TanhExp", 0.26, 69.0),
        ("SigmoidExp", 0.31, 73.0),
        ("TanhPW", 0.13, 38.0),
        ("SigmoidPW", 0.17, 46.0),
        ("ActLUT", 0.12, 36.0),
    ];

    let mut rows = Vec::new();
    for &(name, paper_mm2, paper_ns) in paper {
        let p =
            compile(&microbench::by_name(name), &grid, &CompileOptions::default()).expect("fits");
        rows.push(vec![
            name.to_string(),
            f(area_mm2(&p, &grid), 3),
            f(paper_mm2, 2),
            f(p.timing.latency_ns, 0),
            f(paper_ns, 0),
            p.resources.cus.to_string(),
            p.resources.mus.to_string(),
        ]);
    }
    write_table(
        out,
        "Table 6: microbenchmark area & latency at line rate (1 GPkt/s)",
        &["ubmark", "mm2", "paper", "ns", "paper", "CUs", "MUs"],
        &rows,
    );
}

/// Table 7: throughput and area scaling of microbenchmarks with
/// unrolling factors 1–8 (Conv1D's outer loop; the inner product has
/// no outer loop and always runs at line rate).
pub fn table7(out: &mut String) {
    let grid = GridConfig::default();
    let paper_conv: &[(usize, &str, f64)] =
        &[(1, "1/8", 0.19), (2, "1/4", 0.44), (4, "1/2", 0.93), (8, "1", 1.57)];
    let mut rows = Vec::new();
    let conv = microbench::conv1d();
    for &(unroll, paper_rate, paper_mm2) in paper_conv {
        let p = compile(&conv, &grid, &CompileOptions { unroll: Some(unroll), max_cus: None })
            .expect("fits");
        rows.push(vec![
            "Conv1D".into(),
            unroll.to_string(),
            format!("1/{}", p.timing.initiation_interval),
            paper_rate.to_string(),
            f(area_mm2(&p, &grid), 3),
            f(paper_mm2, 2),
        ]);
    }
    let ip =
        compile(&microbench::inner_product(), &grid, &CompileOptions::default()).expect("fits");
    rows.push(vec![
        "Inner Product".into(),
        "-".into(),
        "1".into(),
        "1".into(),
        f(area_mm2(&ip, &grid), 3),
        "0.04".into(),
    ]);
    write_table(
        out,
        "Table 7: throughput & area scaling with unrolling",
        &["ubmark", "Unroll", "Line Rate", "paper", "Area (mm2)", "paper"],
        &rows,
    );
}

/// Table 8: end-to-end anomaly detection — control-plane baseline vs
/// Taurus, over the same trace, at sampling rates 10⁻⁵ … 10⁻².
pub fn table8(out: &mut String) {
    let _ = writeln!(out, "Training the anomaly-detection DNN on stream features…");
    let detector = build_detector_from_trace(1001, 3_000);
    let _ = writeln!(out, "offline F1 = {:.1} (paper: 71.1)", detector.offline_f1);

    let records = KddGenerator::new(2002).take(12_000);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 2002, ..Default::default() });
    let _ = writeln!(
        out,
        "evaluation trace: {} packets, {:.1}% anomalous, {:.1} Gb/s",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0,
        trace.rate_gbps()
    );

    let rows_data = run_table8(&detector, &trace, &[1e-5, 1e-4, 1e-3, 1e-2]);
    let paper: &[(f64, f64, f64, f64, f64)] = &[
        // (rate, baseline detected %, taurus detected %, baseline F1, taurus F1)
        (1e-5, 0.781, 58.2, 1.549, 71.1),
        (1e-4, 2.553, 58.2, 4.944, 71.1),
        (1e-3, 0.015, 58.2, 0.031, 71.1),
        (1e-2, 0.000, 58.2, 0.001, 71.1),
    ];

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .zip(paper)
        .map(|(r, &(_, p_det_b, p_det_t, p_f1_b, p_f1_t))| {
            vec![
                format!("{:.0e}", r.sampling_rate),
                f(r.baseline.xdp_batch, 0),
                f(r.baseline.rem_batch, 0),
                f(r.baseline.xdp_ms, 0),
                f(r.baseline.db_ms, 0),
                f(r.baseline.ml_ms, 0),
                f(r.baseline.install_ms, 0),
                f(r.baseline.all_ms, 0),
                format!("{:.3} ({p_det_b})", r.baseline.detected_pct),
                format!("{:.1} ({p_det_t})", r.taurus.detected_pct),
                format!("{:.3} ({p_f1_b})", r.baseline.f1_percent),
                format!("{:.1} ({p_f1_t})", r.taurus.f1_percent),
            ]
        })
        .collect();
    write_table(
        out,
        "Table 8: baseline batches/latency and detection vs Taurus (paper values in parens)",
        &[
            "Sampling",
            "XDP",
            "Rem.",
            "XDP ms",
            "DB ms",
            "ML ms",
            "Inst ms",
            "All ms",
            "Base det%",
            "Taurus det%",
            "Base F1",
            "Taurus F1",
        ],
        &rows,
    );
    let ratio = rows_data
        .iter()
        .map(|r| r.taurus.detected_pct / r.baseline.detected_pct.max(1e-6))
        .fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        out,
        "\nTaurus detects >= {ratio:.0}x more anomalous packets than the baseline at every\n\
         sampling rate (paper: two orders of magnitude); mean switch latency {:.0} ns.",
        rows_data[0].taurus.mean_latency_ns
    );
}

/// Figure 9: per-FU area and power across CU configurations
/// (lanes ∈ {4, 8, 16, 32} × stages ∈ {2, 3, 4, 6}, fix8).
pub fn fig9(out: &mut String) {
    let lanes = [4usize, 8, 16, 32];
    let stages = [2usize, 3, 4, 6];
    let sweep = |cell: &dyn Fn(CuGeometry) -> String| -> Vec<Vec<String>> {
        lanes
            .iter()
            .map(|&l| {
                let mut row = vec![l.to_string()];
                row.extend(stages.iter().map(|&s| cell(CuGeometry { lanes: l, stages: s })));
                row
            })
            .collect()
    };
    write_table(
        out,
        "Figure 9a: area per FU (um2) — rows: lanes, cols: stages",
        &["lanes\\stages", "2", "3", "4", "6"],
        &sweep(&|g| f(fu_area_um2(g, Precision::Fix8), 0)),
    );
    write_table(
        out,
        "Figure 9b: power per FU (mW, 10% switching) — rows: lanes, cols: stages",
        &["lanes\\stages", "2", "3", "4", "6"],
        &sweep(&|g| f(fu_power_uw(g, Precision::Fix8, 0.1) / 1e3, 3)),
    );
    let _ = writeln!(
        out,
        "\nPaper shape: per-FU cost falls as lanes amortize control (16 lanes/4 stages\n\
         chosen: 670 um2, 456 uW)."
    );
}

/// Figure 10: total area for each activation function vs CU stage
/// count (2, 3, 4, 6), all at line rate.
pub fn fig10(out: &mut String) {
    let acts = ["ReLU", "LeakyReLU", "TanhExp", "SigmoidExp", "TanhPW", "SigmoidPW", "ActLUT"];
    let stage_counts = [2usize, 3, 4, 6];

    let mut rows = Vec::new();
    for name in acts {
        let mut row = vec![name.to_string()];
        for &stages in &stage_counts {
            let grid = GridConfig { stages, ..GridConfig::default() };
            match compile(&microbench::by_name(name), &grid, &CompileOptions::default()) {
                Ok(p) => row.push(f(area_mm2(&p, &grid), 3)),
                Err(_) => row.push("n/a".into()),
            }
        }
        rows.push(row);
    }
    write_table(
        out,
        "Figure 10: activation-function area (mm2) vs CU stage count, at line rate",
        &["activation", "2 stages", "3 stages", "4 stages", "6 stages"],
        &rows,
    );
    let _ = writeln!(
        out,
        "\nPaper shape: exp-series variants cost 2-5x the piecewise ones; shallow\n\
         activations (ReLU) waste stages as depth grows; LUT stays small."
    );
}

/// The online-training data of Figs. 13 and 14: stream features of a
/// 1,500-record KDD trace, standardized with the parameters of a
/// detector trained on another 1,500 records, split in half into the
/// telemetry pool the control plane samples and the evaluation set.
struct OnlinePools {
    pool_x: Rows,
    pool_y: Vec<usize>,
    eval_x: Rows,
    eval_y: Vec<usize>,
}

impl OnlinePools {
    fn new(detector_seed: u64, trace_seed: u64) -> Self {
        let detector = build_detector_from_trace(detector_seed, 1_500);
        let records = KddGenerator::new(trace_seed).take(1_500);
        let trace =
            PacketTrace::expand(records, &TraceConfig { seed: trace_seed, ..Default::default() });
        let samples = extract_stream_features(&trace);
        let mut pool_x: Rows = samples
            .iter()
            .map(|s| {
                let mut row = s.features;
                detector.standardizer.apply_row(&mut row);
                row
            })
            .collect();
        let mut pool_y: Vec<usize> = samples.iter().map(|s| usize::from(s.anomalous)).collect();
        let half = pool_x.len() / 2;
        let eval_x = pool_x.split_off(half);
        let eval_y = pool_y.split_off(half);
        Self { pool_x, pool_y, eval_x, eval_y }
    }

    /// Trains a fresh, untrained anomaly DNN (init seed `seed`) online.
    fn train(&self, seed: u64, config: &TrainingRunConfig) -> Vec<ConvergencePoint> {
        let mut model = Mlp::new(&MlpConfig::anomaly_dnn(), seed);
        run_online_training(
            &mut model,
            &self.pool_x,
            &self.pool_y,
            &self.eval_x,
            &self.eval_y,
            config,
        )
    }
}

/// Figure 13: online training — deployed F1 vs time at sampling rates
/// 10⁻⁵ … 10⁻² (higher sampling ⇒ faster convergence).
pub fn fig13(out: &mut String) {
    let pools = OnlinePools::new(77, 78);
    let mut rows = Vec::new();
    for rate in [1e-5, 1e-4, 1e-3, 1e-2] {
        let curve = pools
            .train(5, &TrainingRunConfig { sampling_rate: rate, rounds: 25, ..Default::default() });
        for p in curve.iter().step_by(5) {
            rows.push(vec![format!("{rate:.0e}"), f(p.time_s, 3), f(p.f1_percent, 1)]);
        }
    }
    write_table(
        out,
        "Figure 13: online training — F1 vs time by sampling rate",
        &["Sampling", "time (s)", "F1"],
        &rows,
    );
    let _ = writeln!(
        out,
        "\nPaper shape: higher sampling rates converge in less wall time\n\
         (tens to hundreds of milliseconds at 1e-2)."
    );
}

/// Figure 14: online-training convergence vs epochs/batch-size
/// ({1, 10} epochs × {64, 256} batch) at sampling rate 10⁻².
pub fn fig14(out: &mut String) {
    let pools = OnlinePools::new(88, 89);
    let mut rows = Vec::new();
    for (epochs, batch) in [(1usize, 64usize), (1, 256), (10, 64), (10, 256)] {
        let curve = pools.train(
            6,
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
    write_table(
        out,
        "Figure 14: convergence vs epochs/batch at sampling 1e-2",
        &["Epoch/Batch", "end time (s)", "final F1"],
        &rows,
    );
    let _ = writeln!(
        out,
        "\nPaper shape: smaller batches with more epochs converge to the highest F1;\n\
         the extra training time is offset by faster convergence."
    );
}

/// §5.1.4: Taurus vs MAT-only ML implementations (N2Net, IIsy): the
/// published MAT consumption of the MAT-only designs against the
/// iso-area MAT equivalent of the compiled Taurus models (paper: 48 MATs
/// for the N2Net DNN vs 3 for Taurus).
pub fn mat_only(out: &mut String) {
    let grid = GridConfig::default();
    let chip = SwitchChip::default();
    let models = table5_models();
    let area = |name: &str| {
        models
            .iter()
            .find(|(n, ..)| n.contains(name))
            .map(|(.., p)| model_report(&p.resources, &grid, &chip, 0.1).area_mm2)
            .expect("model present")
    };
    let rows: Vec<Vec<String>> = comparison(area("DNN"), area("SVM"), area("KMeans"), &chip)
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.model.to_string(),
                f(r.mat_only_mats, 0),
                f(r.taurus_iso_mats, 2),
                f(r.mat_only_mats / r.taurus_iso_mats.max(1e-9), 0),
            ]
        })
        .collect();
    write_table(
        out,
        "§5.1.4: MAT-only ML vs Taurus (iso-area MAT equivalents)",
        &["MAT-only design", "Model", "MATs", "Taurus MATs", "advantage x"],
        &rows,
    );
    let _ = writeln!(
        out,
        "\nPaper: N2Net needs 48 MATs for the anomaly DNN — Taurus consumes ~3 iso-area\n\
         MATs; IIsy's SVM/KMeans need 8/2 MATs vs ~1 for Taurus."
    );
}

/// The sharded runtime's modeled device rate at 1/2/4/8 shards on the
/// default KDD trace, each run checked bit-exact against the
/// sequential switch.
///
/// Every shard is an independent Taurus pipeline sustaining `clock / II`
/// packets/sec, so the device drains the trace when its most loaded
/// shard finishes: the rate scales linearly up to the flow-hash balance
/// factor. This host's wall-clock rates are the repo benchmark's
/// (`stream_pps`, `runtime.runtime.balance`), not this table's.
pub fn throughput(out: &mut String) {
    let train_n = 2_000;
    let _ = writeln!(out, "training the anomaly-detection DNN ({train_n} records)…");
    let detector = AnomalyDetector::train_default(3, train_n);
    let records = KddGenerator::new(42).take(8_000);
    let trace = PacketTrace::expand(records, &TraceConfig::default());
    let _ = writeln!(
        out,
        "default KDD trace: {} packets, {:.1}% anomalous, {:.2} Gb/s offered",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0,
        trace.rate_gbps()
    );

    let mut sequential = SwitchBuilder::new().register(&detector).build();
    for tp in &trace.packets {
        sequential.process_trace_verdict(tp);
    }
    let golden = sequential.report();

    // One pipeline sustains clock/II packets per second (II = 1 for the
    // compiled DNN: line rate at the default 1 GHz grid clock).
    let per_shard_pps = 1e9 / detector.program.timing.initiation_interval as f64;

    let mut rows = Vec::new();
    let mut modeled_pps = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut rt =
            RuntimeBuilder::new().shards(shards).batch_size(256).register(&detector).build();
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged, golden,
            "sharded runtime diverged from the sequential switch at {shards} shards"
        );
        let modeled = report.modeled_pps(per_shard_pps);
        rows.push(vec![
            shards.to_string(),
            format!("{:.3e}", modeled),
            f(report.balance(), 3),
            "ok".to_string(),
        ]);
        modeled_pps.push(modeled);
    }
    write_table(
        out,
        "Sharded runtime throughput on the default KDD trace (determinism-checked)",
        &["Shards", "modeled pkts/s", "balance", "exact"],
        &rows,
    );

    // The architectural guarantee is load-balance-limited linear scaling;
    // with thousands of flows the hash balance makes 4 shards >=2x one.
    let speedup_4 = modeled_pps[2] / modeled_pps[0];
    assert!(
        speedup_4 >= 2.0,
        "modeled throughput must scale >=2x at 4 shards (got {speedup_4:.2}x)"
    );
    let _ = writeln!(
        out,
        "\nmodeled device rate at 4 shards: {:.2} Gpps — {:.2}x line rate per pipeline",
        modeled_pps[2] / 1e9,
        modeled_pps[2] / per_shard_pps
    );
    let _ = writeln!(
        out,
        "determinism: merged reports matched the sequential switch at every shard count"
    );
}

/// Size of an [`online`] run.
#[derive(Clone, Copy, Debug)]
pub struct OnlineSize {
    /// KDD records behind the offline-trained deployment shape.
    train_records: usize,
    /// KDD records expanded into the serving trace.
    trace_records: usize,
    /// Train + install rounds.
    rounds: usize,
}

impl OnlineSize {
    /// What `repro online` runs.
    pub const FULL: Self = Self { train_records: 1_500, trace_records: 1_200, rounds: 12 };
    /// The small run whose report `results/online_deployment.txt` pins.
    pub const SMOKE: Self = Self { train_records: 500, trace_records: 300, rounds: 8 };
}

/// Online training against the live sharded deployment (§5.2.3): a
/// fresh, untrained DNN is installed on the running switch, the control
/// plane samples telemetry from the same stream the switch serves,
/// trains with real SGD, and hot-swaps each round's weights onto every
/// shard at the same global packet index. Rendered is the **deployed**
/// F1 — scored from the verdicts the data plane actually issued per
/// model segment — over virtual (trace) time; returned is the 1-shard
/// deployment report.
///
/// Two properties are hard-asserted:
///
/// - **determinism across shards** — the full deployment report
///   (curve, per-segment confusion, merged counters) is bit-identical
///   at 1, 2, and 4 shards;
/// - **convergence** — the deployed-F1 curve trends upward from the
///   untrained starting point and the final model performs on par with
///   an offline-trained deployment.
pub fn online(out: &mut String, size: OnlineSize) -> DeploymentReport {
    let OnlineSize { train_records: train_n, trace_records: trace_n, rounds } = size;

    // A mostly-benign mixture (≈25 % anomalous packets instead of the
    // default ≈47 %) with little class overlap: with a high attack base
    // rate an untrained drop-everything model already scores a
    // deceptively decent F1, and with the default 22 % stealthy-attack
    // rate even offline training tops out too low for a convergence
    // curve to be visible. Fig. 13 needs a learnable workload.
    let priors = [0.75, 0.14, 0.07, 0.03, 0.01];
    let gen = |seed: u64| KddGenerator::new(seed).with_priors(priors).with_overlap(0.04, 0.05);

    // The deployment shape (standardizer, pipeline, app identity) comes
    // from an offline-trained detector; the *deployed weights* start
    // from a fresh random init and must earn their F1 online.
    let _ = writeln!(out, "building the anomaly-detection deployment ({train_n} records)…");
    let train_records = gen(91).take(train_n);
    let train_trace =
        PacketTrace::expand(train_records, &TraceConfig { seed: 91, ..Default::default() });
    let app = build_detector_from_packets(&train_trace, 91);
    let records = gen(92).take(trace_n);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 92, ..Default::default() });
    let _ = writeln!(
        out,
        "serving trace: {} packets, {:.1}% anomalous; offline reference F1 {:.1}",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0,
        app.offline_f1
    );
    let fresh = Mlp::new(&MlpConfig::anomaly_dnn(), 9);

    let config = |shards: usize| DeploymentConfig {
        // The paper's experiment watches minutes of 5 Gb/s traffic; this
        // synthetic trace spans ~1 ms of virtual time at the same rate
        // (a few thousand packets), so the modeled control-plane costs
        // are scaled down ~1000x to keep the experiment's *structure* —
        // several train+install rounds landing mid-stream while the old
        // model keeps serving. Lowering the offered rate instead would
        // silently wreck the 5 ms time-window features the DNN relies on.
        training: TrainingRunConfig {
            sampling_rate: 0.5,
            buffer_size: 128,
            batch_size: 32,
            epochs: 12,
            lr: 0.08,
            train_ms_per_batch: 0.8e-3,
            install_ms: 3e-3,
            rounds,
            seed: 5,
            ..TrainingRunConfig::default()
        },
        shards,
        batch_size: 64,
    };

    // The same deployment on 1, 2, and 4 shards must produce
    // bit-identical reports — live weight swaps preserve the runtime's
    // exactness guarantee.
    let shard_counts = [1usize, 2, 4];
    let mut reports = Vec::new();
    for shards in shard_counts {
        let report = run_online_deployment(&app, &fresh, &trace, &config(shards));
        let _ = writeln!(
            out,
            "shards {shards}: {} rounds installed, final deployed F1 {:.1}",
            report.rounds.len(),
            report.final_f1()
        );
        reports.push(report);
    }
    let golden = reports.remove(0);
    for (shards, report) in shard_counts.iter().skip(1).zip(&reports) {
        assert_eq!(
            report.curve, golden.curve,
            "deployed-F1 curve diverged at {shards} shards — the update barrier leaked"
        );
        assert_eq!(report.runtime.segments, golden.runtime.segments);
        assert_eq!(report.runtime.merged, golden.runtime.merged);
        assert_eq!(report.rounds, golden.rounds);
    }

    let mut rows = Vec::new();
    for (i, p) in golden.curve.iter().enumerate() {
        let (version, installed_at) = if i == 0 {
            (1, 0)
        } else {
            (golden.rounds[i - 1].version, golden.rounds[i - 1].installed_at_packet)
        };
        rows.push(vec![
            i.to_string(),
            version.to_string(),
            installed_at.to_string(),
            f(p.time_s * 1e3, 3),
            golden.runtime.segments[i].total().to_string(),
            f(p.f1_percent, 1),
            f(golden.runtime.segments[i].detected_percent(), 1),
        ]);
    }
    write_table(
        out,
        "Online deployment: per-segment F1 of the live model (shards 1/2/4 bit-identical)",
        &["Segment", "Version", "Installed@pkt", "end t (ms)", "Packets", "F1", "Detected %"],
        &rows,
    );

    // Convergence: the deployed model must improve on its untrained
    // starting point and end in the neighbourhood of the offline F1.
    let first = golden.curve.first().expect("nonempty curve").f1_percent;
    let last = golden.final_f1();
    let _ = writeln!(
        out,
        "\ndeployed F1: {first:.1} (untrained, segment 0) → {last:.1} (final segment); \
         offline reference {:.1}",
        app.offline_f1
    );
    assert!(
        golden.rounds.len() >= rounds.min(3),
        "expected at least {} installed rounds, got {}",
        rounds.min(3),
        golden.rounds.len()
    );
    assert!(last > first + 5.0, "online training must lift deployed F1 ({first:.1} → {last:.1})");
    assert!(
        last > 0.5 * app.offline_f1,
        "deployed F1 {last:.1} should approach the offline reference {:.1}",
        app.offline_f1
    );
    // Trend, not strict monotonicity (SGD on small buffers is noisy):
    // the later half of the curve must dominate the earlier half.
    let mid = golden.curve.len() / 2;
    let mean = |ps: &[ConvergencePoint]| {
        ps.iter().map(|p| p.f1_percent).sum::<f64>() / ps.len().max(1) as f64
    };
    assert!(
        mean(&golden.curve[mid..]) > mean(&golden.curve[..mid]),
        "deployed-F1 curve must trend upward: {:?}",
        golden.curve.iter().map(|p| p.f1_percent as i64).collect::<Vec<_>>()
    );

    let _ = writeln!(
        out,
        "determinism: deployment reports matched bit-for-bit at every shard count \
         ({} model installs over {:.2} ms of trace time)",
        golden.rounds.len(),
        golden.curve.last().map_or(0.0, |p| p.time_s * 1e3)
    );
    golden
}
