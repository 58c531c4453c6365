//! Cross-crate integration tests: the invariants that make the
//! reproduction trustworthy, checked through the public API only.

use taurus_cgra::CgraSim;
use taurus_compiler::{compile, frontend, CompileOptions, GridConfig};
use taurus_core::apps::AnomalyDetector;
use taurus_core::e2e::{build_detector_from_trace, extract_stream_features, run_table8};
use taurus_dataset::kdd::{FeatureView, KddGenerator};
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_dataset::IotGenerator;
use taurus_hw_model::{grid_report, SwitchChip};
use taurus_ml::svm::SvmConfig;
use taurus_ml::{KMeans, QuantizedKMeans, QuantizedSvm, Svm};

/// The pipeline-equivalence chain, end to end: float model → int8 golden
/// model → IR graph → compiled grid program → cycle-level simulation,
/// with the last three stages bit-identical.
#[test]
fn dnn_hardware_path_matches_golden_model_bit_for_bit() {
    let detector = AnomalyDetector::train_default(100, 2_000);
    let mut sim = CgraSim::shared(detector.program.clone());
    let mut gen = KddGenerator::new(101);
    let ds = gen.binary_dataset(300, FeatureView::Dnn6);
    for x in ds.features() {
        let mut row = x.to_vec();
        detector.standardizer.apply_row(&mut row);
        let codes = detector.quantized.quantize_input(&row);
        let golden: Vec<i32> =
            detector.quantized.infer_codes(&codes).iter().map(|&c| i32::from(c)).collect();
        let lanes: Vec<i32> = codes.iter().map(|&c| i32::from(c)).collect();
        let hw = sim.process(&lanes).outputs.concat();
        assert_eq!(hw, golden);
    }
}

#[test]
fn kmeans_and_svm_hardware_paths_match_golden_models() {
    // KMeans on the IoT task.
    let mut iot = IotGenerator::new(102);
    let ds = iot.multiclass_dataset(800);
    let km = KMeans::fit_supervised(ds.features(), ds.labels(), 5);
    let qkm = QuantizedKMeans::quantize(&km, ds.features());
    let kp = compile(
        &frontend::kmeans_to_graph(&qkm),
        &GridConfig::default(),
        &CompileOptions::default(),
    )
    .expect("kmeans fits");
    let mut ksim = CgraSim::new(&kp);
    for x in ds.features().iter().take(200) {
        let codes = qkm.quantize_input(x);
        let lanes: Vec<i32> = codes.iter().map(|&c| i32::from(c)).collect();
        assert_eq!(ksim.process(&lanes).outputs[0][0] as usize, qkm.predict_codes(&codes));
    }

    // RBF SVM on the KDD task.
    let mut kdd = KddGenerator::new(103);
    let sds = kdd.binary_dataset(1_000, FeatureView::Svm8);
    let svm = Svm::train(sds.features(), sds.labels(), &SvmConfig::default());
    let qsvm = QuantizedSvm::quantize(&svm, sds.features());
    let sp =
        compile(&frontend::svm_to_graph(&qsvm), &GridConfig::default(), &CompileOptions::default())
            .expect("svm fits");
    let mut ssim = CgraSim::new(&sp);
    for x in sds.features().iter().take(200) {
        let codes = qsvm.quantize_input(x);
        let lanes: Vec<i32> = codes.iter().map(|&c| i32::from(c)).collect();
        assert_eq!(ssim.process(&lanes).outputs[0][0] as usize, qsvm.predict_codes(&codes));
    }
}

/// Table 7's invariant through the public API: unrolling trades area for
/// initiation interval exactly.
#[test]
fn unrolling_trades_area_for_line_rate() {
    let g = taurus_ir::microbench::conv1d();
    let grid = GridConfig::default();
    let mut prev_cus = 0usize;
    for (unroll, ii) in [(1usize, 8u32), (2, 4), (4, 2), (8, 1)] {
        let p = compile(&g, &grid, &CompileOptions { unroll: Some(unroll), max_cus: None })
            .expect("fits");
        assert_eq!(p.timing.initiation_interval, ii, "unroll {unroll}");
        assert!(p.resources.cus > prev_cus);
        prev_cus = p.resources.cus;
        // Functional equivalence under time multiplexing.
        let mut sim = CgraSim::new(&p);
        let x: Vec<i32> = (0..9).collect();
        let out = sim.process(&x).outputs.concat();
        let expect: Vec<i32> = (0..8).map(|i| 3 * x[i as usize] - 2 * x[i as usize + 1]).collect();
        assert_eq!(out, expect);
    }
}

/// §5.1.1's headline: the full MapReduce grid costs ≈4.8 mm² and adds
/// ≈3.8 % chip area across four pipelines.
#[test]
fn grid_overhead_matches_paper_headline() {
    let r = grid_report(&GridConfig::default(), &SwitchChip::default(), 0.1);
    assert!((r.area_mm2 - 4.8).abs() < 0.3, "{} mm²", r.area_mm2);
    assert!((r.area_overhead_pct - 3.8).abs() < 0.4, "{} %", r.area_overhead_pct);
}

/// The §5.2.2 headline: same trace, same features — Taurus detects orders
/// of magnitude more anomalous packets than the sampled control plane.
#[test]
fn taurus_beats_control_plane_by_orders_of_magnitude() {
    let detector = build_detector_from_trace(104, 800);
    let records = KddGenerator::new(105).take(600);
    let trace = PacketTrace::expand(records, &TraceConfig { seed: 105, ..Default::default() });
    let rows = run_table8(&detector, &trace, &[1e-3]);
    let row = &rows[0];
    assert!(row.taurus.detected_pct > 30.0, "taurus {}", row.taurus.detected_pct);
    assert!(
        row.taurus.detected_pct > 20.0 * row.baseline.detected_pct.max(0.01),
        "taurus {} vs baseline {}",
        row.taurus.detected_pct,
        row.baseline.detected_pct
    );
    // Latency gap: switch path is ~100 ns; the baseline's sample-to-rule
    // loop is tens of milliseconds when it installs anything at all.
    assert!(row.taurus.mean_latency_ns < 1_000.0);
}

/// The full experiment path is deterministic under fixed seeds.
#[test]
fn end_to_end_is_deterministic() {
    let run = || {
        let records = KddGenerator::new(106).take(150);
        let trace = PacketTrace::expand(records, &TraceConfig { seed: 106, ..Default::default() });
        extract_stream_features(&trace)
    };
    assert_eq!(run(), run());
}

/// Recurrent models serialize on state feedback: latency and II scale
/// with the history window, which keeps the LSTM below line rate.
#[test]
fn lstm_recurrence_scales_with_history() {
    let lstm = taurus_ml::Lstm::new(&taurus_ml::LstmConfig { input: 4, hidden: 8, classes: 3 }, 1);
    let grid = GridConfig::default();
    let lat = |steps: usize| {
        let g = frontend::lstm_to_graph(&lstm, steps, 4.0);
        compile(&g, &grid, &CompileOptions::default()).expect("fits").timing
    };
    let t2 = lat(2);
    let t6 = lat(6);
    assert!((t6.latency_ns / t2.latency_ns - 3.0).abs() < 0.01, "3× steps ⇒ 3× latency");
    assert!(t2.initiation_interval > 1, "recurrence is below line rate");
}

/// Weights-vs-flow-rules (§3): the deployed DNN's parameters are a few
/// hundred bytes, orders of magnitude below rule-table equivalents.
#[test]
fn weights_are_small() {
    let detector = AnomalyDetector::train_default(107, 500);
    assert!(detector.weight_bytes() < 1_000, "{} B", detector.weight_bytes());
}

/// The generality claim (Table 1): one builder-constructed switch hosts
/// two distinct [`taurus_core::TaurusApp`]s — the anomaly DNN and the
/// SYN-flood scorer — with independent per-app counters, and dropping
/// one app from the deployment changes neither survivor's counters.
#[test]
fn one_switch_hosts_two_apps_with_independent_counters() {
    use taurus_core::apps::SynFloodDetector;
    use taurus_core::SwitchBuilder;

    let detector = AnomalyDetector::train_default(108, 1_500);
    let syn = SynFloodDetector::default_deployment();
    let records = KddGenerator::new(109).take(100);
    let trace = PacketTrace::expand(records, &TraceConfig::default());

    let mut both = SwitchBuilder::new().register(&detector).register(&syn).build();
    let mut solo = SwitchBuilder::new().register(&syn).build();
    for tp in trace.packets.iter().take(1_000) {
        both.process_trace_verdict(tp);
        solo.process_trace_verdict(tp);
    }

    let report = both.report();
    assert_eq!(report.apps.len(), 2);
    let [ad, sf] = &report.apps[..] else { panic!("two apps") };
    assert_eq!(ad.name, "anomaly-detection");
    assert_eq!(sf.name, "syn-flood");
    assert_eq!(ad.counters.packets, report.packets);
    assert_eq!(sf.counters.packets, report.packets);
    assert!(ad.counters.ml_packets > 0);
    assert!(sf.counters.ml_packets > 0);

    // Isolation: the SYN app behaves identically with or without a
    // co-hosted DNN (its pipeline, registers, and engine are its own).
    assert_eq!(solo.report().apps[0].counters, sf.counters);
}
