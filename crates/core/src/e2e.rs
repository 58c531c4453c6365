//! End-to-end harness: Taurus vs the control-plane baseline (Table 8).
//!
//! Both systems see the *same* packet trace and the *same* features:
//! stream features come from one deterministic pass of the switch's
//! register stage (its [`FrontEnd`], then a [`FlowTracker`]), the
//! Taurus path runs the
//! compiled int8 DNN per packet on the CGRA simulator, and the baseline
//! runs the float model in the sampled, batched, rule-installing control
//! loop. The paper's headline (§5.2.2): Taurus sustains the model's
//! offline F1 and detects two orders of magnitude more anomalous events.
//!
//! [`FlowTracker`]: taurus_pisa::FlowTracker
//! [`FrontEnd`]: crate::ingest::FrontEnd

use taurus_controlplane::baseline::{run_baseline, BaselineConfig, BaselineReport, PacketSample};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_dataset::Standardizer;
use taurus_ml::BinaryMetrics;
use taurus_pisa::registers::PacketObs;
use taurus_pisa::{FlowTracker, PipelineConfig, Verdict};

use crate::apps::AnomalyDetector;
use crate::ingest::{wire_obs, FrontEnd};
use crate::switch::SwitchBuilder;

/// One packet's extracted stream features and ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSample {
    /// Raw (unstandardized) 6-feature DNN view.
    pub features: [f32; 6],
    /// Ground-truth anomaly label.
    pub anomalous: bool,
    /// Originator IP (rule key).
    pub orig_ip: u32,
    /// Arrival time, ns.
    pub ts_ns: u64,
}

/// Extracts per-packet stream features with the switch's own register
/// stage at the default config: the same [`FrontEnd`] step, then the
/// same register accumulation (deterministic, so training and
/// deployment see identical inputs — the paper's "full model accuracy"
/// property).
pub fn extract_stream_features(trace: &PacketTrace) -> Vec<StreamSample> {
    let config = PipelineConfig::default();
    let mut front = FrontEnd::new(&config);
    let mut tracker = FlowTracker::from_config(&config);
    trace
        .packets
        .iter()
        .map(|tp| {
            let mut obs = PacketObs::default();
            wire_obs(tp, &mut obs);
            let (op, (dst_count, srv_count)) = front.step(&mut obs, tp.conn_id);
            let f = tracker.observe_slot(op, &obs, dst_count, srv_count);
            StreamSample {
                features: f.encode_dnn6(),
                anomalous: tp.anomalous,
                orig_ip: if tp.reverse { tp.tuple.dst_ip } else { tp.tuple.src_ip },
                ts_ns: tp.ts_ns,
            }
        })
        .collect()
}

/// Trains the anomaly detector on stream-extracted features from a
/// dedicated training trace (the §5.2.2 methodology: models learn the
/// same features the data plane computes).
pub fn build_detector_from_trace(seed: u64, n_train_records: usize) -> AnomalyDetector {
    let records = KddGenerator::new(seed).take(n_train_records);
    let trace =
        PacketTrace::expand(records, &TraceConfig { seed: seed ^ 0x70, ..Default::default() });
    build_detector_from_packets(&trace, seed)
}

/// Trains the anomaly detector from an explicit training trace — the
/// same every-3rd-packet decorrelation, standardization, and 80/20
/// split as [`build_detector_from_trace`], for callers that shape their
/// own workload (e.g. non-default class priors or offered rates).
pub fn build_detector_from_packets(trace: &PacketTrace, seed: u64) -> AnomalyDetector {
    let samples = extract_stream_features(trace);
    // Decorrelate: take every 3rd packet for training.
    let xs: Vec<[f32; 6]> = samples.iter().step_by(3).map(|s| s.features).collect();
    let ys: Vec<usize> = samples.iter().step_by(3).map(|s| usize::from(s.anomalous)).collect();
    let ds = taurus_dataset::Dataset::new(xs, ys, 2);
    let standardizer = Standardizer::fit(&ds);
    let mut ds_std = ds;
    standardizer.apply(&mut ds_std);
    ds_std.shuffle(seed ^ 0xAB);
    let (train, test) = ds_std.split(0.8);
    AnomalyDetector::from_data(
        train.features().to_vec(),
        train.labels().to_vec(),
        test.features().to_vec(),
        test.labels().to_vec(),
        standardizer,
        seed,
    )
}

/// Taurus-side evaluation results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaurusEvalReport {
    /// Percentage of anomalous packets dropped at the switch.
    pub detected_pct: f64,
    /// Packet-level F1 (×100).
    pub f1_percent: f64,
    /// Mean pipeline latency, ns.
    pub mean_latency_ns: f64,
    /// Packets evaluated.
    pub packets: usize,
}

/// Runs the Taurus data path over a trace and scores per-packet verdicts.
pub fn run_taurus(detector: &AnomalyDetector, trace: &PacketTrace) -> TaurusEvalReport {
    let mut switch = SwitchBuilder::new().register(detector).build();
    let mut metrics = BinaryMetrics::default();
    let mut latency_sum = 0u64;
    for tp in &trace.packets {
        let r = switch.process_trace_verdict(tp);
        latency_sum += r.latency_ns;
        metrics.record(r.verdict == Verdict::Drop, tp.anomalous);
    }
    TaurusEvalReport {
        detected_pct: metrics.detected_percent(),
        f1_percent: metrics.f1_percent(),
        mean_latency_ns: latency_sum as f64 / trace.packets.len().max(1) as f64,
        packets: trace.packets.len(),
    }
}

/// One Table 8 row: baseline and Taurus on the same trace at one
/// sampling rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Table8Row {
    /// Control-plane sampling rate.
    pub sampling_rate: f64,
    /// Baseline measurements.
    pub baseline: BaselineReport,
    /// Taurus measurements.
    pub taurus: TaurusEvalReport,
}

/// Runs the full Table 8 comparison over one evaluation trace.
pub fn run_table8(
    detector: &AnomalyDetector,
    trace: &PacketTrace,
    sampling_rates: &[f64],
) -> Vec<Table8Row> {
    let samples = extract_stream_features(trace);
    // The baseline's server model consumes standardized float features.
    let baseline_samples: Vec<PacketSample> = samples
        .iter()
        .map(|s| {
            let mut row = s.features;
            detector.standardizer.apply_row(&mut row);
            PacketSample {
                ts_ns: s.ts_ns,
                src_ip: s.orig_ip,
                features: row.to_vec(),
                anomalous: s.anomalous,
            }
        })
        .collect();
    let taurus = run_taurus(detector, trace);
    sampling_rates
        .iter()
        .map(|&rate| Table8Row {
            sampling_rate: rate,
            baseline: run_baseline(
                &baseline_samples,
                &detector.float_model,
                &BaselineConfig { sampling_rate: rate, ..BaselineConfig::default() },
            ),
            taurus,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_features_are_deterministic() {
        let records = KddGenerator::new(31).take(100);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        assert_eq!(extract_stream_features(&trace), extract_stream_features(&trace));
    }

    #[test]
    fn detector_from_trace_has_usable_f1() {
        let d = build_detector_from_trace(41, 600);
        assert!(d.offline_f1 > 40.0, "offline F1 {}", d.offline_f1);
    }

    #[test]
    fn taurus_f1_tracks_offline_f1() {
        let d = build_detector_from_trace(42, 800);
        let records = KddGenerator::new(43).take(400);
        let trace = PacketTrace::expand(records, &TraceConfig { seed: 43, ..Default::default() });
        let r = run_taurus(&d, &trace);
        assert!(r.packets > 0);
        // The data plane runs the same model on the same features: its F1
        // should be within a band of the offline score (§5.2.2's claim).
        assert!(
            (r.f1_percent - d.offline_f1).abs() < 25.0,
            "taurus {} vs offline {}",
            r.f1_percent,
            d.offline_f1
        );
        assert!(r.detected_pct > 20.0, "detected {}", r.detected_pct);
    }

    #[test]
    fn table8_taurus_beats_baseline_by_orders_of_magnitude() {
        let d = build_detector_from_trace(44, 800);
        let records = KddGenerator::new(45).take(500);
        let trace = PacketTrace::expand(records, &TraceConfig { seed: 45, ..Default::default() });
        let rows = run_table8(&d, &trace, &[1e-3]);
        let row = &rows[0];
        assert!(
            row.taurus.detected_pct > 10.0 * row.baseline.detected_pct.max(0.01),
            "taurus {}% vs baseline {}%",
            row.taurus.detected_pct,
            row.baseline.detected_pct
        );
        assert!(row.taurus.f1_percent > row.baseline.f1_percent);
    }
}
