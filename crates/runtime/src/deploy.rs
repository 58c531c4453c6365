//! Online training against a **live** deployment (§5.2.3, Figs. 13–14):
//! the control-plane loop that samples telemetry from the actual trace
//! stream, retrains with real SGD, and installs each round's weights
//! onto a running [`StreamingRuntime`] — then reports the *deployed*
//! model's F1/detection over virtual time, measured from the verdicts
//! the data plane actually issued.
//!
//! This is the closed-loop counterpart of
//! [`taurus_controlplane::training::run_online_training`], which trains
//! the same way but evaluates on a held-out set instead of a running
//! switch. The loop lives in `taurus-runtime` (not `taurus-controlplane`)
//! purely because of crate direction: `taurus-core` depends on the
//! control-plane crate, so the code that touches both the trainer and
//! the runtime must sit above them.
//!
//! # How a round works
//!
//! 1. **Sample.** Each packet's register-stage features (the same
//!    [`FlowTracker`] semantics the switch computes) are sampled with
//!    probability `sampling_rate`; sampled rows are standardized with
//!    the deployment's fitted parameters and retained with their
//!    ground-truth labels in a bounded telemetry pool (the paper's
//!    XDP → InfluxDB path: the database keeps history, not just the
//!    newest burst — training on only the latest handful of samples
//!    thrashes the model with catastrophic forgetting).
//! 2. **Train.** Every time `buffer_size` *new* samples have arrived
//!    (and no install is in flight), the float model takes `epochs` of
//!    real SGD over the retained pool, with per-round parameters from
//!    [`TrainingRunConfig::train_params`].
//! 3. **Install.** The new weights are prepared once
//!    ([`AnomalyDetector::prepare_update`]: quantize → compile →
//!    `Arc`-shared program) and scheduled on the runtime at the packet
//!    index where virtual time reaches `trigger +`
//!    [`TrainingRunConfig::round_cost_ms`] — the old model keeps
//!    deciding every packet in that window, the paper's no-loss
//!    property.
//!
//! The runtime applies each update on **all shards at the same global
//! packet index**, so the deployed-F1 curve is bit-identical for any
//! shard count (the `online` bench binary cross-checks {1, 2, 4}).
//!
//! [`FlowTracker`]: taurus_pisa::FlowTracker
//! [`StreamingRuntime`]: crate::StreamingRuntime
//! [`AnomalyDetector::prepare_update`]: taurus_core::apps::AnomalyDetector::prepare_update

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taurus_controlplane::training::{ConvergencePoint, TrainingRunConfig};
use taurus_core::apps::AnomalyDetector;
use taurus_core::e2e::extract_stream_features;
use taurus_dataset::trace::PacketTrace;
use taurus_ml::Mlp;

use crate::runtime::{RuntimeBuilder, RuntimeReport};

/// Configuration of one online-deployment run: the control-plane
/// training knobs plus the data-plane geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// Training-loop knobs (sampling rate, buffer, epochs, batch,
    /// modeled train/install latencies, seed). `rounds` caps how many
    /// updates may be installed; `pkt_rate` is unused — virtual time
    /// comes from the trace's own timestamps.
    pub training: TrainingRunConfig,
    /// Switch replicas hosting the deployment.
    pub shards: usize,
    /// Packets per ingest batch.
    pub batch_size: usize,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        Self { training: TrainingRunConfig::default(), shards: 1, batch_size: 64 }
    }
}

/// One completed control-plane round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentRound {
    /// Round index (0-based).
    pub round: usize,
    /// Model version this round installed.
    pub version: u64,
    /// Global packet index at which the sample buffer filled.
    pub triggered_at_packet: u64,
    /// Global packet index at which the new weights took effect.
    pub installed_at_packet: u64,
    /// Virtual install time, seconds since the trace began.
    pub install_time_s: f64,
    /// Final-epoch mean training loss of this round's SGD.
    pub train_loss: f32,
}

/// Outcome of an online deployment: what the switch actually did, per
/// model segment, over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Deployed F1 (×100) per model segment, stamped at each segment's
    /// end time — segment *i* was decided by version *i + 1* (the
    /// initial model is installed as version 1 before the run).
    pub curve: Vec<ConvergencePoint>,
    /// Per-round control-plane records, in install order.
    pub rounds: Vec<DeploymentRound>,
    /// The sharded run's merged report, per-shard stats, and the raw
    /// per-segment confusion counts behind [`DeploymentReport::curve`].
    pub runtime: RuntimeReport,
    /// The last installed model version.
    pub final_version: u64,
}

impl DeploymentReport {
    /// Deployed F1 of the final segment (0 for an empty curve).
    pub fn final_f1(&self) -> f64 {
        self.curve.last().map_or(0.0, |p| p.f1_percent)
    }
}

/// Runs the closed loop: deploys `initial` (typically a fresh,
/// untrained model) onto a sharded runtime hosting `app`'s pipeline
/// shape, then samples → trains → installs for up to
/// `config.training.rounds` rounds while the runtime serves the trace,
/// and scores every verdict against ground truth per model segment.
///
/// The whole procedure is deterministic in `(app, initial, trace,
/// config)`; the shard count changes wall-clock only, never the report.
///
/// # Panics
///
/// Panics if the trace is empty or the shard geometry is invalid (see
/// [`RuntimeBuilder`]).
pub fn run_online_deployment(
    app: &AnomalyDetector,
    initial: &Mlp,
    trace: &PacketTrace,
    config: &DeploymentConfig,
) -> DeploymentReport {
    assert!(!trace.packets.is_empty(), "cannot deploy onto an empty trace");
    let tcfg = &config.training;
    let t0_ns = trace.packets[0].ts_ns;

    // Control-plane telemetry tap: the same register-stage features the
    // switch computes, standardized with the deployment's parameters.
    let samples = extract_stream_features(trace);
    let standardized: Vec<Vec<f32>> = samples
        .iter()
        .map(|s| {
            let mut row = s.features.clone();
            app.standardizer.apply_row(&mut row);
            row
        })
        .collect();

    let mut runtime = RuntimeBuilder::new()
        .shards(config.shards)
        .batch_size(config.batch_size)
        .register(app)
        .build();

    // Deploy the starting model as version 1 before any packet flows —
    // quantization needs calibration inputs, for which the control
    // plane uses its historical telemetry (modeled by a prefix of the
    // standardized stream).
    let calib_len = standardized.len().min(tcfg.buffer_size.max(32));
    let mut model = initial.clone();
    let mut version = 1u64;
    runtime
        .install_update(&app.prepare_update(&model, &standardized[..calib_len], version))
        .expect("initial deployment installs on a fresh runtime");

    // Walk the stream: Bernoulli-sample telemetry into the retained
    // pool, train whenever `buffer_size` new samples have arrived, and
    // schedule each round's weights at the packet index where its
    // virtual install time lands.
    let pool_cap = tcfg.buffer_size * 8;
    let mut rng = StdRng::seed_from_u64(tcfg.seed);
    let mut pool_x: VecDeque<Vec<f32>> = VecDeque::new();
    let mut pool_y: VecDeque<usize> = VecDeque::new();
    let mut fresh_samples = 0usize;
    let mut rounds: Vec<DeploymentRound> = Vec::new();
    let mut busy_until_idx = 0u64; // no new round while an install is in flight
    for (index, (sample, row)) in samples.iter().zip(&standardized).enumerate() {
        if rounds.len() == tcfg.rounds {
            break;
        }
        if rng.gen_bool(tcfg.sampling_rate.clamp(0.0, 1.0)) {
            if pool_x.len() == pool_cap {
                // Bounded retention: the oldest telemetry ages out.
                pool_x.pop_front();
                pool_y.pop_front();
            }
            pool_x.push_back(row.clone());
            pool_y.push_back(usize::from(sample.anomalous));
            fresh_samples += 1;
        }
        if fresh_samples < tcfg.buffer_size || (index as u64) < busy_until_idx {
            continue;
        }

        // Cost the round before spending it: if the modeled training +
        // install window runs past the end of the stream, the update
        // could never decide a packet — stop the loop instead of
        // appending an empty segment.
        let round = rounds.len();
        let delay_ms = tcfg.round_cost_ms(pool_x.len());
        let install_ts_ns = sample.ts_ns + (delay_ms * 1e6) as u64;
        let install_idx = trace.packets.partition_point(|p| p.ts_ns < install_ts_ns) as u64;
        if install_idx >= trace.packets.len() as u64 {
            break;
        }

        // Train: real SGD over the retained pool.
        let (px, py) = (pool_x.make_contiguous(), pool_y.make_contiguous());
        let train_loss = model.train(px, py, &tcfg.train_params(round));

        version += 1;
        // The runtime is fresh, so trace index == global stream index.
        runtime.schedule_update(install_idx, app.prepare_update(&model, px, version));
        rounds.push(DeploymentRound {
            round,
            version,
            triggered_at_packet: index as u64,
            installed_at_packet: install_idx,
            install_time_s: install_ts_ns.saturating_sub(t0_ns) as f64 / 1e9,
            train_loss,
        });
        busy_until_idx = install_idx;
        fresh_samples = 0;
    }

    // Serve the trace: every scheduled update lands on all shards at
    // its exact global packet index, and each worker scores verdicts
    // per model segment.
    let runtime_report = runtime.run_trace(trace);
    debug_assert_eq!(runtime_report.segments.len(), rounds.len() + 1);

    // Segment i ends at install i's virtual completion; the final
    // segment ends when the trace drains. (Every recorded install lands
    // strictly before the last packet — the scheduling loop stops at
    // the first round whose window would overrun the stream — so the
    // time axis is monotone by construction.)
    let end_time_s =
        trace.packets.last().map_or(0.0, |p| p.ts_ns.saturating_sub(t0_ns) as f64 / 1e9);
    let curve = runtime_report
        .segments
        .iter()
        .enumerate()
        .map(|(i, seg)| ConvergencePoint {
            time_s: rounds.get(i).map_or(end_time_s, |r| r.install_time_s),
            f1_percent: seg.f1_percent(),
        })
        .collect();

    DeploymentReport { curve, rounds, runtime: runtime_report, final_version: version }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_dataset::kdd::KddGenerator;
    use taurus_dataset::trace::TraceConfig;
    use taurus_ml::mlp::MlpConfig;

    fn small_setup() -> (AnomalyDetector, PacketTrace) {
        let app = taurus_core::e2e::build_detector_from_trace(61, 500);
        let records = KddGenerator::new(62).take(260);
        let trace = PacketTrace::expand(records, &TraceConfig { seed: 62, ..Default::default() });
        (app, trace)
    }

    fn smoke_config(shards: usize) -> DeploymentConfig {
        DeploymentConfig {
            training: TrainingRunConfig {
                sampling_rate: 0.3,
                buffer_size: 64,
                batch_size: 32,
                epochs: 4,
                rounds: 4,
                seed: 5,
                // The synthetic trace spans ~1 ms of virtual time, so
                // the modeled control-plane costs scale down with it.
                train_ms_per_batch: 0.8e-3,
                install_ms: 3e-3,
                ..TrainingRunConfig::default()
            },
            shards,
            batch_size: 32,
        }
    }

    #[test]
    fn deployment_installs_rounds_and_reports_segments() {
        let (app, trace) = small_setup();
        let fresh = Mlp::new(&MlpConfig::anomaly_dnn(), 7);
        let report = run_online_deployment(&app, &fresh, &trace, &smoke_config(2));
        assert!(!report.rounds.is_empty(), "the loop must complete at least one round");
        assert_eq!(report.curve.len(), report.rounds.len() + 1);
        assert_eq!(report.final_version, report.rounds.len() as u64 + 1);
        // Every packet was decided by exactly one segment's model.
        let total: u64 = report.runtime.segments.iter().map(|s| s.total()).sum();
        assert_eq!(total, trace.packets.len() as u64);
        // Install points strictly advance, and time with them.
        for w in report.rounds.windows(2) {
            assert!(w[1].installed_at_packet > w[0].installed_at_packet);
            assert!(w[1].install_time_s > w[0].install_time_s);
        }
    }

    #[test]
    fn deployment_report_is_shard_count_invariant() {
        let (app, trace) = small_setup();
        let fresh = Mlp::new(&MlpConfig::anomaly_dnn(), 7);
        let one = run_online_deployment(&app, &fresh, &trace, &smoke_config(1));
        let four = run_online_deployment(&app, &fresh, &trace, &smoke_config(4));
        assert_eq!(one.curve, four.curve, "deployed-F1 curve is bit-identical across shards");
        assert_eq!(one.rounds, four.rounds);
        assert_eq!(one.runtime.merged, four.runtime.merged);
        assert_eq!(one.runtime.segments, four.runtime.segments);
    }
}
