//! The four benchmark workloads. Names are permanent: a later PR may
//! add a workload, never rename or retune one (that would silently
//! re-baseline every metric recorded against it).
//!
//! Everything the system under test sees is generated here from the one
//! `--seed` argument: the KDD connection generator, the trace expansion
//! seed, and the training seed.

use std::time::Instant;

use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{e2e, EngineBackend, ModelUpdate, TaurusApp};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_dataset::{Dataset, Standardizer};
use taurus_pisa::{FlowTableKind, PipelineConfig};

/// `(name, why)` of every workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ad-dnn",
        "anomaly DNN on the CGRA engine, state fits L2: engine and formatter are most of the packet",
    ),
    (
        "syn-thresh",
        "SYN-flood scorer on the Threshold backend: engine is free, so ingest, registers, MATs and the SPSC hand-off are the packet",
    ),
    (
        "many-flows",
        "Threshold roster on a keyed 4096x4 table with 30k short flows: table inserts and capacity evictions beside hits",
    ),
    (
        "ad-dnn-live",
        "ad-dnn with a full-program install after every 1024-packet chunk: control-plane writes beside data-plane reads",
    ),
];

/// Connections in the evaluation trace of the three KDD-default
/// workloads (≈84 k packets, ≈3.8 k resident flow entries).
const EVAL_CONNS: usize = 6_000;
/// Connections in the AD-DNN training trace (every 3rd packet trains).
const TRAIN_CONNS: usize = 4_000;
/// Connections in the `many-flows` trace (≈128 k packets): about twice
/// the keyed table's 16 384 entries, so half of all flows evict one.
const MANY_FLOWS_CONNS: usize = 30_000;

/// The hosted model: the two app shapes the repo ships.
pub enum Model {
    Dnn(Box<AnomalyDetector>),
    Syn(SynFloodDetector),
}

/// How long each part of building a workload took (the probe binary
/// reports these as the `setup_s` layers).
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildTimes {
    /// Training-trace feature extraction + `AnomalyDetector::from_data`
    /// (SGD, quantization, compilation) + `prepare_update`; 0 for the
    /// hand-built SYN scorer.
    pub train_s: f64,
    /// `KddGenerator::take` + `PacketTrace::expand` of the evaluation
    /// trace.
    pub expand_s: f64,
}

/// One fully prepared workload: generated inputs plus the deployment
/// the harness builds switches and runtimes from.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub trace: PacketTrace,
    pub model: Model,
    pub backend: EngineBackend,
    pub config: PipelineConfig,
    /// Packets per `feed` call.
    pub chunk: usize,
    /// Install [`Workload::update`] after every chunk (`ad-dnn-live`).
    pub live: bool,
    /// A behaviour-preserving update for the hosted app, compiled once
    /// here; the harness bumps `version` before each install.
    pub update: ModelUpdate,
    pub times: BuildTimes,
}

impl Workload {
    /// Generates the named workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// An unknown workload name.
    pub fn build(name: &str, seed: u64) -> Result<Self, String> {
        let &(name, _) = WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let mut times = BuildTimes::default();

        let t0 = Instant::now();
        let (model, update, backend) = if name.starts_with("ad-dnn") {
            let (detector, update) = train_detector(seed);
            (Model::Dnn(Box::new(detector)), update, EngineBackend::CgraSim)
        } else {
            let syn = SynFloodDetector::default_deployment();
            // Same cutoff as the incumbent: a version bump with
            // identical verdict behaviour.
            let update = syn.retune(syn.threshold, 0, EngineBackend::Threshold);
            (Model::Syn(syn), update, EngineBackend::Threshold)
        };
        times.train_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let (conns, trace_config, config) = if name == "many-flows" {
            (
                MANY_FLOWS_CONNS,
                TraceConfig {
                    seed: seed ^ 0xBEEF,
                    mean_packets_per_conn: 3.0,
                    max_packets_per_conn: 16,
                    benign_hosts: 50_000,
                    ..TraceConfig::default()
                },
                PipelineConfig {
                    flow_table: FlowTableKind::Keyed { buckets: 4_096, ways: 4 },
                    ..PipelineConfig::default()
                },
            )
        } else {
            (
                EVAL_CONNS,
                TraceConfig { seed: seed ^ 0xBEEF, ..TraceConfig::default() },
                PipelineConfig::default(),
            )
        };
        let trace = PacketTrace::expand(KddGenerator::new(seed).take(conns), &trace_config);
        times.expand_s = t0.elapsed().as_secs_f64();

        let live = name == "ad-dnn-live";
        Ok(Self {
            name,
            seed,
            trace,
            model,
            backend,
            config,
            chunk: if live { 1024 } else { 4096 },
            live,
            update,
            times,
        })
    }

    /// Bucket count of a keyed flow table (`None` when direct-mapped):
    /// keyed mode resolves flow starts by table miss and routes by
    /// bucket.
    pub fn keyed_buckets(&self) -> Option<usize> {
        match self.config.flow_table {
            FlowTableKind::Keyed { buckets, .. } => Some(buckets),
            FlowTableKind::DirectMapped => None,
        }
    }

    /// The hosted app, for `register_on`.
    pub fn app(&self) -> &dyn TaurusApp {
        match &self.model {
            Model::Dnn(d) => d.as_ref(),
            Model::Syn(s) => s,
        }
    }
}

/// Trains the AD DNN on stream-extracted features of a dedicated
/// training trace — the steps of `e2e::build_detector_from_packets`,
/// keeping the training rows so the update can be calibrated on exactly
/// the data the incumbent was (same float model + same calibration rows
/// ⇒ the same quantized program, so installs never change a verdict and
/// `f1` stays a property of the trained model).
fn train_detector(seed: u64) -> (AnomalyDetector, ModelUpdate) {
    let train_seed = 0x7A;
    let _ = seed;
    let records = KddGenerator::new(train_seed).take(TRAIN_CONNS);
    let trace = PacketTrace::expand(
        records,
        &TraceConfig { seed: train_seed ^ 0x70, ..TraceConfig::default() },
    );
    let samples = e2e::extract_stream_features(&trace);
    let xs = samples.iter().step_by(3).map(|s| s.features.clone()).collect();
    let ys = samples.iter().step_by(3).map(|s| usize::from(s.anomalous)).collect();
    let mut ds = Dataset::new(xs, ys, 2);
    let standardizer = Standardizer::fit(&ds);
    standardizer.apply(&mut ds);
    ds.shuffle(train_seed ^ 0xAB);
    let (train, test) = ds.split(0.8);
    let detector = AnomalyDetector::from_data(
        train.features().to_vec(),
        train.labels().to_vec(),
        test.features().to_vec(),
        test.labels().to_vec(),
        standardizer,
        train_seed,
    );
    let update = detector.prepare_update(&detector.float_model, train.features(), 0);
    (detector, update)
}
