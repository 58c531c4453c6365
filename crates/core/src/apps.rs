//! In-network applications: the Table 1 registry and the concrete
//! [`TaurusApp`] implementations — the §5.2.2 anomaly-detection bundle
//! and the SYN-flood detector (Table 1's "DoS" row).

use std::sync::Arc;

use taurus_cgra::PreparedProgram;
use taurus_compiler::{compile, frontend, CompileOptions, GridConfig, GridProgram};
use taurus_dataset::kdd::{FeatureView, KddGenerator};
use taurus_dataset::Standardizer;
use taurus_ir::GraphBuilder;
use taurus_ml::mlp::MlpConfig;
use taurus_ml::{Mlp, QuantizedMlp, Rows, TrainParams};
use taurus_pisa::mat::MatchTable;
use taurus_pisa::pipeline::{anomaly_post_table, proto_select_table, ThresholdEngine};
use taurus_pisa::registers::FlowFeatures;
use taurus_pisa::RangeTable;

use crate::app::{BoxedEngine, EngineBackend, TaurusApp, VerdictPolicy};
use crate::engine::CgraEngine;
use crate::update::{EngineUpdate, FormatterFactory, ModelUpdate};

/// Reaction-time classes from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReactionTime {
    /// Must decide on every packet.
    PerPacket,
    /// Per flowlet (burst of a flow).
    PerFlowlet,
    /// Per flow.
    PerFlow,
    /// Per microburst.
    PerMicroburst,
}

/// One Table 1 row: an in-network application and its demanded reaction
/// times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppInfo {
    /// Application name as printed in Table 1.
    pub name: &'static str,
    /// Security (true) or performance (false) category.
    pub security: bool,
    /// Demanded reaction granularities.
    pub reaction: &'static [ReactionTime],
}

/// The Table 1 application registry.
pub fn registry() -> Vec<AppInfo> {
    use ReactionTime::*;
    vec![
        AppInfo { name: "Heavy Hitters", security: true, reaction: &[PerPacket] },
        AppInfo {
            name: "DoS (e.g., SYN Flood)",
            security: true,
            reaction: &[PerPacket, PerFlow, PerMicroburst],
        },
        AppInfo { name: "Probes (e.g., Port Scan)", security: true, reaction: &[PerFlow] },
        AppInfo { name: "U2R: Unauth. Access to Root", security: true, reaction: &[PerFlow] },
        AppInfo { name: "R2L: Unauth. Remote Access", security: true, reaction: &[PerFlow] },
        AppInfo { name: "Congestion Control", security: false, reaction: &[PerPacket] },
        AppInfo { name: "Active Queue Mgmt (AQM)", security: false, reaction: &[PerPacket] },
        AppInfo {
            name: "Traffic Classification",
            security: false,
            reaction: &[PerFlowlet, PerFlow],
        },
        AppInfo { name: "Load Balancing", security: false, reaction: &[PerPacket, PerFlowlet] },
        AppInfo {
            name: "Switching and Routing",
            security: false,
            reaction: &[PerPacket, PerFlowlet],
        },
    ]
}

/// The complete anomaly-detection application: trained float model,
/// quantized deployment model, feature standardizer, compiled grid
/// program, and decision threshold.
#[derive(Debug)]
pub struct AnomalyDetector {
    /// The control plane's float model (used by the baseline and for
    /// online training).
    pub float_model: Mlp,
    /// The int8 deployment model (the golden reference for the switch).
    pub quantized: QuantizedMlp,
    /// Standardizer fitted on the training features.
    pub standardizer: Standardizer,
    /// The compiled MapReduce program with its execution plan, prepared
    /// once here (shared: every replica's engine holds the handle).
    pub program: PreparedProgram,
    /// Output code meaning "anomalous" (quantized 0.5 of the sigmoid).
    pub threshold_code: i64,
    /// Offline F1 (×100) on the held-out connection test set.
    pub offline_f1: f64,
    /// The preprocessing MATs of `standardizer` + `quantized`'s input
    /// range, built once here and shared by every replica's formatter.
    tables: Arc<Dnn6Tables>,
}

/// The float definition of the AD-DNN's feature formatting:
/// [`FlowFeatures::encode_dnn6`] → standardize → quantize. The control
/// plane's view, and what [`Dnn6Tables`] is compiled from.
fn dnn6_float_codes(
    f: &FlowFeatures,
    standardizer: &Standardizer,
    quantized: &QuantizedMlp,
) -> [i32; 6] {
    let mut row = f.encode_dnn6();
    standardizer.apply_row(&mut row);
    let params = quantized.input_params();
    row.map(|v| i32::from(params.quantize(v)))
}

/// The AD-DNN's preprocessing MATs: [`dnn6_float_codes`] per register.
/// Each lane reads one register, and log → standardize → quantize is a
/// monotone step function of it, so the five counters are range tables
/// and the protocol is a direct table — the data plane formats features
/// without floating point, bit-identically to the float definition.
#[derive(Debug)]
struct Dnn6Tables {
    /// `duration_ns`, `fwd_bytes`, `rev_bytes`, `dst_count`, `srv_count`
    /// (lanes 0, 2, 3, 4, 5).
    counters: [RangeTable; 5],
    /// `proto` (lane 1).
    proto: [i32; 256],
}

impl Dnn6Tables {
    /// Compiles the tables of one model: a few ms of bisection over the
    /// float definition.
    ///
    /// # Panics
    ///
    /// Panics if a lane is not monotone in its register, which would
    /// make the tables mis-code (libm's `ln_1p` is monotone to well
    /// below one quantization step).
    fn compile(standardizer: &Standardizer, quantized: &QuantizedMlp) -> Self {
        let counter = |lane: usize, set: fn(&mut FlowFeatures, u64)| {
            RangeTable::compile(|v| {
                let mut f = FlowFeatures::default();
                set(&mut f, v);
                dnn6_float_codes(&f, standardizer, quantized)[lane]
            })
            .expect("log, standardize, quantize is monotone in the register")
        };
        Self {
            counters: [
                counter(0, |f, v| f.duration_ns = v),
                counter(2, |f, v| f.fwd_bytes = v),
                counter(3, |f, v| f.rev_bytes = v),
                counter(4, |f, v| f.dst_count = v),
                counter(5, |f, v| f.srv_count = v),
            ],
            proto: core::array::from_fn(|p| {
                let f = FlowFeatures { proto: p as u8, ..FlowFeatures::default() };
                dnn6_float_codes(&f, standardizer, quantized)[1]
            }),
        }
    }

    fn format(&self, f: &FlowFeatures, out: &mut Vec<i32>) {
        let [duration, fwd, rev, dst, srv] = &self.counters;
        out.extend_from_slice(&[
            duration.lookup(f.duration_ns),
            self.proto[usize::from(f.proto)],
            fwd.lookup(f.fwd_bytes),
            rev.lookup(f.rev_bytes),
            dst.lookup(f.dst_count),
            srv.lookup(f.srv_count),
        ]);
    }
}

/// The one constructor of AD-DNN formatters: every formatter the
/// factory hands out reads the same table set.
fn dnn6_formatter_factory(tables: Arc<Dnn6Tables>) -> FormatterFactory {
    Arc::new(move || {
        let tables = Arc::clone(&tables);
        Box::new(move |f: &FlowFeatures, out: &mut Vec<i32>| tables.format(f, out))
    })
}

impl AnomalyDetector {
    /// Trains the paper's 4-layer DNN (6 → 12 → 6 → 3 → 1, §5.1.2) on
    /// synthetic KDD-like connection records, quantizes it, and compiles
    /// it for the default grid.
    ///
    /// This is the *connection-record* training path used for Table 5 and
    /// quick starts; the end-to-end harness retrains on stream-extracted
    /// features (see `e2e::build_detector_from_trace`).
    pub fn train_default(seed: u64, n_records: usize) -> Self {
        let mut gen = KddGenerator::new(seed);
        let mut ds = gen.binary_dataset(n_records, FeatureView::Dnn6);
        ds.shuffle(seed ^ 0x5151);
        let standardizer = Standardizer::fit(&ds);
        let mut ds_std = ds;
        standardizer.apply(&mut ds_std);
        let (train, test) = ds_std.split(0.8);
        Self::from_data(
            train.features().to_vec(),
            train.labels().to_vec(),
            test.features().to_vec(),
            test.labels().to_vec(),
            standardizer,
            seed,
        )
    }

    /// Builds the detector from explicit standardized train/test splits.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or widths differ from the
    /// DNN's six inputs.
    pub fn from_data(
        train_x: Rows,
        train_y: Vec<usize>,
        test_x: Rows,
        test_y: Vec<usize>,
        standardizer: Standardizer,
        seed: u64,
    ) -> Self {
        assert!(!train_x.is_empty(), "empty training set");
        assert!(train_x.width() == 6, "AD DNN takes 6 features");
        let cfg = MlpConfig::anomaly_dnn();
        let mut model = Mlp::new(&cfg, seed);
        model.train(
            &train_x,
            &train_y,
            &TrainParams { epochs: 30, lr: 0.08, ..TrainParams::default() },
        );
        let quantized = QuantizedMlp::quantize(&model, &train_x);
        let program = compile_dnn(&quantized);
        let threshold_code = i64::from(quantized.output_params().quantize(0.5));
        let offline_f1 = taurus_ml::BinaryMetrics::from_pairs(
            test_x.iter().zip(&test_y).map(|(x, &y)| (quantized.predict_class(x) == 1, y == 1)),
        )
        .f1_percent();
        let tables = Arc::new(Dnn6Tables::compile(&standardizer, &quantized));
        Self {
            float_model: model,
            quantized,
            standardizer,
            program,
            threshold_code,
            offline_f1,
            tables,
        }
    }

    /// Encodes standardized features into the model's int8 input codes.
    pub fn encode(&self, standardized: &[f32]) -> Vec<i32> {
        self.quantized.quantize_input(standardized).into_iter().map(i32::from).collect()
    }

    /// Standardizes raw stream features then encodes them.
    pub fn format_features(&self, raw: &[f32]) -> Vec<i32> {
        let mut row = raw.to_vec();
        self.standardizer.apply_row(&mut row);
        self.encode(&row)
    }

    /// Validates the paper's sanity check: the DNN's weights occupy a few
    /// KB, versus megabytes of equivalent flow rules (§3).
    pub fn weight_bytes(&self) -> usize {
        self.quantized.weight_bytes()
    }

    /// Prepares a live [`ModelUpdate`] from a retrained float model —
    /// the control-plane half of §5.2.3's weight-install path, done
    /// *once* per update regardless of replica count:
    ///
    /// 1. post-training int8 quantization against `calibration`
    ///    (**standardized** feature rows — typically the sample buffer
    ///    the round trained on, the only data the control plane has),
    /// 2. lowering + compilation into a fresh [`GridProgram`] and its
    ///    execution plan, one [`PreparedProgram`] shared by handle by
    ///    every replica that installs the update,
    /// 3. a new feature-formatter factory (the model's input
    ///    quantization range moved with the weights) and a new verdict
    ///    MAT (the quantized 0.5 cutoff lives in the new output range).
    ///
    /// The detector itself is not mutated; it describes the deployment
    /// (name, standardizer, pipeline shape) while the update carries the
    /// new model.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty, has non-6-wide rows, or the
    /// model does not fit the default grid (the AD DNN always does).
    pub fn prepare_update(&self, model: &Mlp, calibration: &Rows, version: u64) -> ModelUpdate {
        let quantized = QuantizedMlp::quantize(model, calibration);
        let threshold_code = i64::from(quantized.output_params().quantize(0.5));
        let tables = Arc::new(Dnn6Tables::compile(&self.standardizer, &quantized));
        ModelUpdate {
            app: self.name().to_string(),
            version,
            engine: EngineUpdate::Program(compile_dnn(&quantized)),
            formatter: Some(dnn6_formatter_factory(tables)),
            post_tables: Some([anomaly_post_table(threshold_code)].into()),
        }
    }
}

/// Lowers the quantized AD DNN and compiles it — program and execution
/// plan — for the default grid.
fn compile_dnn(quantized: &QuantizedMlp) -> PreparedProgram {
    let graph = frontend::mlp_to_graph(quantized);
    compile(&graph, &GridConfig::default(), &CompileOptions::default())
        .expect("AD DNN fits the default grid")
        .into()
}

impl TaurusApp for AnomalyDetector {
    fn name(&self) -> &str {
        "anomaly-detection"
    }

    fn reaction_time(&self) -> ReactionTime {
        ReactionTime::PerPacket
    }

    fn feature_count(&self) -> usize {
        6
    }

    fn program(&self) -> Option<Arc<GridProgram>> {
        Some(Arc::clone(self.program.program()))
    }

    fn build_engine(&self, backend: EngineBackend) -> BoxedEngine {
        match backend {
            // The prepared handle, not `program()`: replicas share the
            // execution plan instead of compiling one each.
            EngineBackend::CgraSim => Box::new(CgraEngine::new(self.program.clone())),
            EngineBackend::Threshold => {
                Box::new(ThresholdEngine { threshold: self.heuristic_threshold() })
            }
        }
    }

    fn formatter_factory(&self) -> FormatterFactory {
        dnn6_formatter_factory(Arc::clone(&self.tables))
    }

    fn post_tables(&self, backend: EngineBackend) -> Vec<MatchTable> {
        match backend {
            // The compiled DNN emits sigmoid codes; drop at quantized 0.5.
            EngineBackend::CgraSim => vec![anomaly_post_table(self.threshold_code)],
            // The heuristic emits 0/1 (standardized feature mass above
            // average, via the default `heuristic_threshold` of 0).
            EngineBackend::Threshold => vec![anomaly_post_table(1)],
        }
    }
}

/// A SYN-flood / DDoS detector (Table 1's "DoS" row): a compiled linear
/// scorer over the register stage's SYN-flood signature — bare-SYN
/// count, destination/service fan-in, and total packets (half-open
/// flows score high, long-lived established flows score negative).
///
/// Deliberately a *different shape* of [`TaurusApp`] from the DNN: a
/// hand-built four-feature MapReduce program with a single dot-product
/// row, proving the switch hosts heterogeneous models side by side.
#[derive(Debug)]
pub struct SynFloodDetector {
    /// The compiled one-row scorer with its execution plan.
    pub program: PreparedProgram,
    /// Score at or above which the packet is dropped.
    pub threshold: i64,
}

/// Weights of the linear scorer over
/// `[syn_only, dst_count, srv_count, packets]`.
const SYN_FLOOD_WEIGHTS: [i8; 4] = [3, 2, 2, -1];

impl SynFloodDetector {
    /// Compiles the scorer for the default grid.
    pub fn new(threshold: i64) -> Self {
        let mut b = GraphBuilder::new();
        let x = b.input(4);
        let w = b.weights("syn_score", 1, 4, SYN_FLOOD_WEIGHTS.to_vec());
        let dot = b.map_reduce_rows(w, x, 0);
        b.output(dot);
        let graph = b.finish().expect("scorer graph is valid");
        let program = compile(&graph, &GridConfig::default(), &CompileOptions::default())
            .expect("a one-row scorer always fits");
        Self { program: program.into(), threshold }
    }

    /// The default deployment: drop once the weighted half-open score
    /// clears a burst of ~8 bare SYNs with fan-in.
    pub fn default_deployment() -> Self {
        Self::new(40)
    }

    /// Prepares a live threshold retune for a deployment on `backend`.
    /// The linear scorer's weights stay put; only the drop cutoff moves,
    /// which lands in different places per backend: the CGRA deployment
    /// thresholds in the postprocessing MAT (the engine emits raw
    /// scores), while the heuristic backend thresholds inside
    /// [`taurus_pisa::LinearThresholdEngine`] itself (updated in
    /// place) and its MAT keys on the resulting 0/1.
    pub fn retune(&self, threshold: i64, version: u64, backend: EngineBackend) -> ModelUpdate {
        match backend {
            // Re-assert the (unchanged) compiled program rather than
            // `KeepEngine`: the raw-score post MAT below is only
            // meaningful against a CGRA engine, and the program swap's
            // downcast check turns a backend mix-up into a loud
            // `BackendMismatch` instead of a silently dead cutoff.
            EngineBackend::CgraSim => ModelUpdate {
                app: self.name().to_string(),
                version,
                engine: EngineUpdate::Program(self.program.clone()),
                formatter: None,
                post_tables: Some([anomaly_post_table(threshold)].into()),
            },
            // The engine fires strictly above its cutoff; the MAT fires
            // at >= threshold. Same off-by-one as build_engine.
            EngineBackend::Threshold => {
                ModelUpdate::retune_threshold(self.name(), version, threshold.saturating_sub(1))
            }
        }
    }
}

impl TaurusApp for SynFloodDetector {
    fn name(&self) -> &str {
        "syn-flood"
    }

    fn reaction_time(&self) -> ReactionTime {
        ReactionTime::PerPacket
    }

    fn feature_count(&self) -> usize {
        4
    }

    fn program(&self) -> Option<Arc<GridProgram>> {
        Some(Arc::clone(self.program.program()))
    }

    fn build_engine(&self, backend: EngineBackend) -> BoxedEngine {
        match backend {
            EngineBackend::CgraSim => Box::new(CgraEngine::new(self.program.clone())),
            // The model is linear, so the heuristic backend can apply the
            // exact weights (crucially the negative packet-count weight —
            // an unweighted sum would drop every long-lived flow).
            EngineBackend::Threshold => Box::new(taurus_pisa::LinearThresholdEngine {
                weights: SYN_FLOOD_WEIGHTS.iter().map(|&w| i64::from(w)).collect(),
                threshold: self.threshold.saturating_sub(1), // post table fires at ≥ threshold
            }),
        }
    }

    fn formatter_factory(&self) -> FormatterFactory {
        // The formatter is stateless, so the factory just re-creates it.
        Arc::new(|| {
            Box::new(|f: &FlowFeatures, out: &mut Vec<i32>| {
                out.extend_from_slice(&[
                    f.syn_only.min(127) as i32,
                    f.dst_count.min(127) as i32,
                    f.srv_count.min(127) as i32,
                    f.packets.min(127) as i32,
                ]);
            })
        })
    }

    fn pre_tables(&self) -> Vec<MatchTable> {
        // SYN floods are a TCP phenomenon; everything else bypasses.
        vec![proto_select_table(&[6])]
    }

    fn post_tables(&self, backend: EngineBackend) -> Vec<MatchTable> {
        match backend {
            // The compiled scorer emits the weighted half-open score.
            EngineBackend::CgraSim => vec![anomaly_post_table(self.threshold)],
            // The heuristic already thresholds internally and emits 0/1.
            EngineBackend::Threshold => vec![anomaly_post_table(1)],
        }
    }

    fn verdict_policy(&self) -> VerdictPolicy {
        VerdictPolicy::Enforce
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FeatureFormatter;

    #[test]
    fn registry_matches_table1_shape() {
        let apps = registry();
        assert_eq!(apps.len(), 10);
        let security = apps.iter().filter(|a| a.security).count();
        assert_eq!(security, 5, "five security rows");
        assert!(apps.iter().any(|a| a.name.contains("SYN Flood") && a.reaction.len() == 3));
    }

    #[test]
    fn detector_trains_and_compiles() {
        let d = AnomalyDetector::train_default(1, 3_000);
        assert!(d.offline_f1 > 40.0, "offline F1 {}", d.offline_f1);
        assert!(d.program.resources.cus > 10, "DNN uses many CUs");
        assert!(d.program.timing.initiation_interval == 1, "line rate");
        assert!(d.weight_bytes() < 5_600, "weights beat flow rules: {}", d.weight_bytes());
    }

    #[test]
    fn format_features_produces_codes() {
        let d = AnomalyDetector::train_default(2, 1_000);
        let codes = d.format_features(&[1.0, 0.45, 5.0, 4.0, 2.0, 2.0]);
        assert_eq!(codes.len(), 6);
        assert!(codes.iter().all(|&c| (-128..=127).contains(&c)));
    }

    /// Asserts that `formatter` — a data-plane formatter over `tables` —
    /// equals the float definition everywhere a table could differ from
    /// it: every register value below 2^20, both sides of every
    /// threshold, the ends of `u64`, a million seeded values of every
    /// magnitude, and every protocol.
    fn assert_formatter_exact(
        formatter: &mut FeatureFormatter,
        tables: &Dnn6Tables,
        standardizer: &Standardizer,
        quantized: &QuantizedMlp,
    ) {
        let mut out = Vec::new();
        let mut check = |v: u64, proto: u8| {
            let f = FlowFeatures {
                duration_ns: v,
                fwd_bytes: v,
                rev_bytes: v,
                dst_count: v,
                srv_count: v,
                proto,
                ..FlowFeatures::default()
            };
            out.clear();
            formatter(&f, &mut out);
            assert_eq!(out, dnn6_float_codes(&f, standardizer, quantized), "v={v} proto={proto}");
        };
        for v in 0..1u64 << 20 {
            check(v, v as u8);
        }
        for table in &tables.counters {
            assert!(table.thresholds().len() > 16, "a quantized log has many steps");
            for &t in table.thresholds() {
                for v in t.saturating_sub(2)..=t.saturating_add(2) {
                    check(v, 6);
                }
            }
        }
        check(0, 17);
        check(u64::MAX, 17);
        // splitmix64, shifted so every bit length is as likely.
        let mut state = 0x7A_u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            check(z >> (z % 64), (z >> 8) as u8);
        }
    }

    #[test]
    fn table_formatter_equals_the_float_pipeline() {
        let d = AnomalyDetector::train_default(3, 2_000);
        assert_formatter_exact(&mut d.formatter(), &d.tables, &d.standardizer, &d.quantized);
    }

    #[test]
    fn update_formatter_equals_the_float_pipeline_of_the_retrained_model() {
        let d = AnomalyDetector::train_default(4, 2_000);
        // Retrain on standardized KDD rows so the input range moves.
        let mut ds = KddGenerator::new(9).binary_dataset(1_500, FeatureView::Dnn6);
        d.standardizer.apply(&mut ds);
        let mut retrained = Mlp::new(&MlpConfig::anomaly_dnn(), 11);
        retrained.train(
            ds.features(),
            ds.labels(),
            &TrainParams { epochs: 5, lr: 0.08, ..TrainParams::default() },
        );
        let update = d.prepare_update(&retrained, ds.features(), 1);
        let quantized = QuantizedMlp::quantize(&retrained, ds.features());
        assert_ne!(quantized.input_params(), d.quantized.input_params(), "the range moved");
        let tables = Dnn6Tables::compile(&d.standardizer, &quantized);
        let factory = update.formatter.expect("a retrained model carries its formatter");
        assert_formatter_exact(&mut factory(), &tables, &d.standardizer, &quantized);
    }

    #[test]
    fn every_formatter_of_a_model_reads_one_table_set() {
        let d = AnomalyDetector::train_default(5, 1_000);
        assert_eq!(Arc::strong_count(&d.tables), 1);
        let replicas = [d.formatter(), d.formatter_factory()()];
        assert_eq!(Arc::strong_count(&d.tables), 3, "two replicas share the detector's tables");
        drop(replicas);
        // The constructor `prepare_update` hands its tables to.
        let tables = Arc::new(Dnn6Tables::compile(&d.standardizer, &d.quantized));
        let factory = dnn6_formatter_factory(Arc::clone(&tables));
        let replicas = [factory(), factory()];
        assert_eq!(Arc::strong_count(&tables), 4, "the factory and its two formatters");
        drop(replicas);
    }

    #[test]
    fn syn_flood_scorer_compiles_to_line_rate() {
        let d = SynFloodDetector::default_deployment();
        assert_eq!(d.program.timing.initiation_interval, 1, "line rate");
        assert_eq!(d.program.graph.input_width(), 4);
        // Tiny relative to the DNN: a couple of units.
        assert!(d.program.resources.cus <= 4, "{} CUs", d.program.resources.cus);
    }

    #[test]
    fn syn_flood_engine_separates_floods_from_established_flows() {
        use taurus_pisa::InferenceEngine;
        let d = SynFloodDetector::default_deployment();
        let mut engine = d.build_engine(EngineBackend::CgraSim);
        // 20 half-open SYNs fanning into one host/service: well past 40.
        let flood = engine.infer(&[20, 20, 20, 20]);
        assert!(flood >= d.threshold, "flood score {flood}");
        // A long-lived established flow: one SYN, many packets.
        let benign = engine.infer(&[1, 2, 2, 120]);
        assert!(benign < d.threshold, "benign score {benign}");
    }

    #[test]
    fn syn_flood_backends_agree_on_verdict_boundary() {
        use taurus_pisa::InferenceEngine;
        let d = SynFloodDetector::default_deployment();
        let mut cgra = d.build_engine(EngineBackend::CgraSim);
        let mut heur = d.build_engine(EngineBackend::Threshold);
        // The heuristic applies the same weights, so the 0/1 flag must
        // equal "CGRA score ≥ threshold" on every probe — including the
        // long-lived benign flow the negative weight protects.
        for x in [[20, 20, 20, 20], [1, 2, 2, 120], [10, 5, 5, 10], [0, 0, 0, 0], [8, 8, 8, 8]] {
            let score = cgra.infer(&x);
            assert_eq!(heur.infer(&x), i64::from(score >= d.threshold), "features {x:?}");
        }
    }

    #[test]
    fn apps_declare_their_contracts() {
        let d = SynFloodDetector::default_deployment();
        assert_eq!(d.name(), "syn-flood");
        assert_eq!(d.reaction_time(), ReactionTime::PerPacket);
        assert_eq!(d.feature_count(), 4);
        assert!(d.program().is_some());
        assert_eq!(d.verdict_policy(), VerdictPolicy::Enforce);
        assert_eq!(d.pre_tables().len(), 1);
        assert_eq!(d.post_tables(EngineBackend::CgraSim).len(), 1);
    }
}
