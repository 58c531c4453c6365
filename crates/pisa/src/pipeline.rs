//! The assembled Taurus data-plane pipeline (Fig. 6).
//!
//! `Parse → preprocessing MATs (+ flow registers) → {MapReduce | bypass}
//! → postprocessing MATs`, with per-block latency accounting so
//! end-to-end packet latency can be reported. The
//! MapReduce block itself is pluggable via [`InferenceEngine`] — the
//! integration crate wires in the cycle-level CGRA simulator; unit tests
//! here use a trivial threshold engine.

use crate::flow_table::{FlowRegisters, FlowTableKind, SlotOp};
use crate::mat::{MatchTable, MAT_LATENCY_NS};
use crate::packet::Packet;
use crate::parser::{Parser, PARSE_LATENCY_NS};
use crate::phv::{Field, Phv};
use crate::registers::{FlowFeatures, FlowTracker, PacketObs};

/// The per-packet ML block: consumes formatted feature codes, produces a
/// verdict value for [`Field::MlOut`] plus its processing latency.
pub trait InferenceEngine {
    /// Runs inference on one packet's features.
    fn infer(&mut self, features: &[i32]) -> i64;

    /// Runs inference on a group of packets' features, one
    /// [`CodeGroup`] row each: `out[p]` receives row `p`'s verdict for
    /// every `p < group.rows()`, and the rest of `out` is left as it
    /// was. Equal to [`InferenceEngine::infer`] on each row in order,
    /// which is what the default does; an engine with a kernel of its
    /// own reads [`CodeGroup::lanes`] instead.
    fn infer_batch(&mut self, group: &mut CodeGroup, out: &mut [i64; BATCH_PACKETS]) {
        for (p, verdict) in out[..group.rows()].iter_mut().enumerate() {
            *verdict = self.infer(group.row(p));
        }
    }

    /// The block's ingress-to-egress latency in nanoseconds.
    fn latency_ns(&self) -> u64;
}

/// Boxed engines forward, so heterogeneous engines (CGRA-simulated apps
/// next to threshold heuristics) can share one pipeline type.
impl<E: InferenceEngine + ?Sized> InferenceEngine for Box<E> {
    fn infer(&mut self, features: &[i32]) -> i64 {
        (**self).infer(features)
    }

    fn infer_batch(&mut self, group: &mut CodeGroup, out: &mut [i64; BATCH_PACKETS]) {
        (**self).infer_batch(group, out);
    }

    fn latency_ns(&self) -> u64 {
        (**self).latency_ns()
    }
}

/// Packets a batch entry ([`TaurusPipeline::process_prepared_batch`])
/// takes at once: one across-packets engine group.
pub const BATCH_PACKETS: usize = 8;

/// One group's feature codes, lane-major: `lanes()[k][p]` is code `k`
/// of row `p`, one row per packet that visits the engine. Lanes past
/// [`CodeGroup::rows`] hold stale codes, which a kernel may compute on
/// and must not report.
#[derive(Debug, Clone)]
pub struct CodeGroup {
    lanes: Vec<[i32; BATCH_PACKETS]>,
    rows: usize,
    /// One row gathered for a per-row engine ([`CodeGroup::row`]).
    row: Vec<i32>,
}

impl CodeGroup {
    /// An empty group of rows `width` codes wide.
    pub fn new(width: usize) -> Self {
        Self { lanes: vec![[0; BATCH_PACKETS]; width], rows: 0, row: Vec::with_capacity(width) }
    }

    /// One lane per code, each holding that code of every row.
    #[inline]
    pub fn lanes(&self) -> &[[i32; BATCH_PACKETS]] {
        &self.lanes
    }

    /// The rows pushed since the last [`CodeGroup::clear`].
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends one row (a group holds [`BATCH_PACKETS`]).
    ///
    /// # Panics
    ///
    /// Panics unless `codes` is exactly the group's width.
    #[inline]
    pub fn push(&mut self, codes: &[i32]) {
        assert_eq!(codes.len(), self.lanes.len(), "a row is the group's width");
        for (lane, &code) in self.lanes.iter_mut().zip(codes) {
            lane[self.rows] = code;
        }
        self.rows += 1;
    }

    /// Drops every row.
    #[inline]
    pub fn clear(&mut self) {
        self.rows = 0;
    }

    /// Row `p`, gathered from the lanes.
    #[inline]
    pub fn row(&mut self, p: usize) -> &[i32] {
        self.row.clear();
        self.row.extend(self.lanes.iter().map(|lane| lane[p]));
        &self.row
    }
}

/// One packet as a batch entry reads it: the arguments of
/// [`TaurusPipeline::process_slot`].
pub trait PreparedInput {
    /// The header fields the parser loads into the PHV.
    fn packet(&self) -> &Packet;
    /// The register slot an upstream flow directory decided.
    fn slot_op(&self) -> SlotOp;
    /// The register-stage observation (its flow key is not read).
    fn obs(&self) -> PacketObs;
    /// The cross-flow window counts `(dst_count, srv_count)`, computed
    /// upstream.
    fn window_counts(&self) -> (u64, u64);
}

/// A feature formatter: turns raw register-stage [`FlowFeatures`] into
/// the integer codes a model consumes (standardization + quantization —
/// conceptually MAT range tables). Formatters *write into* a
/// caller-owned buffer (cleared by the pipeline before each call), so
/// the per-packet hot path reuses one scratch vector instead of
/// allocating a fresh code vector per packet.
pub type FeatureFormatter = Box<dyn FnMut(&FlowFeatures, &mut Vec<i32>) + Send>;

/// A trivial engine: flags when the sum of features exceeds a threshold.
/// Useful for tests and as the simplest possible "heuristic" baseline.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdEngine {
    /// Flag when Σ features > threshold.
    pub threshold: i64,
}

impl InferenceEngine for ThresholdEngine {
    fn infer(&mut self, features: &[i32]) -> i64 {
        i64::from(features.iter().map(|&v| i64::from(v)).sum::<i64>() > self.threshold)
    }

    /// Eight sums side by side, one per lane.
    fn infer_batch(&mut self, group: &mut CodeGroup, out: &mut [i64; BATCH_PACKETS]) {
        let mut sums = [0i64; BATCH_PACKETS];
        for lane in group.lanes() {
            for (sum, &code) in sums.iter_mut().zip(lane) {
                *sum += i64::from(code);
            }
        }
        for (verdict, sum) in out[..group.rows()].iter_mut().zip(sums) {
            *verdict = i64::from(sum > self.threshold);
        }
    }

    fn latency_ns(&self) -> u64 {
        1
    }
}

/// A weighted-sum heuristic engine: flags when `Σ wᵢ·xᵢ > threshold`.
/// The MAT-expressible analogue of a one-row linear scorer — lets apps
/// whose model is linear keep exact semantics (including negative
/// weights) on the heuristic backend.
#[derive(Debug, Clone)]
pub struct LinearThresholdEngine {
    /// Per-feature weights (features beyond `weights.len()` count 0).
    pub weights: Vec<i64>,
    /// Flag when the weighted sum exceeds this.
    pub threshold: i64,
}

impl InferenceEngine for LinearThresholdEngine {
    fn infer(&mut self, features: &[i32]) -> i64 {
        let score: i64 = features.iter().zip(&self.weights).map(|(&x, &w)| i64::from(x) * w).sum();
        i64::from(score > self.threshold)
    }

    /// Each row's dot product, read down the lanes. It wraps where
    /// `infer` overflows, which a release build wraps too.
    fn infer_batch(&mut self, group: &mut CodeGroup, out: &mut [i64; BATCH_PACKETS]) {
        let lanes = group.lanes();
        for (p, verdict) in out[..group.rows()].iter_mut().enumerate() {
            let score = lanes
                .iter()
                .zip(&self.weights)
                .fold(0i64, |s, (lane, &w)| s.wrapping_add(i64::from(lane[p]).wrapping_mul(w)));
            *verdict = i64::from(score > self.threshold);
        }
    }

    fn latency_ns(&self) -> u64 {
        1
    }
}

/// The final forwarding decision (written to [`Field::Decision`] by the
/// postprocessing MATs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Forward normally.
    Forward,
    /// Drop the packet.
    Drop,
    /// Forward but mark/flag (e.g., mirror to an analyzer).
    Flag,
}

impl Verdict {
    /// The safe default action a packet receives when the ML path
    /// cannot serve it (Taurus §4: the per-packet ML pipeline is an
    /// *augmentation* of a line-rate switch, never a gate in front of
    /// it). Overloaded or degraded configurations hand packets this
    /// verdict at line rate instead of stalling them behind a saturated
    /// inference engine.
    pub const fn line_rate_default() -> Verdict {
        Verdict::Forward
    }

    /// Decodes the PHV decision field (0 = forward, 1 = drop, 2 = flag).
    #[inline]
    pub fn from_code(code: i64) -> Verdict {
        match code {
            1 => Verdict::Drop,
            2 => Verdict::Flag,
            _ => Verdict::Forward,
        }
    }

    /// Encodes back to the PHV decision field ([`Verdict::from_code`]'s
    /// inverse).
    pub fn code(self) -> i64 {
        match self {
            Verdict::Forward => 0,
            Verdict::Drop => 1,
            Verdict::Flag => 2,
        }
    }

    /// The stricter of two verdicts (`Drop > Flag > Forward`) — how a
    /// switch combines the decisions of multiple hosted applications.
    #[inline]
    pub fn max_severity(self, other: Verdict) -> Verdict {
        match (self, other) {
            (Verdict::Drop, _) | (_, Verdict::Drop) => Verdict::Drop,
            (Verdict::Flag, _) | (_, Verdict::Flag) => Verdict::Flag,
            _ => Verdict::Forward,
        }
    }
}

/// Pipeline construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Register cells per flow-state array.
    pub flow_slots: usize,
    /// Cross-flow counting window, ns.
    pub window_ns: u64,
    /// Number of feature codes handed to the MapReduce block: a
    /// formatter's row is truncated or zero-padded to it.
    pub feature_count: usize,
    /// Idle timeout for per-flow register slots, ns (0 = never expire).
    /// Slots idle at least this long are evicted before their next
    /// packet accumulates, bounding live flow state for long streams.
    pub idle_timeout_ns: u64,
    /// Flow-table geometry: direct-mapped register arrays (the default,
    /// byte-identical to the historical pipeline) or a keyed
    /// set-associative table in which flow starts are table misses and
    /// full buckets evict their oldest occupant.
    pub flow_table: FlowTableKind,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            flow_slots: 4096,
            window_ns: 5_000_000,
            feature_count: 6,
            idle_timeout_ns: 0,
            flow_table: FlowTableKind::DirectMapped,
        }
    }
}

/// Result of pushing one packet through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineResult {
    /// The forwarding decision.
    pub verdict: Verdict,
    /// Raw ML output (meaningless for bypassed packets).
    pub ml_out: i64,
    /// Whether the packet took the bypass path.
    pub bypassed: bool,
    /// End-to-end pipeline latency, ns.
    pub latency_ns: u64,
}

/// The full Taurus device pipeline around a pluggable inference engine.
pub struct TaurusPipeline<E> {
    parser: Parser,
    /// Preprocessing MATs (bypass decision, feature formatting helpers).
    pub pre_tables: Vec<MatchTable>,
    tracker: FlowTracker,
    /// Turns raw flow features into the int8 codes the model expects
    /// (standardization + quantization — MAT range tables, see
    /// [`crate::range_table`]).
    formatter: FeatureFormatter,
    engine: E,
    /// Postprocessing MATs (verdict thresholding, queue selection).
    pub post_tables: Vec<MatchTable>,
    config: PipelineConfig,
    packets: u64,
    ml_packets: u64,
    /// Resident PHV, recycled across packets by [`Parser::parse_into`].
    phv: Phv,
    /// Reusable formatter output buffer (feature codes).
    feature_scratch: Vec<i32>,
    /// The batch entry's resident PHVs, one per packet of a group.
    batch_phvs: [Phv; BATCH_PACKETS],
    /// The batch entry's engine input: the codes of a group's ML-path
    /// packets.
    codes: CodeGroup,
}

impl<E: InferenceEngine> TaurusPipeline<E> {
    /// Builds a pipeline. The formatter arrives boxed and is stored as
    /// is: one indirect call per packet.
    pub fn new(config: PipelineConfig, engine: E, formatter: FeatureFormatter) -> Self {
        Self {
            parser: Parser::new(),
            pre_tables: Vec::new(),
            tracker: FlowTracker::from_config(&config),
            formatter,
            engine,
            post_tables: Vec::new(),
            feature_scratch: Vec::with_capacity(config.feature_count),
            batch_phvs: core::array::from_fn(|_| Phv::new()),
            codes: CodeGroup::new(config.feature_count),
            config,
            packets: 0,
            ml_packets: 0,
            phv: Phv::new(),
        }
    }

    /// Shared access to the inference engine (e.g., to read its latency).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Access to the inference engine (e.g., for weight updates).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Replaces the feature formatter — part of installing a model
    /// update whose quantization ranges moved (the formatter bakes in
    /// the model's input `QuantParams`, so new weights need a matching
    /// encoder or the engine would read codes under the wrong scale).
    pub fn set_formatter(&mut self, formatter: FeatureFormatter) {
        self.formatter = formatter;
    }

    /// Clears flow state between runs.
    pub fn reset_state(&mut self) {
        self.tracker.clear();
    }

    /// Processes one packet through the full pipeline, its flow
    /// directory and cross-flow windows included.
    ///
    /// `obs_hint` carries trace ground truth the parser cannot recover
    /// from a single packet (direction, flow start); real hardware infers
    /// these from SYN/five-tuple state, and so does this hint builder in
    /// `taurus-core`. In keyed mode the directory's miss overrides the
    /// hint's flow-start bit.
    #[inline]
    pub fn process(&mut self, pkt: &Packet, obs_hint: PacketObs) -> PipelineResult {
        let (op, (dst_count, srv_count)) = self.tracker.front(&obs_hint);
        self.process_slot(pkt, op, obs_hint, dst_count, srv_count)
    }

    /// Processes one packet whose cross-flow window counts were computed
    /// upstream (a shared ingest stage running
    /// [`crate::registers::CrossFlowWindows`] in global arrival order):
    /// probes this pipeline's own flow directory, then takes
    /// [`TaurusPipeline::process_slot`].
    #[inline]
    pub fn process_prepared(
        &mut self,
        pkt: &Packet,
        obs_hint: PacketObs,
        dst_count: u64,
        srv_count: u64,
    ) -> PipelineResult {
        let op = self.tracker.probe(&obs_hint);
        self.process_slot(pkt, op, obs_hint, dst_count, srv_count)
    }

    /// Processes one packet whose register slot and cross-flow window
    /// counts were decided upstream, by one flow directory and one
    /// window instance in global arrival order — the entry the sharded
    /// runtime's replicas take, so per-destination state stays coherent
    /// across shards and no replica probes a table.
    #[inline]
    pub fn process_slot(
        &mut self,
        pkt: &Packet,
        op: SlotOp,
        obs: PacketObs,
        dst_count: u64,
        srv_count: u64,
    ) -> PipelineResult {
        self.packets += 1;
        let mut latency = PARSE_LATENCY_NS;
        self.parser.parse_into(pkt, &mut self.phv);

        // Stateful feature accumulation (register stage).
        let features = self.tracker.observe_slot(op, &obs, dst_count, srv_count);
        latency += MAT_LATENCY_NS; // register access rides one stage

        // Preprocessing MATs: bypass decision and metadata.
        for t in &self.pre_tables {
            t.apply(&mut self.phv);
            latency += MAT_LATENCY_NS;
        }

        let bypassed = self.phv.get(Field::BypassMl) != 0;
        let mut ml_out = 0;
        // Fig. 6: bypass packets skip MapReduce with no added latency.
        if !bypassed {
            self.ml_packets += 1;
            self.feature_scratch.clear();
            (self.formatter)(&features, &mut self.feature_scratch);
            // Fit the row to the feature count once, before *both*
            // consumers: the PHV (which feature-matching MATs read) and
            // the engine see the same `feature_count` codes whether a
            // formatter over-emits (truncated) or under-emits (padded
            // with zeros).
            self.feature_scratch.resize(self.config.feature_count, 0);
            self.phv.set_features(&self.feature_scratch);
            ml_out = self.engine.infer(&self.feature_scratch);
            self.phv.set(Field::MlOut, ml_out);
            latency += self.engine.latency_ns();
        }

        // Postprocessing MATs: verdict + queue.
        for t in &self.post_tables {
            t.apply(&mut self.phv);
            latency += MAT_LATENCY_NS;
        }

        PipelineResult {
            verdict: Verdict::from_code(self.phv.get(Field::Decision)),
            ml_out,
            bypassed,
            latency_ns: latency,
        }
    }

    /// [`TaurusPipeline::process_slot`] for a group of at most
    /// [`BATCH_PACKETS`] packets, calling `each(i, result)` for packet
    /// `i`, in stream order. Every result, counter and register is what
    /// the per-packet entry gives; the group changes only the engine's
    /// call, in three steps:
    ///
    /// 1. each packet runs the front end (parse, register stage,
    ///    preprocessing MATs) into its own PHV, and the formatter's codes
    ///    of each packet that does not bypass go into one [`CodeGroup`]
    ///    row;
    /// 2. one [`InferenceEngine::infer_batch`] runs on the group, unless
    ///    every packet bypassed;
    /// 3. each packet takes its verdict into the PHV and runs the
    ///    postprocessing MATs.
    ///
    /// # Panics
    ///
    /// Panics if `packets` holds more than [`BATCH_PACKETS`] packets.
    #[inline]
    pub fn process_prepared_batch<P: PreparedInput>(
        &mut self,
        packets: &[P],
        mut each: impl FnMut(usize, PipelineResult),
    ) {
        assert!(packets.len() <= BATCH_PACKETS, "a batch entry takes one group");
        self.codes.clear();
        for (p, phv) in packets.iter().zip(self.batch_phvs.iter_mut()) {
            self.parser.parse_into(p.packet(), phv);
            let (dst_count, srv_count) = p.window_counts();
            let features = self.tracker.observe_slot(p.slot_op(), &p.obs(), dst_count, srv_count);
            for t in &self.pre_tables {
                t.apply(phv);
            }
            if phv.get(Field::BypassMl) == 0 {
                self.feature_scratch.clear();
                (self.formatter)(&features, &mut self.feature_scratch);
                self.feature_scratch.resize(self.config.feature_count, 0);
                phv.set_features(&self.feature_scratch);
                self.codes.push(&self.feature_scratch);
            }
        }
        let mut ml_out = [0; BATCH_PACKETS];
        if self.codes.rows() > 0 {
            self.engine.infer_batch(&mut self.codes, &mut ml_out);
        }
        let engine_ns = self.engine.latency_ns();
        let front_ns = PARSE_LATENCY_NS + MAT_LATENCY_NS * (1 + self.pre_tables.len() as u64);
        let post_ns = MAT_LATENCY_NS * self.post_tables.len() as u64;
        let mut ml_out = ml_out.into_iter();
        for (i, phv) in self.batch_phvs[..packets.len()].iter_mut().enumerate() {
            let bypassed = phv.get(Field::BypassMl) != 0;
            let mut latency = front_ns + post_ns;
            let mut out = 0;
            if !bypassed {
                out = ml_out.next().unwrap_or_default();
                phv.set(Field::MlOut, out);
                latency += engine_ns;
            }
            for t in &self.post_tables {
                t.apply(phv);
            }
            let verdict = Verdict::from_code(phv.get(Field::Decision));
            each(i, PipelineResult { verdict, ml_out: out, bypassed, latency_ns: latency });
        }
        self.packets += packets.len() as u64;
        self.ml_packets += self.codes.rows() as u64;
    }

    /// `(total packets, ML-path packets)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.packets, self.ml_packets)
    }

    /// The register array and its table statistics, counted since
    /// construction or the last [`TaurusPipeline::reset_state`].
    pub fn flow_registers(&self) -> &FlowRegisters {
        self.tracker.registers()
    }
}

impl<E: core::fmt::Debug> core::fmt::Debug for TaurusPipeline<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TaurusPipeline")
            .field("engine", &self.engine)
            .field("packets", &self.packets)
            .field("ml_packets", &self.ml_packets)
            .finish()
    }
}

/// Builds the standard postprocessing table: `MlOut ≥ threshold ⇒ Drop`,
/// else forward (the §3.2 anomaly-score interpretation).
pub fn anomaly_post_table(threshold: i64) -> MatchTable {
    let mut t = MatchTable::new("anomaly-verdict", Field::MlOut, Field::Decision, 0);
    t.add_range(threshold, i64::MAX, 1);
    t
}

/// Builds a preprocessing selection table: packets whose IP protocol is
/// in `protos` visit the model, everything else bypasses (Fig. 6's
/// preprocessing decision, parameterized per application).
pub fn proto_select_table(protos: &[i64]) -> MatchTable {
    let mut t = MatchTable::new("ml-select", Field::Proto, Field::BypassMl, 1);
    for &proto in protos {
        t.add_exact(proto, 0);
    }
    t
}

/// Builds the standard preprocessing bypass table: only TCP/UDP visit the
/// model; everything else bypasses.
pub fn ml_bypass_table() -> MatchTable {
    proto_select_table(&[6, 17])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_for(pkt: &Packet, start: bool) -> PacketObs {
        PacketObs {
            flow_key: u64::from(pkt.src_ip) << 16 | u64::from(pkt.src_port),
            dst_key: u64::from(pkt.dst_ip),
            srv_key: u64::from(pkt.dst_ip) << 16 | u64::from(pkt.dst_port),
            reverse: false,
            is_flow_start: start,
            len: pkt.wire_len,
            tcp_flags: pkt.tcp_flags,
            proto: pkt.proto,
            ts_ns: pkt.ts_ns,
        }
    }

    fn pipeline() -> TaurusPipeline<ThresholdEngine> {
        let mut p = TaurusPipeline::new(
            PipelineConfig { feature_count: 6, ..PipelineConfig::default() },
            ThresholdEngine { threshold: 100 },
            Box::new(|f: &FlowFeatures, out: &mut Vec<i32>| {
                out.extend(f.encode_dnn6().iter().map(|&v| (v * 10.0) as i32));
            }),
        );
        p.pre_tables.push(ml_bypass_table());
        p.post_tables.push(anomaly_post_table(1));
        p
    }

    #[test]
    fn tcp_packet_takes_ml_path() {
        let mut p = pipeline();
        let pkt = Packet::tcp(1, 2, 1000, 80, 0x02, 100);
        let r = p.process(&pkt, obs_for(&pkt, true));
        assert!(!r.bypassed);
        assert_eq!(p.stats(), (1, 1));
        assert!(r.latency_ns > PARSE_LATENCY_NS);
    }

    #[test]
    fn icmp_bypasses_ml_with_no_engine_latency() {
        let mut p = pipeline();
        let mut pkt = Packet::tcp(1, 2, 0, 0, 0, 100);
        pkt.proto = 1;
        let r = p.process(&pkt, obs_for(&pkt, true));
        assert!(r.bypassed);
        assert_eq!(p.stats(), (1, 0));
        // Bypass latency = parse + register + pre + post (no engine).
        let mut p2 = pipeline();
        let tcp = Packet::tcp(1, 2, 1000, 80, 0, 100);
        let r2 = p2.process(&tcp, obs_for(&tcp, true));
        assert!(r.latency_ns < r2.latency_ns, "bypass is strictly faster");
    }

    #[test]
    fn verdict_follows_ml_output() {
        // Engine flags when feature sum > 100; huge byte counts push the
        // encoded features up.
        let mut p = pipeline();
        let mut pkt = Packet::tcp(1, 2, 1000, 80, 0, 1500);
        let mut last = Verdict::Forward;
        for i in 0..2_000 {
            pkt.ts_ns = i * 1_000;
            last = p.process(&pkt, obs_for(&pkt, i == 0)).verdict;
        }
        assert_eq!(last, Verdict::Drop, "sustained flow eventually flagged");
    }

    #[test]
    fn verdict_codes() {
        assert_eq!(Verdict::from_code(0), Verdict::Forward);
        assert_eq!(Verdict::from_code(1), Verdict::Drop);
        assert_eq!(Verdict::from_code(2), Verdict::Flag);
        assert_eq!(Verdict::from_code(99), Verdict::Forward);
    }

    #[test]
    fn verdict_round_trips_through_codes() {
        for v in [Verdict::Forward, Verdict::Drop, Verdict::Flag] {
            assert_eq!(Verdict::from_code(v.code()), v);
        }
        // Unknown codes decode to Forward, whose canonical code is 0.
        assert_eq!(Verdict::from_code(99).code(), 0);
        assert_eq!(Verdict::from_code(-1).code(), 0);
    }

    #[test]
    fn verdict_severity_orders_drop_over_flag_over_forward() {
        use Verdict::*;
        assert_eq!(Forward.max_severity(Forward), Forward);
        assert_eq!(Forward.max_severity(Flag), Flag);
        assert_eq!(Flag.max_severity(Forward), Flag);
        assert_eq!(Drop.max_severity(Flag), Drop);
        assert_eq!(Flag.max_severity(Drop), Drop);
        assert_eq!(Forward.max_severity(Drop), Drop);
    }

    #[test]
    fn bypass_never_reaches_the_engine() {
        // An engine that panics if invoked proves bypassed packets skip
        // the MapReduce block entirely.
        struct Unreachable;
        impl InferenceEngine for Unreachable {
            fn infer(&mut self, _features: &[i32]) -> i64 {
                panic!("bypassed packet reached the engine");
            }
            fn latency_ns(&self) -> u64 {
                1_000
            }
        }
        let mut p = TaurusPipeline::new(
            PipelineConfig::default(),
            Unreachable,
            Box::new(|f, out| out.extend(f.encode_dnn6().iter().map(|&v| v as i32))),
        );
        p.pre_tables.push(ml_bypass_table());
        p.post_tables.push(anomaly_post_table(1));
        let mut icmp = Packet::tcp(1, 2, 0, 0, 0, 100);
        icmp.proto = 1;
        for i in 0..50 {
            let r = p.process(&icmp, obs_for(&icmp, i == 0));
            assert!(r.bypassed);
            assert_eq!(r.ml_out, 0, "bypassed packets carry no ML output");
        }
        assert_eq!(p.stats(), (50, 0));
    }

    #[test]
    fn over_emitting_formatter_is_truncated_before_the_engine() {
        struct WidthCheck {
            expect: usize,
        }
        impl InferenceEngine for WidthCheck {
            fn infer(&mut self, features: &[i32]) -> i64 {
                assert_eq!(features.len(), self.expect, "engine sees the truncated width");
                i64::from(features.iter().sum::<i32>())
            }
            fn latency_ns(&self) -> u64 {
                1
            }
        }
        let cfg = PipelineConfig { feature_count: 4, ..PipelineConfig::default() };
        let mut p = TaurusPipeline::new(
            cfg,
            WidthCheck { expect: 4 },
            Box::new(|_f, out| out.extend([1, 2, 3, 4, 100, 200])), // over-emits two codes
        );
        let pkt = Packet::tcp(1, 2, 1000, 80, 0x02, 100);
        let r = p.process(&pkt, obs_for(&pkt, true));
        assert!(!r.bypassed);
        assert_eq!(r.ml_out, 10, "extra codes reach neither the engine nor the PHV");
    }

    /// A pipeline whose model output is 1 once a flow has seen more than
    /// `packets` packets.
    fn past(packets: i64, config: PipelineConfig) -> TaurusPipeline<LinearThresholdEngine> {
        TaurusPipeline::new(
            PipelineConfig { feature_count: 1, ..config },
            LinearThresholdEngine { weights: vec![1], threshold: packets },
            Box::new(|f, out| out.push(f.packets as i32)),
        )
    }

    #[test]
    fn configured_idle_timeout_reaches_the_tracker_and_surfaces_evictions() {
        let cfg = PipelineConfig { idle_timeout_ns: 10_000, ..PipelineConfig::default() };
        let mut p = past(1, cfg);
        let mut pkt = Packet::tcp(1, 2, 1000, 80, 0x02, 100);
        pkt.ts_ns = 1_000;
        let first = p.process(&pkt, obs_for(&pkt, true));
        assert_eq!(first.ml_out, 0, "the flow's first packet");
        pkt.ts_ns = 500_000; // far past the idle timeout
        let again = p.process(&pkt, obs_for(&pkt, true));
        assert_eq!(again.ml_out, 0, "slot evicted, flow restarts fresh");
        assert_eq!(p.flow_registers().idle_evictions(), 1);
        p.reset_state();
        assert_eq!(p.flow_registers().idle_evictions(), 0, "reset clears the counter");
    }

    #[test]
    fn the_batch_entry_gives_the_per_packet_entrys_results() {
        // The threshold engine's batch kernel behind the three-step
        // group: every result in stream order, for groups of one to
        // eight with bypassed packets among them, and the same stats
        // and registers after.
        batch_matches_per_packet(pipeline);
        // A formatter that emits four of six codes, behind a per-row
        // engine that reports the width it reads: both entries hand it
        // the row padded to six.
        struct Width;
        impl InferenceEngine for Width {
            fn infer(&mut self, features: &[i32]) -> i64 {
                features.len() as i64 * 1_000 + features.iter().map(|&v| i64::from(v)).sum::<i64>()
            }
            fn latency_ns(&self) -> u64 {
                1
            }
        }
        let short = || {
            let mut p = TaurusPipeline::new(
                PipelineConfig { feature_count: 6, ..PipelineConfig::default() },
                Width,
                Box::new(|f: &FlowFeatures, out: &mut Vec<i32>| {
                    out.extend([f.packets as i32, 1, 2, 3]);
                }),
            );
            p.pre_tables.push(ml_bypass_table());
            p
        };
        let results = batch_matches_per_packet(short);
        assert!(results.iter().filter(|r| !r.bypassed).all(|r| r.ml_out / 1_000 == 6));
    }

    /// Runs 60 packets through a pipeline from `make` packet by packet,
    /// and through another in groups of one to eight; asserts the same
    /// results in stream order, stats and registers, and returns the
    /// results.
    fn batch_matches_per_packet<E: InferenceEngine>(
        make: impl Fn() -> TaurusPipeline<E>,
    ) -> Vec<PipelineResult> {
        // The batch entry takes each packet's slot from a directory of
        // the pipelines' geometry, run in stream order; the per-packet
        // entry probes its own.
        struct Prepared(Packet, PacketObs, SlotOp);
        impl PreparedInput for Prepared {
            fn packet(&self) -> &Packet {
                &self.0
            }
            fn slot_op(&self) -> SlotOp {
                self.2
            }
            fn obs(&self) -> PacketObs {
                self.1
            }
            fn window_counts(&self) -> (u64, u64) {
                (u64::from(self.0.src_port) % 7, 3)
            }
        }
        let cfg = PipelineConfig::default();
        let mut directory = crate::FlowTable::with_kind(cfg.flow_table, cfg.flow_slots, 0);
        let packets: Vec<Prepared> = (0..60u32)
            .map(|k| {
                let mut pkt =
                    Packet::tcp(k % 5, 2, 1000 + (k % 3) as u16, 80, 0x02, 100 + k as u16);
                pkt.ts_ns = u64::from(k) * 1_000;
                if k % 4 == 1 {
                    pkt.proto = 1;
                }
                let obs = obs_for(&pkt, k < 5);
                let op = directory.op(obs.flow_key, obs.ts_ns);
                Prepared(pkt, obs, op)
            })
            .collect();
        let (mut single, mut batched) = (make(), make());
        let want: Vec<PipelineResult> = packets
            .iter()
            .map(|p| single.process_prepared(&p.0, p.1, p.window_counts().0, 3))
            .collect();
        assert!(want.iter().any(|r| r.bypassed) && want.iter().any(|r| !r.bypassed));
        let mut got = Vec::new();
        let mut rest = packets.as_slice();
        for len in (1..=BATCH_PACKETS).cycle() {
            if rest.is_empty() {
                break;
            }
            let (group, next) = rest.split_at(len.min(rest.len()));
            let first = got.len();
            batched.process_prepared_batch(group, |i, r| {
                assert_eq!(i, got.len() - first, "stream order");
                got.push(r);
            });
            rest = next;
        }
        assert_eq!(got, want);
        assert_eq!(batched.stats(), single.stats());
        assert_eq!(batched.flow_registers(), single.flow_registers());
        want
    }

    #[test]
    fn reset_state_clears_flow_features_but_not_throughput_stats() {
        let mut p = past(10, PipelineConfig::default());
        let pkt = Packet::tcp(1, 2, 1000, 80, 0, 100);
        for i in 0..10 {
            assert_eq!(p.process(&pkt, obs_for(&pkt, i == 0)).ml_out, 0);
        }
        let before = p.process(&pkt, obs_for(&pkt, false));
        assert_eq!(before.ml_out, 1, "accumulated across packets: the eleventh");
        p.reset_state();
        let after = p.process(&pkt, obs_for(&pkt, true));
        assert_eq!(after.ml_out, 0, "registers cleared by reset");
        // Throughput counters survive reset (they describe the device,
        // not the flows).
        assert_eq!(p.stats().0, 12);
    }
}
