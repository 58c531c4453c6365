//! Building and reporting on the sharded runtime: N [`TaurusSwitch`]
//! replicas on worker threads, fed fixed-size packet batches over
//! bounded SPSC channels by one ingest loop, on the feeding thread,
//! that owns everything order-sensitive (`service::feed`).
//!
//! [`TaurusSwitch`]: taurus_core::TaurusSwitch
//!
//! # Why this partitioning is exact
//!
//! A packet's verdict depends on three kinds of register state:
//!
//! 1. **Per-flow registers** (bytes, packets, flags). The ingest loop
//!    probes the one flow directory ([`taurus_pisa::FlowTable`], keys
//!    and clocks only) per packet, in global arrival order, and ships
//!    the [`SlotOp`] it decides inside the packet's batch entry. A
//!    replica's registers are a plain array that replays the op
//!    ([`taurus_pisa::FlowRegisters`]): no keys, clocks or probe.
//!    [`shard_of`] routes by the flow key's register slot
//!    (`flow_key % flow_slots`, keyed: its bucket) folded onto the shard
//!    count, so every op that touches a slot — a collision, a promotion,
//!    an eviction — reaches the one replica holding it, in order, for
//!    **any** shard count. Its registers, and every per-flow feature,
//!    equal the sequential switch's, whose tracker holds the same
//!    directory and array in one struct.
//! 2. **Cross-flow windows** (destination-host / destination-service
//!    fan-in), keyed by the responder — *not* flow-consistent. The
//!    ingest loop runs the one [`CrossFlowWindows`] instance in global
//!    arrival order and ships each packet's counts in its batch entry,
//!    as the paper's hardware computes register features before any
//!    egress fan-out.
//! 3. **Flow starts**, also resolved by the ingest loop in global
//!    arrival order: the one seen-set
//!    ([`taurus_core::ingest::ObsBuilder`]) direct-mapped, the
//!    directory's miss keyed.
//!
//! Replicas count the table statistics from the access kinds of the ops
//! they apply, so a shard's report counts its own packets. A respawned
//! spare starts with zeroed registers while the directory keeps its
//! keys: a flow live across the fault hits and accumulates from zero,
//! as a fresh start would but with no `Miss` counted, until the next op
//! that resets its slot (a keyed start or an idle eviction).
//!
//! Workers therefore run pure flow-local computation (MATs + MapReduce
//! inference — the expensive part) in parallel, and the merged report
//! equals the sequential switch's report exactly. The determinism test
//! suite (`tests/determinism.rs`) pins this for shard counts 1/2/4/8,
//! for non-dividing counts, and across random shard × batch-size
//! geometries.

use std::time::Duration;

use taurus_core::ingest::{packet_obs, to_packet_into};
use taurus_core::{DuplicateAppError, EngineBackend, SwitchBuilder, SwitchReport, TaurusApp};
use taurus_dataset::trace::TracePacket;
use taurus_ml::BinaryMetrics;
use taurus_pisa::registers::PacketObs;
use taurus_pisa::{
    CrossFlowWindows, FlowTable, FlowTableKind, Packet, PipelineConfig, PreparedInput, SlotIndex,
    SlotOp,
};

use crate::fault::{FaultPlan, FaultReport};
use crate::overload::{OverloadPolicy, OverloadReport, OverloadState};
use crate::pipeline::steer::Steer;
use crate::service::feed::Ingest;
use crate::service::StreamingRuntime;

/// One packet as it crosses an ingest→worker channel: one cache line,
/// written on the feeder's core and read on a worker's.
///
/// It carries what the worker reads and nothing else:
///
/// - `pkt`, the header fields the parser loads into the PHV;
/// - `op`, the register slot the feeder's flow directory decided in
///   global arrival order ([`SlotOp`]), so the worker neither hashes
///   nor probes a table;
/// - `dst_count` and `srv_count`, the cross-flow window counts the
///   feeder stamped in global arrival order;
/// - `index`, the global stream index, for fault injection;
/// - `len`, the unclamped wire length the registers accumulate;
/// - `reverse` and `anomalous`.
///
/// The worker rebuilds the register-stage [`PacketObs`] from these
/// (its [`PreparedInput::obs`]); the flow key and flow-start bit stay on
/// the feeder, which spent them on the op and the windows.
#[derive(Debug, Clone, PartialEq)]
#[repr(align(64))]
pub struct PreparedPacket {
    /// The header fields the parser loads into the PHV.
    pub pkt: Packet,
    /// Destination-host fan-in at this packet, from the shared windows.
    pub dst_count: u64,
    /// Destination-service fan-in at this packet.
    pub srv_count: u64,
    /// Global stream index of this packet (monotone across feeds).
    /// Carried so deterministic fault injection ([`crate::FaultPlan`])
    /// can key on exact (shard, stream index) points inside the engine
    /// workers.
    pub index: u64,
    /// The flow's register slot and how the directory reached it.
    pub op: SlotOp,
    /// Wire bytes as captured (`pkt.wire_len` is clamped up to
    /// [`Packet::MIN_LEN`]; the registers count these).
    pub len: u16,
    /// Whether this packet travels responder → originator.
    pub reverse: bool,
    /// Trace ground truth, carried so workers can score deployed
    /// verdicts per model segment without a second pass.
    pub anomalous: bool,
}

impl Default for PreparedPacket {
    /// A zeroed arena slot, overwritten in place by the ingest stage.
    fn default() -> Self {
        Self {
            pkt: Packet::tcp(0, 0, 0, 0, 0, 0),
            dst_count: 0,
            srv_count: 0,
            index: 0,
            op: SlotOp::default(),
            len: 0,
            reverse: false,
            anomalous: false,
        }
    }
}

impl PreparedPacket {
    /// Writes one packet into this slot: `tp`'s wire form, the
    /// directory's op, the window counts, and the global stream index.
    /// Every field is stored and none is read, so a recycled slot costs
    /// its cache line once.
    #[inline]
    pub(crate) fn fill(
        &mut self,
        tp: &TracePacket,
        op: SlotOp,
        (dst_count, srv_count): (u64, u64),
        index: u64,
    ) {
        to_packet_into(tp, &mut self.pkt);
        self.dst_count = dst_count;
        self.srv_count = srv_count;
        self.index = index;
        self.op = op;
        self.len = tp.len;
        self.reverse = tp.reverse;
        self.anomalous = tp.anomalous;
    }
}

/// What the worker hands its replica's batch entry
/// ([`taurus_core::TaurusSwitch::process_prepared_batch`]).
impl PreparedInput for PreparedPacket {
    #[inline]
    fn packet(&self) -> &Packet {
        &self.pkt
    }

    #[inline]
    fn slot_op(&self) -> SlotOp {
        self.op
    }

    /// The register-stage observation, rebuilt from the slot
    /// ([`packet_obs`]); flow key 0 and no flow start.
    #[inline]
    fn obs(&self) -> PacketObs {
        packet_obs(&self.pkt, 0, self.len, self.reverse, false)
    }

    #[inline]
    fn window_counts(&self) -> (u64, u64) {
        (self.dst_count, self.srv_count)
    }
}

/// The home shard for a flow key: the key's per-flow register slot
/// (`flow_key % flow_slots`) folded onto the shard count
/// (`slot % shards`).
///
/// Routing by the *slot* rather than the raw key is what makes sharding
/// exact for **any** shard count: two flows that collide in a register
/// slot (`k₁ ≡ k₂ mod flow_slots`) map to the same slot value and
/// therefore the same shard, so collision structure — and every
/// per-flow feature derived from it — matches the sequential switch
/// bit for bit. (For power-of-two `flow_slots` and a dividing shard
/// count this reduces to the old `key % shards`, so existing goldens
/// are unchanged.)
///
/// Both remainders are taken by [`SlotIndex`] reducers — the same
/// reducer type, hence the same slot, as the replicas' tables; the
/// ingest loop builds its pair once (`Route`) instead of per packet.
pub fn shard_of(flow_key: u64, flow_slots: usize, shards: usize) -> usize {
    Route::new(flow_slots, shards).shard_of(flow_key)
}

/// [`shard_of`] for one geometry, its two reducers built once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    slots: SlotIndex,
    shards: SlotIndex,
}

impl Route {
    pub(crate) fn new(route_slots: usize, shards: usize) -> Self {
        Self { slots: SlotIndex::of(route_slots), shards: SlotIndex::of(shards) }
    }

    #[inline]
    pub(crate) fn shard_of(self, flow_key: u64) -> usize {
        self.shards.reduce(self.slots.reduce(flow_key) as u64)
    }
}

/// Why [`RuntimeBuilder::try_build`] rejected a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No app was registered; an empty roster has nothing to execute.
    EmptyRoster,
    /// Two registered apps share a name.
    DuplicateApp(DuplicateAppError),
    /// The pipeline config has zero per-flow register slots; routing
    /// (`flow_key % flow_slots`) is undefined.
    NoFlowSlots,
    /// More shards than per-flow register slots: slot-based routing
    /// covers shard indices `0..flow_slots`, so the surplus shards
    /// could never receive a packet.
    MoreShardsThanFlowSlots {
        /// Requested shard count.
        shards: usize,
        /// Per-shard register capacity routing folds through.
        flow_slots: usize,
    },
    /// A zero queue depth: the bounded SPSC lanes are non-rendezvous,
    /// so a depth-0 channel could never carry a batch.
    ZeroQueueDepth,
    /// The flow table's slots overflow or exceed the `2^32` a packet's
    /// `u32` slot addresses ([`FlowTableKind::slots`]).
    FlowTableTooLarge,
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyRoster => write!(f, "register at least one TaurusApp before build()"),
            Self::DuplicateApp(e) => write!(f, "{e}"),
            Self::NoFlowSlots => write!(f, "pipeline flow_slots must be positive to route flows"),
            Self::MoreShardsThanFlowSlots { shards, flow_slots } => write!(
                f,
                "shard count {shards} exceeds the {flow_slots} per-flow register slots; \
                 shards beyond the slot range would never receive a packet — lower the shard \
                 count or raise PipelineConfig.flow_slots"
            ),
            Self::ZeroQueueDepth => {
                write!(f, "queue_depth must be positive (lanes are non-rendezvous)")
            }
            Self::FlowTableTooLarge => write!(f, "a flow table holds at most 2^32 slots"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::DuplicateApp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DuplicateAppError> for BuildError {
    fn from(e: DuplicateAppError) -> Self {
        Self::DuplicateApp(e)
    }
}

/// Builds a [`StreamingRuntime`]: shard/batch/queue geometry plus the
/// app roster, forwarded to every replica's [`SwitchBuilder`].
///
/// ```
/// use taurus_core::apps::SynFloodDetector;
/// use taurus_core::EngineBackend;
/// use taurus_runtime::RuntimeBuilder;
///
/// let syn = SynFloodDetector::default_deployment();
/// let runtime = RuntimeBuilder::new()
///     .shards(4)
///     .batch_size(32)
///     .register_on(&syn, EngineBackend::Threshold)
///     .build();
/// assert_eq!(runtime.shard_count(), 4);
/// ```
pub struct RuntimeBuilder<'a> {
    shards: usize,
    batch_size: usize,
    queue_depth: usize,
    config: PipelineConfig,
    backend: EngineBackend,
    apps: Vec<(&'a dyn TaurusApp, EngineBackend)>,
    fault_plan: FaultPlan,
    spare_replicas: usize,
    control_timeout: Duration,
    overload: OverloadPolicy,
}

impl Default for RuntimeBuilder<'_> {
    fn default() -> Self {
        Self {
            shards: 1,
            batch_size: 64,
            queue_depth: 4,
            config: PipelineConfig::default(),
            backend: EngineBackend::default(),
            apps: Vec::new(),
            fault_plan: FaultPlan::default(),
            spare_replicas: 0,
            control_timeout: Duration::from_secs(30),
            overload: OverloadPolicy::Block,
        }
    }
}

impl<'a> RuntimeBuilder<'a> {
    /// Starts a builder: 1 shard, batches of 64, queue depth 4, default
    /// pipeline config, CGRA simulator backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of switch replicas / worker threads.
    ///
    /// Any shard count up to the per-flow register capacity is exact:
    /// packets are routed by register *slot* ([`shard_of`]), so
    /// colliding flows share a shard whether or not the count divides
    /// `flow_slots`. Counts beyond the capacity are rejected at build
    /// ([`BuildError::MoreShardsThanFlowSlots`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a runtime needs at least one shard");
        self.shards = n;
        self
    }

    /// Accepted and ignored: ingest always parses on the feeding
    /// thread. Kept for callers written when a parse-worker stage
    /// existed.
    #[doc(hidden)]
    pub fn parse_workers(self, _n: usize) -> Self {
        self
    }

    /// Packets per ingest→worker batch.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch_size must be positive");
        self.batch_size = n;
        self
    }

    /// Bounded channel depth, in batches, per worker.
    ///
    /// Zero is rejected at build time with
    /// [`BuildError::ZeroQueueDepth`] (via the typed
    /// [`RuntimeBuilder::try_build`] path, or as a panic carrying the
    /// same message from [`RuntimeBuilder::build`]) — the lanes are
    /// non-rendezvous, so a depth-0 channel could never carry a batch.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// What the steer stage does when a shard's lane saturates — see
    /// [`OverloadPolicy`]. The default, [`OverloadPolicy::Block`], is
    /// the historical behavior: ingest waits for the slow shard and
    /// reports stay byte-identical to pre-overload runs.
    /// [`OverloadPolicy::Degrade`] hands over-budget packets the
    /// line-rate default verdict instead and accounts them in
    /// [`RuntimeReport::overload`].
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Pipeline configuration shared by every replica (and by the
    /// ingest stage's cross-flow windows).
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Engine backend for subsequently registered apps.
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Arms a deterministic fault-injection plan: engine panics and
    /// stalls at exact (shard, global stream index) points, and
    /// ingest-side saturation windows — see [`FaultPlan`]. Empty
    /// by default (nothing is injected, and the per-packet check is
    /// skipped entirely).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Spare replicas for supervised recovery. With `n > 0`, a worker
    /// that panics (or misses the control-plane watchdog) is replaced
    /// at the next drain barrier by a spare rehydrated to the fleet's
    /// current models, and the drain *reports* the fault
    /// ([`RuntimeReport::faults`]) instead of re-raising the panic.
    /// With the default `0`, drains keep the legacy contract and
    /// re-raise.
    pub fn spare_replicas(mut self, n: usize) -> Self {
        self.spare_replicas = n;
        self
    }

    /// Watchdog for the control plane's replies (drain snapshots,
    /// canary probation metrics): a shard that stays silent this long
    /// is declared unresponsive instead of hanging the caller forever.
    /// Defaults to 30 s.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn control_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "control_timeout must be positive");
        self.control_timeout = timeout;
        self
    }

    /// Registers an app on the currently selected backend; it will be
    /// hosted by every replica.
    ///
    /// # Panics
    ///
    /// Panics at [`RuntimeBuilder::build`] if two apps share a name
    /// (see [`SwitchBuilder::try_register_on`]).
    pub fn register(mut self, app: &'a dyn TaurusApp) -> Self {
        self.apps.push((app, self.backend));
        self
    }

    /// Registers an app on an explicit backend.
    pub fn register_on(mut self, app: &'a dyn TaurusApp, backend: EngineBackend) -> Self {
        self.apps.push((app, backend));
        self
    }

    /// Builds the runtime: one [`taurus_core::TaurusSwitch`] per shard,
    /// each hosting the full app roster, on resident worker threads
    /// behind the `feed`/`drain`/`shutdown` lifecycle of
    /// [`StreamingRuntime`].
    ///
    /// # Panics
    ///
    /// Panics on any [`BuildError`] (empty roster, duplicate app name,
    /// zero register capacity, more shards than register slots) — see
    /// [`RuntimeBuilder::try_build`] for the non-panicking form.
    pub fn build(self) -> StreamingRuntime {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Alias of [`RuntimeBuilder::build`], kept for callers written
    /// when the builder produced two runtime types.
    pub fn build_streaming(self) -> StreamingRuntime {
        self.build()
    }

    /// Builds the runtime, validating the whole configuration up front
    /// — before any replica, program clone, or thread resource is
    /// created — and returning a typed [`BuildError`] instead of
    /// panicking partway through construction.
    ///
    /// # Errors
    ///
    /// - [`BuildError::EmptyRoster`] if no app was registered.
    /// - [`BuildError::DuplicateApp`] naming the first contested app
    ///   name.
    /// - [`BuildError::NoFlowSlots`] if the pipeline config has zero
    ///   per-flow register slots.
    /// - [`BuildError::MoreShardsThanFlowSlots`] if the shard count
    ///   exceeds the per-shard register capacity — slot-based routing
    ///   could never reach the surplus shards.
    /// - [`BuildError::ZeroQueueDepth`] for depth-0 lanes.
    /// - [`BuildError::FlowTableTooLarge`] if the flow table's slots
    ///   overflow or exceed the `u32` slot a packet carries.
    pub fn try_build(self) -> Result<StreamingRuntime, BuildError> {
        if self.apps.is_empty() {
            return Err(BuildError::EmptyRoster);
        }
        if self.queue_depth == 0 {
            return Err(BuildError::ZeroQueueDepth);
        }
        for (i, (app, _)) in self.apps.iter().enumerate() {
            if self.apps[..i].iter().any(|(prev, _)| prev.name() == app.name()) {
                return Err(DuplicateAppError { name: app.name().to_string() }.into());
            }
        }
        // Both kinds size the cross-flow windows by `flow_slots`.
        if self.config.flow_slots == 0 {
            return Err(BuildError::NoFlowSlots);
        }
        // Routing folds flow keys through the register capacity so
        // register collisions stay shard-local for any shard count (see
        // `shard_of`). Keyed mode routes by *bucket* instead — every
        // occupant of a bucket shares a shard, so the bucket-local
        // replacement decisions stay shard-local too.
        let route_slots = match self.config.flow_table {
            FlowTableKind::DirectMapped => self.config.flow_slots,
            FlowTableKind::Keyed { buckets, ways } => {
                if buckets == 0 || ways == 0 {
                    return Err(BuildError::NoFlowSlots);
                }
                buckets
            }
        };
        // Checked before any table exists: a geometry whose slot count
        // overflows would otherwise wrap to a table that panics on its
        // first packet.
        if self.config.flow_table.slots(self.config.flow_slots).is_none() {
            return Err(BuildError::FlowTableTooLarge);
        }
        if self.shards > route_slots {
            return Err(BuildError::MoreShardsThanFlowSlots {
                shards: self.shards,
                flow_slots: route_slots,
            });
        }
        let build_replica = || {
            self.apps
                .iter()
                .fold(SwitchBuilder::new().config(self.config.clone()), |b, &(app, be)| {
                    b.register_on(app, be)
                })
                .build()
        };
        let switches = (0..self.shards).map(|_| build_replica()).collect();
        // Spares are cold replicas from the same roster; the service
        // rehydrates one with the accepted update history when it
        // replaces a faulted worker.
        let spares = (0..self.spare_replicas).map(|_| build_replica()).collect();
        // Ingest-side overload state: the saturation windows are carved
        // off the fault plan; the per-shard worker slices follow in
        // `StreamingRuntime::new`.
        let overload = OverloadState::new(self.overload, self.fault_plan.for_ingest(), self.shards);
        let ingest = Ingest::new(
            Route::new(route_slots, self.shards),
            Steer::new(self.shards, self.batch_size, self.queue_depth, overload),
            CrossFlowWindows::new(self.config.flow_slots, self.config.window_ns),
            // The one flow directory: it decides every packet's register
            // slot, and the replicas only replay its ops.
            FlowTable::with_kind(
                self.config.flow_table,
                self.config.flow_slots,
                self.config.idle_timeout_ns,
            ),
        );
        Ok(StreamingRuntime::new(
            switches,
            spares,
            self.queue_depth,
            self.control_timeout,
            &self.fault_plan,
            ingest,
        ))
    }
}

/// Per-shard outcome of a run: routing stats plus the replica's report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Packets this shard's worker processed during the last run.
    pub packets: u64,
    /// Batches it received during the last run.
    pub batches: u64,
    /// The replica's cumulative [`SwitchReport`].
    pub report: SwitchReport,
}

/// Merged outcome of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// The global report: per-shard reports merged by
    /// [`SwitchReport::merged`]. Equals the sequential switch's report
    /// on the same stream (see crate docs for the conditions).
    pub merged: SwitchReport,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Deployed-verdict confusion per model segment, merged across
    /// shards. Segment boundaries are the in-band model updates of this
    /// run: segment 0 covers packets before the first update, segment
    /// *i* the packets between updates *i* and *i+1* — so
    /// `segments.len() == updates applied + 1`, and with no updates
    /// there is exactly one segment covering the whole run. Because
    /// every shard sees updates at the same global packet boundary,
    /// the element-wise merge is exact.
    pub segments: Vec<BinaryMetrics>,
    /// Fault accounting since the last drain: worker restarts, batches
    /// dropped while degraded, rollbacks taken, canary verdicts. A run
    /// with no faults reports exactly [`FaultReport::default`], so
    /// fault-free reports compare bit-identical to pre-fault-era ones.
    pub faults: FaultReport,
    /// Overload accounting since the last drain: packets degraded to
    /// the line-rate default verdict or quarantined at the hardened
    /// ingest frontier — see
    /// [`OverloadReport`]. A run in which the admission layer did
    /// nothing (every [`crate::OverloadPolicy::Block`] run on a clean
    /// trace) reports exactly [`OverloadReport::default`], so such
    /// reports compare bit-identical to pre-overload ones.
    pub overload: OverloadReport,
}

impl RuntimeReport {
    /// Packets routed in the run this report describes (per-run, unlike
    /// `merged.packets`, which accumulates across runs on a long-lived
    /// runtime).
    fn run_packets(&self) -> u64 {
        self.shards.iter().map(|s| s.packets).sum()
    }

    /// Load-balance quality in `(0, 1]`: mean shard load over max shard
    /// load (1.0 = perfectly even). Returns 1.0 for an empty run.
    pub fn balance(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.packets).max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.run_packets() as f64 / self.shards.len() as f64;
        mean / max as f64
    }

    /// Modeled device throughput in packets/sec: with every shard an
    /// independent pipeline sustaining `per_shard_pps` (clock / II), the
    /// stream drains when the most loaded shard finishes, so the device
    /// rate is `per_shard_pps × packets / max_shard_packets` — linear in
    /// shard count up to the load-balance factor.
    pub fn modeled_pps(&self, per_shard_pps: f64) -> f64 {
        let max = self.shards.iter().map(|s| s.packets).max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        per_shard_pps * self.run_packets() as f64 / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_core::apps::SynFloodDetector;
    use taurus_dataset::kdd::KddGenerator;
    use taurus_dataset::trace::{PacketTrace, TraceConfig};

    fn trace(n: usize, seed: u64) -> PacketTrace {
        let records = KddGenerator::new(seed).take(n);
        PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
    }

    #[test]
    fn the_cross_core_handoff_is_one_cache_line_a_packet() {
        // Every packet is written on the feeder's core and read on a
        // worker's, so these sizes are the lane's bytes per packet, and
        // the alignment keeps each record on a line of its own.
        assert_eq!(std::mem::size_of::<Packet>(), 24);
        assert_eq!(std::mem::size_of::<PreparedPacket>(), 64);
        assert_eq!(std::mem::align_of::<PreparedPacket>(), 64);
        // The register slot's op travels in place of the 8 B flow key:
        // a `u32` slot, the access kind and the promotion flag.
        assert_eq!(std::mem::size_of::<SlotOp>(), 8);
        assert_eq!(std::mem::align_of::<SlotOp>(), 4);
        let used = 24 + 3 * 8 + 8 + 2 + 2;
        assert_eq!(used, 60, "packet, counts and index, op, len, two flags");
    }

    #[test]
    fn shard_of_is_total_and_stable() {
        for key in [0u64, 1, 4095, u64::MAX] {
            for shards in 1..=8 {
                assert!(shard_of(key, 4096, shards) < shards);
                assert_eq!(shard_of(key, 4096, shards), shard_of(key, 4096, shards));
            }
            assert_eq!(shard_of(key, 4096, 1), 0, "one shard hosts everything");
        }
    }

    #[test]
    fn slot_routing_keeps_register_collisions_shard_local_for_any_count() {
        // Two keys that collide in a register slot must share a shard —
        // the exactness invariant — for dividing AND non-dividing shard
        // counts alike.
        let slots = 4096usize;
        for (k1, k2) in [(7u64, 7 + 4096), (0, 3 * 4096), (4095, 4095 + 7 * 4096)] {
            assert_eq!(k1 % slots as u64, k2 % slots as u64, "test premise: same slot");
            for shards in [1usize, 2, 3, 4, 5, 6, 7, 8] {
                assert_eq!(shard_of(k1, slots, shards), shard_of(k2, slots, shards));
            }
        }
        // And for power-of-two geometries the fold reduces to the old
        // `key % shards`, so historical routing (and goldens) hold.
        for key in [0u64, 1, 12345, u64::MAX] {
            for shards in [1usize, 2, 4, 8] {
                assert_eq!(shard_of(key, 4096, shards), (key % shards as u64) as usize);
            }
        }
    }

    #[test]
    fn runtime_processes_every_packet_exactly_once() {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(200, 31);
        let mut rt = RuntimeBuilder::new()
            .shards(4)
            .batch_size(16)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        let report = rt.run_trace(&t);
        assert_eq!(report.merged.packets, t.packets.len() as u64);
        let routed: u64 = report.shards.iter().map(|s| s.packets).sum();
        assert_eq!(routed, t.packets.len() as u64);
        assert!(report.shards.iter().all(|s| s.packets > 0), "all shards saw traffic");
        assert!(report.balance() > 0.5, "hash balance {}", report.balance());
        // Batch accounting: every routed packet arrived inside a batch of
        // at most `batch_size`.
        for s in &report.shards {
            assert!(s.batches >= s.packets.div_ceil(16));
        }
    }

    #[test]
    fn a_flow_never_splits_across_shards() {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(150, 32);
        let _ = syn; // roster irrelevant here; we check the routing rule
        for tp in &t.packets {
            let key = tp.tuple.canonical().hash();
            let rev_key = tp.tuple.reversed().canonical().hash();
            for shards in [2usize, 3, 4, 8] {
                assert_eq!(
                    shard_of(key, 4096, shards),
                    shard_of(rev_key, 4096, shards),
                    "both directions share a home shard"
                );
            }
        }
    }

    #[test]
    fn reset_restores_a_fresh_runtime() {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(80, 33);
        let mut rt =
            RuntimeBuilder::new().shards(2).register_on(&syn, EngineBackend::Threshold).build();
        let first = rt.run_trace(&t);
        rt.reset();
        let second = rt.run_trace(&t);
        assert_eq!(first, second, "reset() makes runs reproducible");
    }

    #[test]
    fn balance_and_modeled_pps_are_per_run_on_a_long_lived_runtime() {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(100, 34);
        let mut rt = RuntimeBuilder::new()
            .shards(4)
            .backend(EngineBackend::Threshold)
            .register(&syn)
            .build();
        let first = rt.run_trace(&t);
        // Second run WITHOUT reset: replica reports accumulate, but
        // routing stats — and the metrics derived from them — are
        // per-run.
        let second = rt.run_trace(&t);
        assert_eq!(second.merged.packets, 2 * first.merged.packets, "reports accumulate");
        for (a, b) in first.shards.iter().zip(&second.shards) {
            assert_eq!(a.packets, b.packets, "same trace routes identically");
        }
        assert!(second.balance() <= 1.0, "balance stays in (0,1]: {}", second.balance());
        assert_eq!(second.balance(), first.balance());
        assert_eq!(second.modeled_pps(1e9), first.modeled_pps(1e9));
    }

    #[test]
    fn modeled_pps_scales_with_balance() {
        let report = RuntimeReport {
            merged: SwitchReport { packets: 100, ..SwitchReport::default() },
            shards: (0..4)
                .map(|shard| ShardStats {
                    shard,
                    packets: 25,
                    batches: 1,
                    report: SwitchReport::default(),
                })
                .collect(),
            segments: vec![taurus_ml::BinaryMetrics::default()],
            faults: FaultReport::default(),
            overload: OverloadReport::default(),
        };
        assert_eq!(report.balance(), 1.0);
        assert_eq!(report.modeled_pps(1e9), 4e9, "4 balanced shards = 4x line rate");
    }

    #[test]
    #[should_panic(expected = "at least one TaurusApp")]
    fn build_without_apps_panics() {
        let _ = RuntimeBuilder::new().shards(2).build();
    }

    #[test]
    fn non_dividing_shard_counts_build_and_route_every_packet() {
        // Slot-based routing removed the old divisibility constraint:
        // 3 shards against the default 4096 slots is now exact, not a
        // panic.
        let syn = SynFloodDetector::default_deployment();
        let t = trace(120, 35);
        for shards in [3usize, 5, 7] {
            let mut rt = RuntimeBuilder::new()
                .shards(shards)
                .register_on(&syn, EngineBackend::Threshold)
                .build();
            let report = rt.run_trace(&t);
            assert_eq!(report.merged.packets, t.packets.len() as u64);
        }
    }

    #[test]
    fn more_shards_than_register_slots_is_a_typed_build_error() {
        let syn = SynFloodDetector::default_deployment();
        let four_slots = || PipelineConfig { flow_slots: 4, ..PipelineConfig::default() };
        let err = RuntimeBuilder::new()
            .shards(8)
            .config(four_slots()) // 8 shards cannot share 4 route slots
            .register_on(&syn, EngineBackend::Threshold)
            .try_build()
            .expect_err("impossible geometry must be rejected");
        assert_eq!(err, BuildError::MoreShardsThanFlowSlots { shards: 8, flow_slots: 4 });
        assert!(err.to_string().contains("exceeds the 4 per-flow register slots"), "{err}");
        // At the boundary (one slot per shard) the config is legal.
        let rt = RuntimeBuilder::new()
            .shards(4)
            .config(four_slots())
            .register_on(&syn, EngineBackend::Threshold)
            .try_build()
            .expect("shards == flow_slots is the legal extreme");
        assert_eq!(rt.shard_count(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate app name")]
    fn duplicate_roster_rejected_at_build() {
        let a = SynFloodDetector::default_deployment();
        let b = SynFloodDetector::new(9);
        let _ = RuntimeBuilder::new()
            .register_on(&a, EngineBackend::Threshold)
            .register_on(&b, EngineBackend::Threshold)
            .build();
    }

    #[test]
    fn try_build_reports_duplicates_before_any_replica_exists() {
        // Regression: duplicates used to explode as a panic deep inside
        // replica construction (SwitchBuilder::register_on, once per
        // shard); try_build validates the roster up front and returns a
        // typed error instead.
        let a = SynFloodDetector::default_deployment();
        let b = SynFloodDetector::new(9); // different config, same name
        let err = RuntimeBuilder::new()
            .shards(4)
            .register_on(&a, EngineBackend::Threshold)
            .register_on(&b, EngineBackend::Threshold)
            .try_build()
            .expect_err("duplicate roster must be rejected");
        let BuildError::DuplicateApp(ref dup) = err else {
            panic!("expected DuplicateApp, got {err:?}");
        };
        assert_eq!(dup.name, "syn-flood");
        assert!(err.to_string().contains("duplicate app name `syn-flood`"), "{err}");

        // A clean roster builds fine through the same path.
        let rt = RuntimeBuilder::new()
            .shards(2)
            .register_on(&a, EngineBackend::Threshold)
            .try_build()
            .expect("unique roster builds");
        assert_eq!(rt.shard_count(), 2);
    }

    #[test]
    fn runs_without_updates_report_one_whole_run_segment() {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(120, 36);
        let mut rt =
            RuntimeBuilder::new().shards(4).register_on(&syn, EngineBackend::Threshold).build();
        let report = rt.run_trace(&t);
        assert_eq!(report.segments.len(), 1, "no updates: one segment");
        assert_eq!(report.segments[0].total(), t.packets.len() as u64);
        // The segment's confusion is consistent with the merged report:
        // enforcing single-app roster ⇒ drops == predicted positives.
        assert_eq!(report.segments[0].tp + report.segments[0].fp, report.merged.dropped);
    }

    #[test]
    fn scheduled_threshold_update_splits_segments_at_the_exact_packet() {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(150, 37);
        let k = (t.packets.len() / 2) as u64;
        let mut rt = RuntimeBuilder::new()
            .shards(2)
            .batch_size(16)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        // An absurdly high cutoff: the second segment can never drop.
        rt.schedule_update(k, syn.retune(i64::MAX - 1, 1, EngineBackend::Threshold));
        assert_eq!(rt.scheduled_updates(), vec![(k, "syn-flood".to_string(), 1)]);
        let report = rt.run_trace(&t);
        assert!(rt.scheduled_updates().is_empty(), "consumed by the feed");
        assert_eq!(rt.app_versions(), vec![("syn-flood".to_string(), 1)]);
        assert_eq!(report.segments.len(), 2);
        assert_eq!(report.segments[0].total(), k);
        assert_eq!(report.segments[1].total(), t.packets.len() as u64 - k);
        assert_eq!(report.segments[1].tp + report.segments[1].fp, 0, "new cutoff never fires");
    }

    #[test]
    fn updates_scheduled_past_the_stream_end_still_install() {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(40, 38);
        let mut rt =
            RuntimeBuilder::new().shards(2).register_on(&syn, EngineBackend::Threshold).build();
        rt.schedule_update(u64::MAX, syn.retune(50, 1, EngineBackend::Threshold));
        let report = rt.run_trace(&t);
        assert_eq!(report.segments.len(), 2);
        assert_eq!(report.segments[1].total(), 0, "nothing left to decide");
        assert_eq!(rt.app_versions(), vec![("syn-flood".to_string(), 1)]);
    }

    #[test]
    fn zero_queue_depth_is_a_typed_build_error() {
        // Regression: queue_depth(0) used to panic inside the setter;
        // it is now validated at build like the geometry errors.
        let syn = SynFloodDetector::default_deployment();
        let err = RuntimeBuilder::new()
            .shards(2)
            .queue_depth(0)
            .register_on(&syn, EngineBackend::Threshold)
            .try_build()
            .expect_err("zero-depth lanes must be rejected");
        assert_eq!(err, BuildError::ZeroQueueDepth);
        assert!(err.to_string().contains("queue_depth must be positive"), "{err}");
    }

    #[test]
    #[should_panic(expected = "queue_depth must be positive")]
    fn zero_queue_depth_still_panics_through_build() {
        let syn = SynFloodDetector::default_deployment();
        let _ = RuntimeBuilder::new()
            .queue_depth(0)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
    }

    #[test]
    fn overload_policy_defaults_to_block_and_is_plumbed_through() {
        let syn = SynFloodDetector::default_deployment();
        let rt =
            RuntimeBuilder::new().shards(2).register_on(&syn, EngineBackend::Threshold).build();
        assert_eq!(rt.overload_policy(), crate::OverloadPolicy::Block);
        let rt = RuntimeBuilder::new()
            .shards(2)
            .overload_policy(crate::OverloadPolicy::Degrade { patience: Duration::ZERO })
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        assert_eq!(
            rt.overload_policy(),
            crate::OverloadPolicy::Degrade { patience: Duration::ZERO }
        );
    }

    #[test]
    fn immediate_install_rejects_stale_versions_fleet_wide() {
        let syn = SynFloodDetector::default_deployment();
        let mut rt =
            RuntimeBuilder::new().shards(2).register_on(&syn, EngineBackend::Threshold).build();
        rt.install_update(&syn.retune(45, 3, EngineBackend::Threshold)).expect("fresh version");
        assert_eq!(rt.app_versions(), vec![("syn-flood".to_string(), 3)]);
        let err = rt
            .install_update(&syn.retune(45, 3, EngineBackend::Threshold))
            .expect_err("same version again is stale");
        assert!(err.to_string().contains("stale update"), "{err}");
        assert_eq!(rt.app_versions(), vec![("syn-flood".to_string(), 3)], "fleet untouched");
    }
}
