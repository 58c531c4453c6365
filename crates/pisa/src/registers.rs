//! Stateful register arrays and the flow-feature extractor.
//!
//! §3.1: "We use stateful elements (i.e., registers) of the
//! switch-processing pipeline to aggregate features across packets and
//! across flows" — per-flow byte/packet/flag counters keyed by a
//! five-tuple hash, plus cross-flow counters (connections to the same
//! host / service in a sliding window, the KDD `count`/`srv_count`
//! features). [`FlowTracker`] implements exactly the feature set the
//! paper's anomaly-detection case study extracts (§5.2.2: "uses the
//! packet's five-tuple to index a set of stateful registers, which
//! accumulate features across packets (e.g., the number of urgent
//! flags)").
//!
//! The same register stage builds the training set and drives the data
//! plane, which is how Taurus "achieves the same F1 score as the model
//! in isolation" — training and inference see identical features. Its
//! front end (the flow directory, flow starts and the
//! [`CrossFlowWindows`]) is `taurus_core::ingest::FrontEnd`, run once
//! per stream in front of every tracker.

use crate::flow_table::{FlowEntry, FlowRegisters, FlowTable, FlowTableKind, SlotOp};
use crate::pipeline::PipelineConfig;
use crate::slot_index::SlotIndex;

/// A register array: the PISA stateful primitive (bounded memory, indexed
/// by a hash — collisions are a modeled artifact, as in real switches).
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterArray {
    name: String,
    data: Vec<i64>,
    /// `key ↦ key % data.len()`.
    index: SlotIndex,
}

impl RegisterArray {
    /// Creates a zeroed array of `size` cells.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(name: impl Into<String>, size: usize) -> Self {
        assert!(size > 0, "register array needs at least one cell");
        Self { name: name.into(), data: vec![0; size], index: SlotIndex::of(size) }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn idx(&self, key: u64) -> usize {
        self.index.reduce(key)
    }

    /// Reads the cell for a key.
    #[inline]
    pub fn read(&self, key: u64) -> i64 {
        self.data[self.idx(key)]
    }

    /// Adds to the cell for a key with saturation at the `i64` bounds,
    /// returning the new value. Used where a wrapped counter would turn
    /// into a bogus small (or negative-clamped-to-zero) reading rather
    /// than an obviously pegged one — the window counters.
    #[inline]
    pub fn add_saturating(&mut self, key: u64, v: i64) -> i64 {
        let i = self.idx(key);
        self.data[i] = self.data[i].saturating_add(v);
        self.data[i]
    }

    /// Resets every cell to zero.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

/// Cumulative features for one flow at one packet, in raw (pre-encoding)
/// units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowFeatures {
    /// Time since the flow's first packet, ns.
    pub duration_ns: u64,
    /// Originator→responder bytes so far.
    pub fwd_bytes: u64,
    /// Responder→originator bytes so far.
    pub rev_bytes: u64,
    /// Packets so far (both directions).
    pub packets: u64,
    /// URG-flagged packets so far.
    pub urgent: u64,
    /// Bare-SYN packets so far (no ACK — the S0/SYN-flood signature).
    pub syn_only: u64,
    /// Flows to the same destination host in the sliding window.
    pub dst_count: u64,
    /// Flows to the same destination service in the sliding window.
    pub srv_count: u64,
    /// IP protocol.
    pub proto: u8,
}

impl FlowFeatures {
    /// Encodes the 6-feature DNN view (the stream analogue of the
    /// `taurus-dataset` `Dnn6` view): log-compressed heavy-tailed fields
    /// plus the protocol likelihood (§3.1 preprocessing).
    pub fn encode_dnn6(&self) -> [f32; 6] {
        [
            (self.duration_ns as f32 / 1e6).ln_1p(), // ms scale
            proto_likelihood(self.proto),
            (self.fwd_bytes as f32).ln_1p(),
            (self.rev_bytes as f32).ln_1p(),
            (self.dst_count as f32).ln_1p(),
            (self.srv_count as f32).ln_1p(),
        ]
    }
}

/// The §3.1 protocol→likelihood lookup (mirrors
/// `taurus_dataset::kdd::Protocol::likelihood`).
pub fn proto_likelihood(proto: u8) -> f32 {
    match proto {
        6 => 0.45,
        17 => 0.20,
        1 => 0.80,
        _ => 0.55,
    }
}

/// Sliding-window counter bank: the classic two-epoch approximation
/// switches use (current + previous epoch counts bound the true windowed
/// count within 2×).
#[derive(Debug, Clone, PartialEq)]
struct WindowCounters {
    current: RegisterArray,
    previous: RegisterArray,
    epoch_start_ns: u64,
    window_ns: u64,
}

impl WindowCounters {
    fn new(name: &str, size: usize, window_ns: u64) -> Self {
        Self {
            current: RegisterArray::new(format!("{name}.cur"), size),
            previous: RegisterArray::new(format!("{name}.prev"), size),
            epoch_start_ns: 0,
            window_ns,
        }
    }

    #[inline]
    fn rotate_if_needed(&mut self, now_ns: u64) {
        let elapsed = now_ns.saturating_sub(self.epoch_start_ns);
        if elapsed >= 2 * self.window_ns {
            // More than two epochs idle: everything is stale.
            self.current.clear();
            self.previous.clear();
            self.epoch_start_ns = now_ns;
        } else if elapsed >= self.window_ns {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
            self.epoch_start_ns = now_ns;
        }
    }

    /// Bumps the key's current-epoch cell and returns the windowed
    /// total. The caller must have rotated for this timestamp already.
    /// Saturating throughout: an adversarially long run pegs the count
    /// at `i64::MAX` instead of wrapping negative and clamping to 0.
    #[inline]
    fn bump(&mut self, key: u64) -> u64 {
        let cur = self.current.add_saturating(key, 1);
        cur.saturating_add(self.previous.read(key)).max(0) as u64
    }

    #[inline]
    fn read(&self, key: u64) -> u64 {
        self.current.read(key).saturating_add(self.previous.read(key)).max(0) as u64
    }

    fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
        self.epoch_start_ns = 0;
    }
}

/// The *cross-flow* half of the register stage: destination-host and
/// destination-service fan-in over a sliding window (the KDD
/// `count`/`srv_count` features).
///
/// Separated from the per-flow arrays because its keys (responder IP /
/// IP+port) are **not** flow-consistent: flows hashing to different
/// shards can share a destination. One instance therefore sits in the
/// stream's front end (`taurus_core::ingest::FrontEnd`), which the
/// sequential switch, the runtime's ingest and the training-set
/// extractor each run in arrival order, handing the counts to every
/// app's tracker via [`FlowTracker::observe_slot`] — which is exactly
/// how the paper's hardware partitions the work (the register stage
/// sits before any fan-out, so cross-flow state sees every packet in
/// arrival order).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossFlowWindows {
    dst: WindowCounters,
    srv: WindowCounters,
}

impl CrossFlowWindows {
    /// Creates the two window banks with `slots` cells each.
    pub fn new(slots: usize, window_ns: u64) -> Self {
        Self {
            dst: WindowCounters::new("dst", slots, window_ns),
            srv: WindowCounters::new("srv", slots, window_ns),
        }
    }

    /// Observes one packet and returns `(dst_count, srv_count)`: flow
    /// starts bump the windows, non-starts read them. Both banks rotate
    /// on *every* packet — a non-start arriving after an idle gap must
    /// not read fan-in counts that should have aged out of the window.
    #[inline]
    pub fn observe(&mut self, obs: &PacketObs) -> (u64, u64) {
        self.dst.rotate_if_needed(obs.ts_ns);
        self.srv.rotate_if_needed(obs.ts_ns);
        if obs.is_flow_start {
            (self.dst.bump(obs.dst_key), self.srv.bump(obs.srv_key))
        } else {
            (self.dst.read(obs.dst_key), self.srv.read(obs.srv_key))
        }
    }

    /// Clears both banks.
    pub fn clear(&mut self) {
        self.dst.clear();
        self.srv.clear();
    }
}

/// Per-flow feature state for the data plane: the register array, and
/// a flow directory of its geometry for callers that probe per tracker
/// ([`FlowTracker::observe_prepared`]). A stream's front end decides
/// slots and window counts once for every tracker, which then takes
/// [`FlowTracker::observe_slot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTracker {
    /// Decides each packet's register slot for
    /// [`FlowTracker::observe_prepared`].
    directory: FlowTable,
    registers: FlowRegisters,
}

/// One packet's worth of observation input to the register stage
/// ([`FlowTracker::observe_slot`], [`CrossFlowWindows::observe`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketObs {
    /// Direction-independent flow key (canonical five-tuple hash).
    pub flow_key: u64,
    /// Destination-host key (responder IP hash).
    pub dst_key: u64,
    /// Destination-service key (responder IP + port hash).
    pub srv_key: u64,
    /// Whether this packet travels responder → originator.
    pub reverse: bool,
    /// Whether this is the flow's first packet (SYN direction).
    pub is_flow_start: bool,
    /// Wire bytes.
    pub len: u16,
    /// TCP flags.
    pub tcp_flags: u8,
    /// IP protocol.
    pub proto: u8,
    /// Arrival time, ns.
    pub ts_ns: u64,
}

impl FlowTracker {
    /// Creates a direct-mapped tracker with `slots` cells. `window_ns`
    /// is not read (see [`FlowTracker::with_kind`]).
    pub fn new(slots: usize, window_ns: u64) -> Self {
        Self::with_kind(FlowTableKind::DirectMapped, slots, window_ns)
    }

    /// Creates a tracker over the given flow-table geometry.
    /// `window_ns` is not read: the cross-flow windows live in the
    /// stream's front end, and the argument stays for existing callers.
    pub fn with_kind(kind: FlowTableKind, flow_slots: usize, _window_ns: u64) -> Self {
        Self {
            directory: FlowTable::with_kind(kind, flow_slots, 0),
            registers: FlowRegisters::with_kind(kind, flow_slots),
        }
    }

    /// The tracker a pipeline built from `config` runs: its flow-table
    /// geometry, slots and idle timeout. Anything that must compute the
    /// data plane's features off the switch (e.g. training-set
    /// extraction) builds its tracker here, so it cannot drift from the
    /// switch's when a default changes.
    pub fn from_config(config: &PipelineConfig) -> Self {
        let mut tracker = Self::with_kind(config.flow_table, config.flow_slots, config.window_ns);
        tracker.set_idle_timeout(config.idle_timeout_ns);
        tracker
    }

    /// Enables (or, with 0, disables) idle-timeout expiration of
    /// per-flow slots. A slot untouched for at least `idle_timeout_ns`
    /// is cleared before its next packet accumulates, so that packet
    /// re-observes as a fresh flow start rather than inheriting the
    /// dead occupant's counters.
    pub fn set_idle_timeout(&mut self, idle_timeout_ns: u64) {
        self.directory.set_idle_timeout(idle_timeout_ns);
    }

    /// The register array and its table statistics.
    pub fn registers(&self) -> &FlowRegisters {
        &self.registers
    }

    /// Observes one packet whose cross-flow window counts were computed
    /// elsewhere: probes this tracker's own directory, then takes
    /// [`FlowTracker::observe_slot`].
    #[inline]
    pub fn observe_prepared(
        &mut self,
        obs: &PacketObs,
        dst_count: u64,
        srv_count: u64,
    ) -> FlowFeatures {
        let op = self.probe(obs);
        self.observe_slot(op, obs, dst_count, srv_count)
    }

    /// This tracker's own directory access for one packet.
    #[inline]
    pub fn probe(&mut self, obs: &PacketObs) -> SlotOp {
        self.directory.op(obs.flow_key, obs.ts_ns)
    }

    /// Observes one packet whose register slot (`op`, a
    /// [`FlowTable::op`]) and window counts were decided elsewhere: the
    /// sharded runtime replicas' only path. It reads neither
    /// `obs.flow_key` nor `obs.is_flow_start`.
    #[inline]
    pub fn observe_slot(
        &mut self,
        op: SlotOp,
        obs: &PacketObs,
        dst_count: u64,
        srv_count: u64,
    ) -> FlowFeatures {
        accumulate_at(self.registers.apply(op), obs, dst_count, srv_count)
    }

    /// Clears all state (e.g., between experiment runs), including the
    /// flow table and its eviction counters.
    pub fn clear(&mut self) {
        self.directory.clear();
        self.registers.clear();
    }
}

/// Accumulates one packet into a flow's entry and derives the feature
/// view. Field arithmetic mirrors the historical `RegisterArray`
/// semantics exactly (wrapping adds, `ts + 1` first-seen sentinel with a
/// single read after the conditional stamp).
#[inline]
fn accumulate_at(
    e: &mut FlowEntry,
    obs: &PacketObs,
    dst_count: u64,
    srv_count: u64,
) -> FlowFeatures {
    e.pkt_count = e.pkt_count.wrapping_add(1);
    let packets = e.pkt_count as u64;
    if obs.reverse {
        e.rev_bytes = e.rev_bytes.wrapping_add(i64::from(obs.len));
    } else {
        e.fwd_bytes = e.fwd_bytes.wrapping_add(i64::from(obs.len));
    }
    if obs.tcp_flags & 0x20 != 0 {
        e.urg_count = e.urg_count.wrapping_add(1);
    }
    let bare_syn = obs.tcp_flags & 0x02 != 0 && obs.tcp_flags & 0x10 == 0;
    if bare_syn {
        e.syn_count = e.syn_count.wrapping_add(1);
    }
    if e.first_ts == 0 {
        // ts 0 is "unset"; first packet stamps ts+1 to disambiguate.
        e.first_ts = obs.ts_ns as i64 + 1;
    }
    let first = (e.first_ts - 1).max(0) as u64;

    FlowFeatures {
        duration_ns: obs.ts_ns.saturating_sub(first),
        fwd_bytes: e.fwd_bytes.max(0) as u64,
        rev_bytes: e.rev_bytes.max(0) as u64,
        packets,
        urgent: e.urg_count.max(0) as u64,
        syn_only: e.syn_count.max(0) as u64,
        dst_count,
        srv_count,
        proto: obs.proto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(flow: u64, ts: u64, len: u16, flags: u8, start: bool, reverse: bool) -> PacketObs {
        PacketObs {
            flow_key: flow,
            dst_key: flow % 7,
            srv_key: flow % 13,
            reverse,
            is_flow_start: start,
            len,
            tcp_flags: flags,
            proto: 6,
            ts_ns: ts,
        }
    }

    #[test]
    fn register_array_ops() {
        let mut r = RegisterArray::new("t", 8);
        assert_eq!(r.read(3), 0);
        assert_eq!(r.add_saturating(3, 5), 5);
        assert_eq!(r.add_saturating(3, 95), 100);
        assert_eq!(r.read(3), 100);
        assert_eq!(r.read(11), 100, "hash wraps modulo size");
        r.clear();
        assert_eq!(r.read(3), 0);
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn flow_accumulation() {
        let mut t = FlowTracker::new(64, 1_000_000);
        let f1 = t.observe_prepared(&obs(1, 1_000, 100, 0x02, true, false), 0, 0);
        assert_eq!(f1.packets, 1);
        assert_eq!(f1.fwd_bytes, 100);
        assert_eq!(f1.syn_only, 1, "bare SYN counted");
        assert_eq!(f1.duration_ns, 0);

        let f2 = t.observe_prepared(&obs(1, 5_000, 200, 0x30, false, true), 0, 0);
        assert_eq!(f2.packets, 2);
        assert_eq!(f2.fwd_bytes, 100);
        assert_eq!(f2.rev_bytes, 200);
        assert_eq!(f2.urgent, 1, "URG counted");
        assert_eq!(f2.duration_ns, 4_000);
    }

    #[test]
    fn cross_flow_window_counts_flow_starts() {
        let mut w = CrossFlowWindows::new(64, 1_000_000);
        // Three flows to the same dst key within one window.
        for flow in [7u64, 14, 21] {
            w.observe(&obs(flow, 10_000, 60, 0x02, true, false));
        }
        let (dst_count, _) = w.observe(&obs(28, 20_000, 60, 0x02, true, false));
        assert_eq!(dst_count, 4, "all four flow starts hit dst key 0");
    }

    #[test]
    fn window_rotation_forgets_old_epochs() {
        let mut w = CrossFlowWindows::new(64, 1_000);
        for k in 0..5u64 {
            w.observe(&obs(k * 7, 100, 60, 0x02, true, false));
        }
        // Two full windows later the old counts have aged out.
        let (dst_count, _) = w.observe(&obs(35, 3_500, 60, 0x02, true, false));
        assert!(dst_count <= 2, "old epoch forgotten, got {dst_count}");
    }

    #[test]
    fn non_start_reads_rotate_the_window_too() {
        let mut w = CrossFlowWindows::new(64, 1_000);
        // Three flow starts to dst key 0 inside one window…
        for flow in [7u64, 14, 21] {
            w.observe(&obs(flow, 100, 60, 0x02, true, false));
        }
        // …then a non-start to the same keys two full windows later:
        // the stale fan-in must have aged out, not read back as 3.
        let (d, s) = w.observe(&obs(28, 3_000, 60, 0x10, false, false));
        assert_eq!((d, s), (0, 0), "idle gap ages out counts for reads too");
    }

    #[test]
    fn idle_timeout_evicts_and_the_flow_restarts_fresh() {
        let mut t = FlowTracker::new(64, 1_000_000);
        t.set_idle_timeout(10_000);
        assert_eq!(t.observe_prepared(&obs(1, 1_000, 100, 0x02, true, false), 0, 0).packets, 1);
        assert_eq!(t.observe_prepared(&obs(1, 2_000, 100, 0x10, false, false), 0, 0).packets, 2);
        // Gap ≥ timeout: the slot is reclaimed and this packet opens a
        // fresh flow — no inherited counters, no inherited first_ts.
        let f = t.observe_prepared(&obs(1, 50_000, 80, 0x02, true, false), 0, 0);
        assert_eq!(f.packets, 1, "evicted slot restarts at packet 1");
        assert_eq!(f.duration_ns, 0);
        assert_eq!(f.fwd_bytes, 80);
        assert_eq!(t.registers().idle_evictions(), 1);

        // The same stream with expiration disabled keeps accumulating.
        let mut u = FlowTracker::new(64, 1_000_000);
        u.observe_prepared(&obs(1, 1_000, 100, 0x02, true, false), 0, 0);
        u.observe_prepared(&obs(1, 2_000, 100, 0x10, false, false), 0, 0);
        assert_eq!(u.observe_prepared(&obs(1, 50_000, 80, 0x02, true, false), 0, 0).packets, 3);
        assert_eq!(u.registers().idle_evictions(), 0);
    }

    #[test]
    fn clear_restores_the_freshly_built_state() {
        let mut t = FlowTracker::new(64, 1_000);
        for k in 0..6u64 {
            t.observe_prepared(&obs(k, 5_000 + k * 900, 60, 0x02, true, false), 0, 0);
        }
        t.clear();
        assert_eq!(t, FlowTracker::new(64, 1_000), "clear() == fresh tracker");
    }

    #[test]
    fn from_config_builds_the_pipelines_tracker() {
        let default = PipelineConfig::default();
        assert_eq!(FlowTracker::from_config(&default), FlowTracker::new(4096, 5_000_000));
        let expiring = PipelineConfig { idle_timeout_ns: 10_000, ..default };
        let mut want = FlowTracker::new(4096, 5_000_000);
        want.set_idle_timeout(10_000);
        assert_eq!(FlowTracker::from_config(&expiring), want);
    }

    #[test]
    fn keyed_tracker_keeps_colliding_flows_separate() {
        use crate::flow_table::FlowTableKind;
        // Keys 3 and 11 collide direct-mapped at 8 slots; keyed they
        // share bucket 3 but keep distinct entries.
        let mut direct = FlowTracker::new(8, 1_000_000);
        let mut keyed =
            FlowTracker::with_kind(FlowTableKind::Keyed { buckets: 8, ways: 2 }, 8, 1_000_000);
        for t in [&mut direct, &mut keyed] {
            t.observe_prepared(&obs(3, 1_000, 100, 0x02, true, false), 0, 0);
            t.observe_prepared(&obs(11, 2_000, 60, 0x02, true, false), 0, 0);
        }
        let d = direct.observe_prepared(&obs(3, 3_000, 40, 0x10, false, false), 0, 0);
        let k = keyed.observe_prepared(&obs(3, 3_000, 40, 0x10, false, false), 0, 0);
        assert_eq!(d.packets, 3, "direct-mapped collision merges the flows");
        assert_eq!(k.packets, 2, "keyed table keeps them separate");
        assert_eq!(k.fwd_bytes, 140);
    }

    #[test]
    fn keyed_tracker_idle_eviction_restarts_fresh_and_counts() {
        use crate::flow_table::FlowTableKind;
        let mut t =
            FlowTracker::with_kind(FlowTableKind::Keyed { buckets: 4, ways: 2 }, 64, 1_000_000);
        t.set_idle_timeout(10_000);
        assert_eq!(t.observe_prepared(&obs(1, 1_000, 100, 0x02, false, false), 0, 0).packets, 1);
        assert_eq!(t.observe_prepared(&obs(1, 2_000, 100, 0x10, false, false), 0, 0).packets, 2);
        let f = t.observe_prepared(&obs(1, 50_000, 80, 0x02, false, false), 0, 0);
        assert_eq!(f.packets, 1, "idled occupant restarts at packet 1");
        assert_eq!(f.duration_ns, 0);
        assert_eq!(t.registers().idle_evictions(), 1);
        assert_eq!(t.registers().capacity_evictions(), 0);
    }

    #[test]
    fn keyed_tracker_capacity_eviction_surfaces_in_stats() {
        use crate::flow_table::FlowTableKind;
        let mut t =
            FlowTracker::with_kind(FlowTableKind::Keyed { buckets: 1, ways: 2 }, 64, 1_000_000);
        for key in 1..=5u64 {
            t.observe_prepared(&obs(key, key * 1_000, 60, 0x02, false, false), 0, 0);
        }
        assert_eq!(t.registers().capacity_evictions(), 3, "5 flows through a 2-way bucket");
        assert_eq!(t.registers().occupancy(), 2);
        assert_eq!(
            t.registers().probe_hist().iter().sum::<u64>(),
            5,
            "every access lands in the histogram"
        );
    }

    mod window_overflow {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            // Satellite fix pin: windowed counts saturate instead of
            // wrapping through i64 overflow. Prefill the current bank
            // near i64::MAX, then any mix of bumps and reads must stay
            // pegged at huge values — never wrap negative and clamp to
            // a small/zero reading.
            #[test]
            fn window_counters_saturate_instead_of_wrapping(
                prefill in (i64::MAX - 64)..i64::MAX,
                ops in proptest::collection::vec(any::<bool>(), 1..40),
            ) {
                let mut w = WindowCounters::new("t", 4, u64::MAX);
                w.current.add_saturating(0, prefill);
                w.previous.add_saturating(0, prefill);
                let floor = prefill as u64;
                for bump in ops {
                    let got = if bump { w.bump(0) } else { w.read(0) };
                    prop_assert!(got >= floor, "count regressed: {got} < {floor}");
                }
                prop_assert!(w.current.read(0) >= prefill, "current bank wrapped");
            }
        }
    }

    #[test]
    fn encodings_have_expected_widths_and_are_finite() {
        let mut t = FlowTracker::new(16, 1_000_000);
        let f = t.observe_prepared(&obs(1, 999, 1500, 0x22, true, false), 0, 0);
        let d = f.encode_dnn6();
        assert_eq!(d.len(), 6);
        assert!(d.iter().all(|v| v.is_finite()));
        assert_eq!(proto_likelihood(6), 0.45);
        assert_eq!(proto_likelihood(99), 0.55);
    }
}
