//! Bounded per-flow state as the two halves of a PISA register stage: a
//! hash unit decides which register slot a packet's flow owns, and every
//! stateful ALU of the stage uses that one slot (Taurus §3.1, Fig. 6).
//!
//! - [`FlowTable`], the directory, holds keys and clocks only (16 B a
//!   slot, a 4-way bucket per cache line) and alone decides occupancy.
//!   Each access yields a [`SlotOp`].
//! - [`FlowRegisters`], the array, holds one [`FlowEntry`] a slot and no
//!   keys, clocks or probe: [`FlowRegisters::apply`] replays an op and
//!   counts the table statistics from its access kind.
//!
//! One directory per stream sits in its front end
//! (`taurus_core::ingest::FrontEnd`): the sequential switch hands each
//! op to every app's array, and the sharded runtime probes it on the
//! feeding thread and ships each op to the replica that owns its bucket.
//! [`crate::FlowTracker`] holds both halves for callers that probe per
//! tracker.
//!
//! The directory models two hardware disciplines:
//!
//! - **Direct-mapped** (the classic PISA register-array view): slot =
//!   `key % slots` (a [`SlotIndex`]: a mask for power-of-two sizes),
//!   colliding flows silently share a slot, and the only reclamation is
//!   the lazy idle-timeout check that rides each access.
//! - **Keyed** (`B` buckets × `W` ways): each occupant stores its full
//!   64-bit key, lookups probe one bucket's ways, a hit one-step
//!   robin-hood-promotes toward way 0, and a miss into a full bucket
//!   evicts the bucket's oldest-last-seen occupant.
//!
//! Both share the `ts + 1` last-seen sentinel (0 = never seen) and the
//! lazy idle check, which rides the packet that would observe the stale
//! state: no sweeper, no timer wheel, no allocation on the hot path.
//! Displacement and eviction stay inside one bucket, and bucket routing
//! sends a bucket's packets through one shard in arrival order, so a
//! replica's ops — its registers and counters — are the same for every
//! shard/worker geometry.

use crate::slot_index::SlotIndex;

/// Flow-table geometry selector, carried by `PipelineConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowTableKind {
    /// Slot = `key % flow_slots`, exactly what the table's [`SlotIndex`]
    /// computes; colliding flows share state. The default —
    /// byte-identical to the historical register arrays.
    #[default]
    DirectMapped,
    /// Set-associative keyed table: `buckets × ways` occupants, each
    /// holding its full key; bucket-local displacement and
    /// oldest-last-seen capacity eviction.
    Keyed {
        /// Number of buckets (the shard-routing modulus in keyed mode).
        buckets: usize,
        /// Ways (occupants) per bucket.
        ways: usize,
    },
}

impl FlowTableKind {
    /// The slots of this geometry (`flow_slots` direct-mapped,
    /// `buckets × ways` keyed), or `None` unless there are `1..=2^32`.
    pub fn slots(self, flow_slots: usize) -> Option<usize> {
        let slots = match self {
            Self::DirectMapped => flow_slots,
            Self::Keyed { buckets, ways } => buckets.checked_mul(ways)?,
        };
        (slots > 0 && u32::try_from(slots - 1).is_ok()).then_some(slots)
    }

    fn slots_or_panic(self, flow_slots: usize) -> usize {
        self.slots(flow_slots).expect("a flow table needs 1..=2^32 slots")
    }
}

/// Outcome of one [`FlowTable::access`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Access {
    /// Known occupant, still live.
    #[default]
    Hit = 0,
    /// No occupant for this key (keyed: key absent; direct-mapped with
    /// the idle timer on: slot never stamped). The slot now holds the
    /// key.
    Miss = 1,
    /// The key's previous state idled out; this access re-opens the
    /// flow in place.
    IdleEvicted = 2,
    /// Keyed only: the bucket was full, its oldest-last-seen occupant
    /// was evicted, and the slot now holds this key.
    CapacityEvicted = 3,
}

impl Access {
    /// Whether this access semantically opens a flow: in keyed mode a
    /// miss or any eviction *is* a flow start (table-miss semantics).
    #[inline]
    pub fn is_start(self) -> bool {
        !matches!(self, Access::Hit)
    }
}

/// What one directory access decided for a packet's flow, as the
/// register array replays it ([`FlowRegisters::apply`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotOp {
    /// The flow's register slot after the access.
    pub slot: u32,
    /// What the access did.
    pub access: Access,
    /// A keyed hit moved one way toward the bucket's front: its
    /// registers move from `slot + 1` to `slot`.
    pub promoted: bool,
}

impl SlotOp {
    #[inline]
    fn new(slot: usize, access: Access) -> Self {
        Self { slot: slot as u32, access, promoted: false }
    }
}

/// Per-flow accumulated counters: the struct-of-fields replacement for
/// the six parallel `RegisterArray`s. All fields keep `i64` register
/// semantics (wrapping adds, `ts + 1` first-seen sentinel) so the
/// direct-mapped path stays bit-identical to the historical arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowEntry {
    /// Packets so far, both directions.
    pub pkt_count: i64,
    /// Originator→responder bytes so far.
    pub fwd_bytes: i64,
    /// Responder→originator bytes so far.
    pub rev_bytes: i64,
    /// URG-flagged packets so far.
    pub urg_count: i64,
    /// Bare-SYN packets so far.
    pub syn_count: i64,
    /// First-packet timestamp as `ts + 1` (0 = unset).
    pub first_ts: i64,
}

/// One directory slot: the occupant's key and its occupancy clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FlowSlot {
    key: u64,
    /// Last access as `ts_ns + 1` (0 = slot empty / never stamped).
    last_seen: i64,
}

/// The flow directory: keys and clocks with lazy idle-timeout expiration
/// (a timeout of 0 disables it) and, keyed, capacity eviction. Its slots
/// are allocated at the first access that reads them, so a directory
/// never probed — a runtime replica's, or a direct-mapped one without a
/// timeout — holds no keys or clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTable {
    kind: FlowTableKind,
    slots: Vec<FlowSlot>,
    capacity: usize,
    /// `key ↦ key % slots` direct-mapped, `key ↦ key % buckets` keyed.
    index: SlotIndex,
    idle_timeout_ns: u64,
}

impl FlowTable {
    /// Builds a directory for `kind`; `flow_slots` sizes the
    /// direct-mapped variant.
    ///
    /// # Panics
    ///
    /// Unless [`FlowTableKind::slots`] is `Some`.
    pub fn with_kind(kind: FlowTableKind, flow_slots: usize, idle_timeout_ns: u64) -> Self {
        let capacity = kind.slots_or_panic(flow_slots);
        let index_len = match kind {
            FlowTableKind::DirectMapped => capacity,
            FlowTableKind::Keyed { buckets, .. } => buckets,
        };
        Self { kind, slots: Vec::new(), capacity, index: SlotIndex::of(index_len), idle_timeout_ns }
    }

    /// Whether this is the keyed set-associative variant.
    #[inline]
    pub fn is_keyed(&self) -> bool {
        matches!(self.kind, FlowTableKind::Keyed { .. })
    }

    /// Reconfigures the timeout. Setting 0 disables expiration; already
    /// stamped timestamps are left in place (harmless — they are only
    /// consulted while enabled).
    pub fn set_idle_timeout(&mut self, idle_timeout_ns: u64) {
        self.idle_timeout_ns = idle_timeout_ns;
    }

    /// Looks up (and installs, stamps, promotes, or evicts as needed)
    /// the slot for `key` at time `now_ns`.
    #[inline]
    pub fn op(&mut self, key: u64, now_ns: u64) -> SlotOp {
        match self.kind {
            FlowTableKind::DirectMapped => self.access_direct(key, now_ns),
            FlowTableKind::Keyed { ways, .. } => self.access_keyed(key, now_ns, ways),
        }
    }

    /// [`FlowTable::op`] as the slot index and what happened.
    #[inline]
    pub fn access(&mut self, key: u64, now_ns: u64) -> (usize, Access) {
        let op = self.op(key, now_ns);
        (op.slot as usize, op.access)
    }

    #[inline]
    fn slots_mut(&mut self) -> &mut [FlowSlot] {
        if self.slots.is_empty() {
            self.allocate();
        }
        &mut self.slots
    }

    #[cold]
    fn allocate(&mut self) {
        self.slots.resize(self.capacity, FlowSlot::default());
    }

    /// Disabled direct-mapped tables never stamp and never evict.
    #[inline]
    fn access_direct(&mut self, key: u64, now_ns: u64) -> SlotOp {
        let idx = self.index.reduce(key);
        let timeout = self.idle_timeout_ns;
        if timeout == 0 {
            return SlotOp::new(idx, Access::Hit);
        }
        let slot = &mut self.slots_mut()[idx];
        let prev = slot.last_seen;
        slot.last_seen = (now_ns as i64).wrapping_add(1);
        let access = if prev == 0 {
            Access::Miss
        } else if now_ns.saturating_sub((prev - 1).max(0) as u64) >= timeout {
            Access::IdleEvicted
        } else {
            Access::Hit
        };
        SlotOp::new(idx, access)
    }

    #[inline]
    fn access_keyed(&mut self, key: u64, now_ns: u64, ways: usize) -> SlotOp {
        let base = self.index.reduce(key) * ways;
        let stamp = (now_ns as i64).wrapping_add(1);
        let timeout = self.idle_timeout_ns;
        let bucket = &mut self.slots_mut()[base..base + ways];
        // Probe the bucket for this key.
        if let Some(w) = bucket.iter().position(|s| s.last_seen != 0 && s.key == key) {
            let prev = bucket[w].last_seen;
            bucket[w].last_seen = stamp;
            let idled = timeout != 0 && now_ns.saturating_sub((prev - 1).max(0) as u64) >= timeout;
            // One-step robin-hood transpose: a freshly stamped hit swaps
            // with its predecessor when the predecessor is strictly
            // colder, so hot flows migrate toward way 0. Purely
            // positional — eviction picks by timestamp, not position.
            let promoted = w > 0 && bucket[w - 1].last_seen < stamp;
            if promoted {
                bucket.swap(w - 1, w);
            }
            let access = if idled { Access::IdleEvicted } else { Access::Hit };
            return SlotOp { promoted, ..SlotOp::new(base + w - usize::from(promoted), access) };
        }
        // Miss: take the first empty way.
        if let Some(w) = bucket.iter().position(|s| s.last_seen == 0) {
            bucket[w] = FlowSlot { key, last_seen: stamp };
            return SlotOp::new(base + w, Access::Miss);
        }
        // Bucket full: evict the oldest-last-seen occupant (lowest way
        // index on ties — position-independent of promotion history).
        let (victim, _) =
            bucket.iter().enumerate().min_by_key(|(_, s)| s.last_seen).expect("ways > 0");
        bucket[victim] = FlowSlot { key, last_seen: stamp };
        SlotOp::new(base + victim, Access::CapacityEvicted)
    }

    /// Forgets every occupant and timestamp (geometry and timeout are
    /// kept).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

/// The register array: one [`FlowEntry`] a slot, addressed by the
/// [`SlotOp`]s of a directory of the same geometry, plus the table
/// statistics counted from their access kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRegisters {
    entries: Vec<FlowEntry>,
    /// Bit `a` set: access kind `a` starts its entry afresh.
    resets: u8,
    /// `slot ↦ way` (keyed only), for the probe histogram.
    ways: Option<SlotIndex>,
    /// Ops applied per access kind.
    by_access: [u64; 4],
    probe_hist: Vec<u64>,
}

impl FlowRegisters {
    /// A zeroed array for [`FlowTable::with_kind`]'s geometry.
    ///
    /// # Panics
    ///
    /// Unless [`FlowTableKind::slots`] is `Some`.
    pub fn with_kind(kind: FlowTableKind, flow_slots: usize) -> Self {
        let slots = kind.slots_or_panic(flow_slots);
        let (resets, ways) = match kind {
            // A direct-mapped miss keeps what colliding flows
            // accumulated; only an idle eviction starts afresh.
            FlowTableKind::DirectMapped => (1 << Access::IdleEvicted as u8, 0),
            FlowTableKind::Keyed { ways, .. } => (!(1 << Access::Hit as u8), ways),
        };
        Self {
            entries: vec![FlowEntry::default(); slots],
            resets,
            ways: (ways > 0).then(|| SlotIndex::of(ways)),
            by_access: [0; 4],
            probe_hist: vec![0; ways],
        }
    }

    /// Replays one directory op and returns the flow's entry: a promoted
    /// hit's registers move from `slot + 1` to `slot`, and an access that
    /// starts the flow afresh (keyed: every non-`Hit`; direct-mapped: an
    /// idle eviction) zeroes them.
    #[inline]
    pub fn apply(&mut self, op: SlotOp) -> &mut FlowEntry {
        let slot = op.slot as usize;
        if op.promoted {
            self.entries.swap(slot, slot + 1);
        }
        let access = op.access as u8;
        self.by_access[usize::from(access)] += 1;
        if let Some(ways) = self.ways {
            self.probe_hist[ways.reduce(u64::from(op.slot))] += 1;
        }
        let entry = &mut self.entries[slot];
        if self.resets >> access & 1 != 0 {
            *entry = FlowEntry::default();
        }
        entry
    }

    /// Idle-timeout evictions since construction or the last clear.
    pub fn idle_evictions(&self) -> u64 {
        self.by_access[Access::IdleEvicted as usize]
    }

    /// Capacity (bucket-full) evictions; 0 direct-mapped.
    pub fn capacity_evictions(&self) -> u64 {
        self.by_access[Access::CapacityEvicted as usize]
    }

    /// Slots stamped for a new occupant (direct-mapped tables stamp only
    /// while the idle timer is on).
    pub fn occupancy(&self) -> u64 {
        self.by_access[Access::Miss as usize]
    }

    /// Accesses resolved at each way (keyed; empty direct-mapped).
    pub fn probe_hist(&self) -> &[u64] {
        &self.probe_hist
    }

    /// Zeroes every entry and counter (geometry is kept).
    pub fn clear(&mut self) {
        self.entries.fill(FlowEntry::default());
        self.by_access = [0; 4];
        self.probe_hist.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory and the array that replays its ops.
    struct Stage {
        table: FlowTable,
        regs: FlowRegisters,
    }

    impl Stage {
        fn new(kind: FlowTableKind, flow_slots: usize, idle_timeout_ns: u64) -> Self {
            Self {
                table: FlowTable::with_kind(kind, flow_slots, idle_timeout_ns),
                regs: FlowRegisters::with_kind(kind, flow_slots),
            }
        }

        fn direct(slots: usize, idle_timeout_ns: u64) -> Self {
            Self::new(FlowTableKind::DirectMapped, slots, idle_timeout_ns)
        }

        fn keyed(buckets: usize, ways: usize, idle_timeout_ns: u64) -> Self {
            Self::new(FlowTableKind::Keyed { buckets, ways }, 0, idle_timeout_ns)
        }

        /// One packet of `key`: the access, and the flow's packet count
        /// after it accumulates.
        fn touch(&mut self, key: u64, now: u64) -> (u32, Access, i64) {
            let op = self.table.op(key, now);
            let entry = self.regs.apply(op);
            entry.pkt_count += 1;
            (op.slot, op.access, entry.pkt_count)
        }

        fn evicts(&mut self, key: u64, now: u64) -> bool {
            self.touch(key, now).1 == Access::IdleEvicted
        }
    }

    #[test]
    fn disabled_direct_table_never_stamps_or_evicts() {
        let mut t = Stage::direct(8, 0);
        assert!(!t.evicts(3, 1_000));
        assert!(!t.evicts(3, u64::MAX));
        assert_eq!(t.regs.idle_evictions(), 0);
        assert_eq!(t.regs.occupancy(), 0);
        assert_eq!(t.table, FlowTable::with_kind(FlowTableKind::DirectMapped, 8, 0));
        assert!(t.table.slots.is_empty(), "a disabled direct-mapped directory allocates nothing");
        assert_eq!(t.touch(11, 2_000).2, 3, "colliding keys share slot 3's registers");
    }

    #[test]
    fn idle_gap_at_or_past_the_timeout_evicts_once() {
        let mut t = Stage::direct(8, 1_000);
        assert!(!t.evicts(5, 100), "first touch of an empty slot");
        assert!(!t.evicts(5, 900), "gap below timeout");
        assert!(t.evicts(5, 1_900), "gap == timeout evicts");
        assert_eq!(t.regs.idle_evictions(), 1);
        assert!(!t.evicts(5, 2_000), "fresh occupant, small gap");
        assert!(t.evicts(5, 50_000), "long gap evicts again");
        assert_eq!(t.regs.idle_evictions(), 2);
        assert_eq!(t.touch(5, 50_001).2, 2, "the eviction restarted the registers");
    }

    #[test]
    fn timestamp_zero_first_touch_is_not_an_eviction() {
        // ts 0 stamps the sentinel 1, distinguishing "empty" from
        // "seen at t=0" — mirroring the tracker's first_ts discipline.
        let mut t = Stage::direct(4, 10);
        assert!(!t.evicts(1, 0));
        assert!(t.evicts(1, 10), "slot stamped at t=0 idles out at t=10");
    }

    #[test]
    fn clear_restores_the_freshly_built_state() {
        let mut t = Stage::direct(8, 1_000);
        t.touch(1, 5);
        t.touch(1, 5_000);
        assert_eq!(t.regs.idle_evictions(), 1);
        t.table.clear();
        t.regs.clear();
        assert_eq!(t.table, FlowTable::with_kind(FlowTableKind::DirectMapped, 8, 1_000));
        assert_eq!(t.regs, FlowRegisters::with_kind(FlowTableKind::DirectMapped, 8));

        let mut k = Stage::keyed(4, 2, 1_000);
        for key in 0..16u64 {
            k.touch(key, 10 + key);
        }
        assert!(k.regs.capacity_evictions() > 0);
        k.table.clear();
        k.regs.clear();
        let geometry = FlowTableKind::Keyed { buckets: 4, ways: 2 };
        assert_eq!(k.table, FlowTable::with_kind(geometry, 0, 1_000));
        assert_eq!(k.regs, FlowRegisters::with_kind(geometry, 0));
    }

    #[test]
    fn keyed_miss_then_hit_keeps_per_key_entries_distinct() {
        let mut t = Stage::keyed(2, 2, 0);
        // Keys 0 and 2 share bucket 0 but never merge.
        assert_eq!(t.touch(0, 100).1, Access::Miss);
        for now in 101..107 {
            t.touch(0, now);
        }
        let (_, a2, n2) = t.touch(2, 200);
        assert_eq!((a2, n2), (Access::Miss, 1), "new occupant starts fresh");
        let (_, a0, n0) = t.touch(0, 300);
        assert_eq!((a0, n0), (Access::Hit, 8), "key 0 kept its counters");
        assert_eq!(t.regs.occupancy(), 2);
    }

    #[test]
    fn keyed_full_bucket_evicts_the_oldest_occupant() {
        let mut t = Stage::keyed(1, 2, 0);
        t.touch(10, 100); // oldest
        t.touch(20, 200);
        let (_, a, n) = t.touch(30, 300);
        assert_eq!((a, n), (Access::CapacityEvicted, 1), "the victim's registers are reset");
        assert_eq!(t.regs.capacity_evictions(), 1);
        // Key 20 survived; key 10 is gone (its re-arrival misses or
        // evicts, never hits).
        assert_eq!(t.touch(20, 400).1, Access::Hit);
        assert_ne!(t.touch(10, 500).1, Access::Hit);
    }

    #[test]
    fn keyed_promotion_moves_hot_flows_toward_way_zero() {
        let mut t = Stage::keyed(1, 4, 0);
        t.touch(1, 100); // way 0
        t.touch(2, 200); // way 1
        t.touch(2, 210); // key 2 is now hotter: promoted to way 0
        let op = t.table.op(2, 300);
        assert_eq!((op.slot, op.access, op.promoted), (0, Access::Hit, false));
        assert_eq!(t.regs.apply(op).pkt_count, 2, "key 2's registers moved with it");
        assert_eq!(t.regs.probe_hist()[0], 3, "install at way 0 + two front hits");
        assert_eq!(t.regs.entries[1].pkt_count, 1, "key 1's registers moved to way 1");
        assert_eq!(t.touch(1, 400), (0, Access::Hit, 2), "hot again, key 1 moves back");
    }

    #[test]
    fn keyed_idle_eviction_resets_the_entry_and_reopens_the_flow() {
        let mut t = Stage::keyed(2, 2, 1_000);
        let (_, a, _) = t.touch(5, 100);
        assert!(a == Access::Miss && a.is_start());
        t.touch(5, 200);
        let (_, a2, n2) = t.touch(5, 5_000);
        assert!(a2 == Access::IdleEvicted && a2.is_start());
        assert_eq!(n2, 1, "idled occupant restarts fresh");
        assert_eq!(t.regs.idle_evictions(), 1);
        assert_eq!(t.regs.occupancy(), 1, "same occupant, re-opened in place");
    }

    #[test]
    fn a_payload_free_slot_is_a_quarter_cache_line() {
        assert_eq!(std::mem::size_of::<FlowSlot>(), 16, "key + clock");
        assert_eq!(std::mem::size_of::<FlowEntry>(), 48, "the counters alone");
        assert_eq!(std::mem::size_of::<SlotOp>(), 8, "a u32 slot, the access and a flag");
        let mut directory =
            FlowTable::with_kind(FlowTableKind::Keyed { buckets: 4_096, ways: 4 }, 0, 0);
        assert!(directory.slots.is_empty(), "nothing is allocated before the first probe");
        directory.op(7, 1);
        assert_eq!(directory.slots.len() * std::mem::size_of::<FlowSlot>(), 256 << 10);
    }

    #[test]
    fn keyed_timeout_zero_never_idle_evicts_but_still_tracks_keys() {
        let mut t = Stage::keyed(2, 2, 0);
        assert_eq!(t.touch(5, 100).1, Access::Miss);
        assert_eq!(t.touch(5, u64::MAX / 2).1, Access::Hit, "no idle eviction when disabled");
        assert_eq!(t.regs.idle_evictions(), 0);
        assert_eq!(t.regs.occupancy(), 1);
    }

    #[test]
    fn geometries_need_one_to_two_to_the_32_slots() {
        let keyed = |buckets, ways| FlowTableKind::Keyed { buckets, ways };
        assert_eq!(keyed(4_096, 4).slots(0), Some(16_384));
        assert_eq!(FlowTableKind::DirectMapped.slots(4_096), Some(4_096));
        assert_eq!(keyed(1 << 30, 4).slots(0), Some(1 << 32), "the largest u32-addressed table");
        for (kind, flow_slots) in [
            (FlowTableKind::DirectMapped, 0),
            (keyed(0, 4), 4_096),
            (keyed(16, 0), 4_096),
            (keyed(1 << 31, 4), 0),
            (keyed(1 << 62, 8), 0),
            (keyed(usize::MAX, 2), 0),
        ] {
            assert_eq!(kind.slots(flow_slots), None, "{kind:?} over {flow_slots}");
        }
    }

    #[test]
    #[should_panic(expected = "needs 1..=2^32 slots")]
    fn an_overflowing_keyed_geometry_panics_instead_of_wrapping() {
        FlowTable::with_kind(FlowTableKind::Keyed { buckets: 1 << 62, ways: 8 }, 0, 0);
    }
}
