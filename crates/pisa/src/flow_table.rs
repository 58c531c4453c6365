//! Bounded flow-table state: keyed set-associative occupancy with idle
//! and capacity eviction for the register stage.
//!
//! A real data plane serves traffic indefinitely, so per-flow state must
//! be *reclaimable* and *collision-managed*. [`FlowTable`] models both
//! hardware disciplines behind one interface:
//!
//! - **Direct-mapped** (the classic PISA register-array view): slot =
//!   `key % slots` (computed by a [`SlotIndex`]: a mask for the
//!   power-of-two sizes hardware uses), unrelated flows that hash
//!   together silently share a slot, and the only reclamation is the
//!   lazy idle-timeout check that rides each access (the former
//!   `IdleTable`, byte-for-byte).
//! - **Keyed** (`B` buckets × `W` ways): each occupant stores its full
//!   64-bit key, lookups probe one bucket's ways, a hit one-step
//!   robin-hood-promotes toward way 0, and a miss into a full bucket
//!   evicts the bucket's oldest-last-seen occupant. Collisions no longer
//!   merge flows — they displace, bounded to one bucket.
//!
//! Each slot carries a payload: the register stage's per-flow
//! [`FlowEntry`] counters by default, or nothing (`FlowTable<()>`) where
//! only occupancy matters — the runtime's keyed ingest directory keeps
//! keys and clocks alone, 16 B a slot, so a 4-way bucket is one cache
//! line. The payload changes no decision: occupancy, promotion and
//! eviction read only keys and clocks.
//!
//! Both modes share the `ts + 1` last-seen sentinel (0 = never seen) and
//! the lazy idle check: no background sweeper thread, no timer wheel —
//! the check rides the packet that would observe the stale state anyway,
//! which keeps the hot path allocation-free. Because displacement and
//! eviction are confined to one bucket and bucket-based shard routing
//! sends every packet of a bucket through one shard in global arrival
//! order, eviction decisions are bit-identical across shard/worker
//! geometries — the direct-mapped slot-routing argument carries over
//! with "slot" → "bucket".

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

/// Outcome of one [`FlowTable::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Known occupant, still live.
    Hit,
    /// No occupant for this key (keyed: key absent; direct-mapped with
    /// the idle timer on: slot never stamped). The slot now holds a
    /// fresh entry for the key.
    Miss,
    /// The key's previous state idled out; the entry was reset and this
    /// access re-opens the flow.
    IdleEvicted,
    /// Keyed only: the bucket was full, its oldest-last-seen occupant
    /// was evicted, and the slot now holds a fresh entry for this key.
    CapacityEvicted,
}

impl Access {
    /// Whether this access semantically opens a flow: in keyed mode a
    /// miss or any eviction *is* a flow start (table-miss semantics).
    pub fn is_start(self) -> bool {
        !matches!(self, Access::Hit)
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

/// One table slot: occupancy clock plus the occupant's key and payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FlowSlot<P> {
    key: u64,
    /// Last access as `ts_ns + 1` (0 = slot empty / never stamped).
    last_seen: i64,
    entry: P,
}

/// Bounded per-flow state: a direct-mapped or set-associative keyed
/// table with lazy idle-timeout expiration and (keyed only) capacity
/// eviction. An idle timeout of 0 disables expiration; a disabled
/// direct-mapped table never stamps, so it is bit-identical to the
/// historical bare register arrays.
///
/// `P` is the per-slot payload, reset to `P::default()` where
/// [`FlowTable::access`] hands out a fresh entry: [`FlowEntry`] for the
/// register stage, `()` for a directory that only resolves flow starts.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTable<P = FlowEntry> {
    kind: FlowTableKind,
    slots: Vec<FlowSlot<P>>,
    /// `key ↦ key % slots` direct-mapped, `key ↦ key % buckets` keyed.
    index: SlotIndex,
    idle_timeout_ns: u64,
    idle_evictions: u64,
    capacity_evictions: u64,
    occupancy: u64,
    /// Accesses resolved at each way (keyed: len = ways; direct: empty).
    probe_hist: Vec<u64>,
}

impl FlowTable {
    /// A direct-mapped [`FlowEntry`] table over `slots` cells.
    pub fn direct_mapped(slots: usize, idle_timeout_ns: u64) -> Self {
        Self::with_kind(FlowTableKind::DirectMapped, slots, idle_timeout_ns)
    }

    /// A keyed set-associative [`FlowEntry`] table of `buckets × ways`
    /// occupants.
    pub fn keyed(buckets: usize, ways: usize, idle_timeout_ns: u64) -> Self {
        Self::with_kind(FlowTableKind::Keyed { buckets, ways }, 0, idle_timeout_ns)
    }
}

impl<P: Copy + Default> FlowTable<P> {
    /// Builds a table for `kind`; the payload `P` comes from the
    /// caller's context. `flow_slots` sizes the direct-mapped variant
    /// (ignored for keyed, whose capacity is `buckets × ways`).
    ///
    /// # Panics
    ///
    /// Panics on a zero-capacity geometry.
    pub fn with_kind(kind: FlowTableKind, flow_slots: usize, idle_timeout_ns: u64) -> Self {
        let (slots, index_len, ways) = match kind {
            FlowTableKind::DirectMapped => {
                assert!(flow_slots > 0, "flow table needs at least one slot");
                (flow_slots, flow_slots, 0)
            }
            FlowTableKind::Keyed { buckets, ways } => {
                assert!(buckets > 0 && ways > 0, "keyed flow table needs buckets > 0 and ways > 0");
                (buckets * ways, buckets, ways)
            }
        };
        Self {
            kind,
            slots: vec![FlowSlot::default(); slots],
            index: SlotIndex::of(index_len),
            idle_timeout_ns,
            idle_evictions: 0,
            capacity_evictions: 0,
            occupancy: 0,
            probe_hist: vec![0; ways],
        }
    }

    /// Whether this is the keyed set-associative variant.
    pub fn is_keyed(&self) -> bool {
        matches!(self.kind, FlowTableKind::Keyed { .. })
    }

    /// Total occupant capacity (slots, or `buckets × ways`).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether idle expiration is active.
    pub fn enabled(&self) -> bool {
        self.idle_timeout_ns != 0
    }

    /// The configured idle timeout, ns (0 = disabled).
    pub fn idle_timeout_ns(&self) -> u64 {
        self.idle_timeout_ns
    }

    /// Reconfigures the timeout. Setting 0 disables expiration; already
    /// stamped timestamps are left in place (harmless — they are only
    /// consulted while enabled).
    pub fn set_idle_timeout(&mut self, idle_timeout_ns: u64) {
        self.idle_timeout_ns = idle_timeout_ns;
    }

    /// Idle-timeout evictions since construction or [`FlowTable::clear`].
    pub fn idle_evictions(&self) -> u64 {
        self.idle_evictions
    }

    /// Capacity (bucket-full) evictions since construction or
    /// [`FlowTable::clear`]. Always 0 in direct-mapped mode.
    pub fn capacity_evictions(&self) -> u64 {
        self.capacity_evictions
    }

    /// Slots currently holding a stamped occupant. Direct-mapped tables
    /// only stamp while the idle timer is enabled, so a disabled
    /// direct-mapped table reports 0.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Accesses resolved at each probe position (keyed: one cell per
    /// way; direct-mapped: empty).
    pub fn probe_hist(&self) -> &[u64] {
        &self.probe_hist
    }

    /// The occupant entry at a slot index returned by
    /// [`FlowTable::access`].
    pub fn entry(&self, idx: usize) -> &P {
        &self.slots[idx].entry
    }

    /// Mutable occupant entry at a slot index returned by
    /// [`FlowTable::access`].
    pub fn entry_mut(&mut self, idx: usize) -> &mut P {
        &mut self.slots[idx].entry
    }

    /// Looks up (and installs, stamps, promotes, or evicts as needed)
    /// the slot for `key` at time `now_ns`. Returns the slot index —
    /// valid until the next `access` — and what happened. The entry at
    /// the index is fresh (zeroed) for every non-`Hit` outcome except a
    /// direct-mapped `Miss`, which leaves whatever the colliding
    /// previous occupants accumulated (the historical shared-slot
    /// semantics).
    pub fn access(&mut self, key: u64, now_ns: u64) -> (usize, Access) {
        match self.kind {
            FlowTableKind::DirectMapped => self.access_direct(key, now_ns),
            FlowTableKind::Keyed { ways, .. } => self.access_keyed(key, now_ns, ways),
        }
    }

    /// The direct-mapped path replicates the historical `IdleTable::touch`
    /// exactly: disabled tables never stamp and never evict.
    fn access_direct(&mut self, key: u64, now_ns: u64) -> (usize, Access) {
        let idx = self.index.reduce(key);
        if self.idle_timeout_ns == 0 {
            return (idx, Access::Hit);
        }
        let prev = self.slots[idx].last_seen;
        self.slots[idx].last_seen = (now_ns as i64).wrapping_add(1);
        if prev == 0 {
            self.occupancy += 1;
            return (idx, Access::Miss);
        }
        let last = (prev - 1).max(0) as u64;
        if now_ns.saturating_sub(last) >= self.idle_timeout_ns {
            self.slots[idx].entry = P::default();
            self.idle_evictions += 1;
            (idx, Access::IdleEvicted)
        } else {
            (idx, Access::Hit)
        }
    }

    fn access_keyed(&mut self, key: u64, now_ns: u64, ways: usize) -> (usize, Access) {
        let base = self.index.reduce(key) * ways;
        let stamp = (now_ns as i64).wrapping_add(1);
        // Probe the bucket for this key.
        for w in 0..ways {
            let i = base + w;
            if self.slots[i].last_seen != 0 && self.slots[i].key == key {
                let prev = self.slots[i].last_seen;
                self.slots[i].last_seen = stamp;
                let idled = self.idle_timeout_ns != 0
                    && now_ns.saturating_sub((prev - 1).max(0) as u64) >= self.idle_timeout_ns;
                if idled {
                    self.slots[i].entry = P::default();
                    self.idle_evictions += 1;
                }
                let fin = self.promote(base, w);
                self.probe_hist[fin - base] += 1;
                return (fin, if idled { Access::IdleEvicted } else { Access::Hit });
            }
        }
        // Miss: take the first empty way.
        for w in 0..ways {
            let i = base + w;
            if self.slots[i].last_seen == 0 {
                self.slots[i] = FlowSlot { key, last_seen: stamp, entry: P::default() };
                self.occupancy += 1;
                self.probe_hist[w] += 1;
                return (i, Access::Miss);
            }
        }
        // Bucket full: evict the oldest-last-seen occupant (lowest way
        // index on ties — position-independent of promotion history).
        let mut victim = base;
        for w in 1..ways {
            if self.slots[base + w].last_seen < self.slots[victim].last_seen {
                victim = base + w;
            }
        }
        self.slots[victim] = FlowSlot { key, last_seen: stamp, entry: P::default() };
        self.capacity_evictions += 1;
        self.probe_hist[victim - base] += 1;
        (victim, Access::CapacityEvicted)
    }

    /// One-step robin-hood transpose: a freshly stamped hit swaps with
    /// its predecessor when the predecessor is strictly colder, so hot
    /// flows migrate toward way 0 and probe lengths shrink over time.
    /// Purely positional — eviction picks by timestamp, not position.
    fn promote(&mut self, base: usize, w: usize) -> usize {
        if w > 0 && self.slots[base + w - 1].last_seen < self.slots[base + w].last_seen {
            self.slots.swap(base + w - 1, base + w);
            base + w - 1
        } else {
            base + w
        }
    }

    /// Resets all occupants, timestamps, and counters (geometry and
    /// timeout are kept).
    pub fn clear(&mut self) {
        self.slots.fill(FlowSlot::default());
        self.idle_evictions = 0;
        self.capacity_evictions = 0;
        self.occupancy = 0;
        self.probe_hist.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touches(t: &mut FlowTable, key: u64, now: u64) -> bool {
        matches!(t.access(key, now).1, Access::IdleEvicted)
    }

    #[test]
    fn disabled_direct_table_never_stamps_or_evicts() {
        let mut t = FlowTable::direct_mapped(8, 0);
        assert!(!t.enabled());
        assert!(!touches(&mut t, 3, 1_000));
        assert!(!touches(&mut t, 3, u64::MAX));
        assert_eq!(t.idle_evictions(), 0);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t, FlowTable::direct_mapped(8, 0), "no state mutated while disabled");
    }

    #[test]
    fn idle_gap_at_or_past_the_timeout_evicts_once() {
        let mut t = FlowTable::direct_mapped(8, 1_000);
        assert!(!touches(&mut t, 5, 100), "first touch of an empty slot");
        assert!(!touches(&mut t, 5, 900), "gap below timeout");
        assert!(touches(&mut t, 5, 1_900), "gap == timeout evicts");
        assert_eq!(t.idle_evictions(), 1);
        assert!(!touches(&mut t, 5, 2_000), "fresh occupant, small gap");
        assert!(touches(&mut t, 5, 50_000), "long gap evicts again");
        assert_eq!(t.idle_evictions(), 2);
    }

    #[test]
    fn timestamp_zero_first_touch_is_not_an_eviction() {
        // ts 0 stamps the sentinel 1, distinguishing "empty" from
        // "seen at t=0" — mirroring the tracker's first_ts discipline.
        let mut t = FlowTable::direct_mapped(4, 10);
        assert!(!touches(&mut t, 1, 0));
        assert!(touches(&mut t, 1, 10), "slot stamped at t=0 idles out at t=10");
    }

    #[test]
    fn clear_restores_the_freshly_built_state() {
        let mut t = FlowTable::direct_mapped(8, 1_000);
        t.access(1, 5);
        t.access(1, 5_000);
        assert_eq!(t.idle_evictions(), 1);
        t.clear();
        assert_eq!(t, FlowTable::direct_mapped(8, 1_000));

        let mut k = FlowTable::keyed(4, 2, 1_000);
        for key in 0..16u64 {
            k.access(key, 10 + key);
        }
        assert!(k.capacity_evictions() > 0);
        k.clear();
        assert_eq!(k, FlowTable::keyed(4, 2, 1_000));
    }

    #[test]
    fn keyed_miss_then_hit_keeps_per_key_entries_distinct() {
        let mut t = FlowTable::keyed(2, 2, 0);
        // Keys 0 and 2 share bucket 0 but never merge.
        let (i0, a0) = t.access(0, 100);
        assert_eq!(a0, Access::Miss);
        t.entry_mut(i0).pkt_count = 7;
        let (i2, a2) = t.access(2, 200);
        assert_eq!(a2, Access::Miss);
        assert_eq!(t.entry(i2).pkt_count, 0, "new occupant starts fresh");
        let (i0b, a0b) = t.access(0, 300);
        assert_eq!(a0b, Access::Hit);
        assert_eq!(t.entry(i0b).pkt_count, 7, "key 0 kept its counters");
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn keyed_full_bucket_evicts_the_oldest_occupant() {
        let mut t = FlowTable::keyed(1, 2, 0);
        t.access(10, 100); // oldest
        t.access(20, 200);
        let (_, a) = t.access(30, 300);
        assert_eq!(a, Access::CapacityEvicted);
        assert_eq!(t.capacity_evictions(), 1);
        // Key 20 survived; key 10 is gone (its re-arrival misses or
        // evicts, never hits).
        assert_eq!(t.access(20, 400).1, Access::Hit);
        assert_ne!(t.access(10, 500).1, Access::Hit);
    }

    #[test]
    fn keyed_promotion_moves_hot_flows_toward_way_zero() {
        let mut t = FlowTable::keyed(1, 4, 0);
        t.access(1, 100); // way 0
        t.access(2, 200); // way 1
                          // Key 2 is now hotter than key 1: a hit transposes it to way 0.
        let (idx, a) = t.access(2, 300);
        assert_eq!(a, Access::Hit);
        assert_eq!(idx, 0, "hot occupant promoted one step");
        assert_eq!(t.access(2, 400).0, 0, "already at the front, stays");
        assert_eq!(t.probe_hist()[0], 3, "install at way 0 + two front hits");
    }

    #[test]
    fn keyed_idle_eviction_resets_the_entry_and_reopens_the_flow() {
        let mut t = FlowTable::keyed(2, 2, 1_000);
        let (i, a) = t.access(5, 100);
        assert_eq!(a, Access::Miss);
        assert!(a.is_start());
        t.entry_mut(i).pkt_count = 9;
        let (i2, a2) = t.access(5, 5_000);
        assert_eq!(a2, Access::IdleEvicted);
        assert!(a2.is_start());
        assert_eq!(t.entry(i2).pkt_count, 0, "idled occupant restarts fresh");
        assert_eq!(t.idle_evictions(), 1);
        assert_eq!(t.occupancy(), 1, "same occupant, re-opened in place");
    }

    #[test]
    fn a_payload_free_slot_is_a_quarter_cache_line() {
        assert_eq!(std::mem::size_of::<FlowSlot<()>>(), 16, "key + clock");
        assert_eq!(std::mem::size_of::<FlowSlot<FlowEntry>>(), 64, "key + clock + counters");
        let directory =
            FlowTable::<()>::with_kind(FlowTableKind::Keyed { buckets: 4_096, ways: 4 }, 0, 0);
        assert_eq!(directory.capacity() * std::mem::size_of::<FlowSlot<()>>(), 256 << 10);
    }

    #[test]
    fn keyed_timeout_zero_never_idle_evicts_but_still_tracks_keys() {
        let mut t = FlowTable::keyed(2, 2, 0);
        assert_eq!(t.access(5, 100).1, Access::Miss);
        assert_eq!(t.access(5, u64::MAX / 2).1, Access::Hit, "no idle eviction when disabled");
        assert_eq!(t.idle_evictions(), 0);
        assert_eq!(t.occupancy(), 1);
    }
}
