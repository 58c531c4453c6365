//! Reference-model pin for the flow directory ([`FlowTable`]) and the
//! register array that replays its ops ([`FlowRegisters`]). Over random
//! traces, the directory's access outcomes and a `FlowEntry` array fed
//! *only* the directory's [`SlotOp`]s must agree with an oracle on every
//! access, every flow's packet count, and every table statistic:
//!
//! - keyed: an unbounded `HashMap` plus an explicit per-bucket LRU,
//!   including bucket-overflow displacement, promotion, and
//!   idle-eviction interleaving;
//! - direct-mapped: one shared cell per slot, with and without the idle
//!   timer.
//!
//! Timestamps are strictly increasing so no two occupants ever share a
//! last-seen stamp: the table breaks eviction ties by way position
//! (which depends on promotion history), the oracle cannot, and real
//! traces carry monotone clocks anyway.

use std::collections::HashMap;

use proptest::prelude::*;
use taurus_pisa::{Access, FlowRegisters, FlowTable, FlowTableKind};

#[derive(Clone, Copy)]
struct Live {
    last_seen: u64,
    pkts: i64,
}

/// One random word drives both the key (heavy reuse from a small
/// universe) and the inter-arrival gap (≥ 1 keeps timestamps strictly
/// increasing: no last-seen ties).
fn key_and_gap(step: u64) -> (u64, u64) {
    (step % 32, 1 + (step >> 8) % 500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keyed_table_matches_the_hashmap_lru_oracle(
        buckets in 1usize..6,
        ways in 1usize..5,
        timeout in 0u64..2_000, // 0 = idle expiration disabled
        steps in collection::vec(any::<u64>(), 1..300),
    ) {
        let geometry = FlowTableKind::Keyed { buckets, ways };
        let mut directory = FlowTable::with_kind(geometry, 0, timeout);
        let mut registers = FlowRegisters::with_kind(geometry, 0);
        let mut twin = directory.clone();
        let mut oracle: HashMap<u64, Live> = HashMap::new();
        let total = steps.len() as u64;
        let mut now = 0u64;
        let mut idle = 0u64;
        let mut cap = 0u64;
        for step in steps {
            let (key, gap) = key_and_gap(step);
            now += gap;
            let op = directory.op(key, now);
            prop_assert_eq!(twin.access(key, now), (op.slot as usize, op.access), "access");
            let expect = if let Some(live) = oracle.get_mut(&key) {
                let idled = timeout != 0 && now - live.last_seen >= timeout;
                live.last_seen = now;
                if idled {
                    live.pkts = 0;
                    idle += 1;
                    Access::IdleEvicted
                } else {
                    Access::Hit
                }
            } else {
                let bucket = key % buckets as u64;
                let occupants =
                    oracle.keys().filter(|k| **k % buckets as u64 == bucket).count();
                if occupants == ways {
                    let victim = *oracle
                        .iter()
                        .filter(|(k, _)| **k % buckets as u64 == bucket)
                        .min_by_key(|(_, l)| l.last_seen)
                        .unwrap()
                        .0;
                    oracle.remove(&victim);
                    cap += 1;
                    oracle.insert(key, Live { last_seen: now, pkts: 0 });
                    Access::CapacityEvicted
                } else {
                    oracle.insert(key, Live { last_seen: now, pkts: 0 });
                    Access::Miss
                }
            };
            prop_assert_eq!(op.access, expect, "key {} at t={}", key, now);
            prop_assert!(!op.promoted || op.access != Access::CapacityEvicted);
            // Accumulate one packet on both sides: the array sees only
            // the op, and displacement and promotion must never detach a
            // key from its counters.
            let entry = registers.apply(op);
            entry.pkt_count += 1;
            oracle.get_mut(&key).unwrap().pkts += 1;
            prop_assert_eq!(entry.pkt_count, oracle[&key].pkts, "key {} at t={}", key, now);
        }
        prop_assert_eq!(registers.occupancy() as usize, oracle.len());
        prop_assert_eq!(registers.idle_evictions(), idle);
        prop_assert_eq!(registers.capacity_evictions(), cap);
        prop_assert_eq!(registers.probe_hist().len(), ways);
        prop_assert_eq!(registers.probe_hist().iter().sum::<u64>(), total);
    }

    #[test]
    fn direct_mapped_table_matches_the_shared_cell_oracle(
        slots in 1usize..9,
        enabled in any::<bool>(),
        timeout in 1u64..2_000,
        steps in collection::vec(any::<u64>(), 1..300),
    ) {
        let timeout = if enabled { timeout } else { 0 };
        let mut directory = FlowTable::with_kind(FlowTableKind::DirectMapped, slots, timeout);
        let mut registers = FlowRegisters::with_kind(FlowTableKind::DirectMapped, slots);
        // Slot ↦ (last stamp, packets): colliding keys share one cell.
        let mut oracle: HashMap<usize, Live> = HashMap::new();
        let mut now = 0u64;
        let mut idle = 0u64;
        for step in steps {
            let (key, gap) = key_and_gap(step);
            now += gap;
            let op = directory.op(key, now);
            let slot = (key % slots as u64) as usize;
            prop_assert_eq!(op.slot as usize, slot);
            prop_assert!(!op.promoted);
            let cell = oracle.entry(slot).or_insert(Live { last_seen: 0, pkts: 0 });
            let expect = if timeout == 0 {
                Access::Hit
            } else if cell.last_seen == 0 {
                Access::Miss // first stamp: keeps what collisions left
            } else if now - (cell.last_seen - 1) >= timeout {
                cell.pkts = 0;
                idle += 1;
                Access::IdleEvicted
            } else {
                Access::Hit
            };
            if timeout != 0 {
                cell.last_seen = now + 1;
            }
            prop_assert_eq!(op.access, expect, "key {} at t={}", key, now);
            let entry = registers.apply(op);
            entry.pkt_count += 1;
            cell.pkts += 1;
            prop_assert_eq!(entry.pkt_count, cell.pkts, "key {} at t={}", key, now);
        }
        let stamped = oracle.values().filter(|c| c.last_seen != 0).count();
        prop_assert_eq!(registers.occupancy() as usize, stamped);
        prop_assert_eq!(registers.idle_evictions(), idle);
        prop_assert_eq!(registers.capacity_evictions(), 0);
        prop_assert!(registers.probe_hist().is_empty());
    }
}
