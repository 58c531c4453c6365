//! Reference-model pin for the keyed set-associative [`FlowTable`]: an
//! unbounded `HashMap` plus an explicit per-bucket LRU oracle must agree
//! with the real table on every access outcome, occupant counter, and
//! eviction statistic over random traces — including bucket-overflow
//! displacement and idle-eviction interleaving. A payload-free table
//! (`FlowTable<()>`, the runtime's ingest directory) runs the same
//! accesses and must resolve every one to the same slot and outcome.
//!
//! Timestamps are strictly increasing so no two occupants ever share a
//! last-seen stamp: the table breaks eviction ties by way position
//! (which depends on promotion history), the oracle cannot, and real
//! traces carry monotone clocks anyway.

use std::collections::HashMap;

use proptest::prelude::*;
use taurus_pisa::{Access, FlowTable, FlowTableKind};

#[derive(Clone, Copy)]
struct Live {
    last_seen: u64,
    pkts: i64,
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
        let mut table = FlowTable::keyed(buckets, ways, timeout);
        let mut directory =
            FlowTable::<()>::with_kind(FlowTableKind::Keyed { buckets, ways }, 0, timeout);
        let mut oracle: HashMap<u64, Live> = HashMap::new();
        let total = steps.len() as u64;
        let mut now = 0u64;
        let mut idle = 0u64;
        let mut cap = 0u64;
        for step in steps {
            // One random word drives both the key (heavy reuse from a
            // small universe) and the inter-arrival gap (≥ 1 keeps
            // timestamps strictly increasing: no last-seen ties).
            let key = step % 32;
            let gap = 1 + (step >> 8) % 500;
            now += gap;
            let (idx, access) = table.access(key, now);
            prop_assert_eq!(directory.access(key, now), (idx, access), "payload-free twin");
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
            prop_assert_eq!(access, expect, "key {} at t={}", key, now);
            // Accumulate one packet on both sides: displacement and
            // promotion must never detach a key from its counters.
            table.entry_mut(idx).pkt_count += 1;
            oracle.get_mut(&key).unwrap().pkts += 1;
            prop_assert_eq!(table.entry(idx).pkt_count, oracle[&key].pkts);
        }
        prop_assert_eq!(table.occupancy() as usize, oracle.len());
        prop_assert_eq!(table.idle_evictions(), idle);
        prop_assert_eq!(table.capacity_evictions(), cap);
        prop_assert_eq!(table.probe_hist().iter().sum::<u64>(), total);
        prop_assert_eq!(directory.occupancy(), table.occupancy());
        prop_assert_eq!(directory.idle_evictions(), idle);
        prop_assert_eq!(directory.capacity_evictions(), cap);
        prop_assert_eq!(directory.probe_hist(), table.probe_hist());
    }
}
