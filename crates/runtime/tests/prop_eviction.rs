//! Property pin for idle-timeout flow expiration: against a simple
//! reference model of one flow's packet arrivals, the tracker must
//! evict exactly when the inter-packet gap reaches the timeout, and an
//! evicted flow must re-observe as a *fresh* flow start — zero packets
//! carried over, duration restarting at zero — rather than inheriting
//! the dead occupant's counters.

use proptest::prelude::*;
use taurus_pisa::registers::{FlowTracker, PacketObs};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evicted_flows_reobserve_as_fresh_flow_starts(
        key in 0u64..4096,
        timeout in 1_000u64..1_000_000,
        gaps in collection::vec(0u64..2_000_000, 1..40),
    ) {
        let mut tracker = FlowTracker::new(4096, 5_000_000);
        tracker.set_idle_timeout(timeout);

        let mut ts = 1u64; // keep clear of the ts-0 "never seen" sentinel
        let mut last_ts: Option<u64> = None;
        let mut expected_evictions = 0u64;
        let mut expected_packets = 0u64;
        for &gap in &gaps {
            if let Some(prev) = last_ts {
                ts = prev + gap;
            }
            let evicts = last_ts.is_some_and(|prev| ts - prev >= timeout);
            if evicts {
                expected_evictions += 1;
                expected_packets = 0;
            }
            expected_packets += 1;

            let obs = PacketObs { flow_key: key, ts_ns: ts, len: 100, ..PacketObs::default() };
            let feats = tracker.observe_prepared(&obs, 0, 0);
            prop_assert_eq!(
                feats.packets, expected_packets,
                "packet count must restart at an eviction and only there (ts={})", ts
            );
            if evicts {
                prop_assert_eq!(
                    feats.duration_ns, 0,
                    "an evicted flow's next packet is a fresh flow start"
                );
            }
            prop_assert_eq!(tracker.registers().idle_evictions(), expected_evictions);
            last_ts = Some(ts);
        }

        // The same arrivals through a tracker with expiration disabled:
        // never an eviction, counters strictly accumulate.
        let mut disabled = FlowTracker::new(4096, 5_000_000);
        let mut ts = 1u64;
        let mut last_ts: Option<u64> = None;
        let mut total = 0u64;
        for &gap in &gaps {
            if let Some(prev) = last_ts {
                ts = prev + gap;
            }
            total += 1;
            let obs = PacketObs { flow_key: key, ts_ns: ts, len: 100, ..PacketObs::default() };
            let feats = disabled.observe_prepared(&obs, 0, 0);
            prop_assert_eq!(feats.packets, total, "disabled: counters only accumulate");
            last_ts = Some(ts);
        }
        prop_assert_eq!(disabled.registers().idle_evictions(), 0);
    }
}
