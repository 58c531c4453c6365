//! Property pins for the parallel ingest pipeline: epoch-merged state
//! must equal sequential global-arrival-order state — for random
//! traces, random epoch geometry, and every supported shard count.
//!
//! Two layers:
//!
//! 1. **Window/flow-start level** (threads-free, cheap, many cases):
//!    drive the parse → merge machinery by hand — epoch partition,
//!    per-epoch candidate filter, `resolve_and_count` in global order —
//!    and compare every packet's `(is_flow_start, dst_count,
//!    srv_count)` against the classic sequential
//!    [`ObsBuilder`]/[`CrossFlowWindows`] fold.
//! 2. **Runtime level** (threaded, fewer cases): a pipelined
//!    [`taurus_runtime::StreamingRuntime`] run must merge to the sequential switch's
//!    report bit for bit for shard counts {1, 2, 3, 4, 5, 8} — the
//!    non-dividing counts exercise slot-based routing — across random
//!    epoch lengths and parse-worker counts.

use std::collections::HashSet;

use proptest::prelude::*;
use taurus_core::apps::SynFloodDetector;
use taurus_core::ingest::ObsBuilder;
use taurus_core::{EngineBackend, SwitchBuilder};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_pisa::{CrossFlowWindows, PipelineConfig};
use taurus_runtime::{parse_packet, resolve_and_count, ParsedSlot, RuntimeBuilder};

fn kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn epoch_merged_windows_equal_sequential_windows(
        seed in 0u64..1_000,
        n_records in 20usize..100,
        epoch_len in 1usize..64,
        shard_idx in 0usize..4,
    ) {
        let shards = [1usize, 2, 4, 8][shard_idx];
        let trace = kdd_trace(n_records, seed);
        let cfg = PipelineConfig::default();

        let mut seq_builder = ObsBuilder::new();
        let mut seq_windows = CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns);

        let mut merge_builder = ObsBuilder::new();
        let mut merge_windows = CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns);
        let mut epoch_seen: HashSet<u32> = HashSet::new();
        let mut slot = ParsedSlot::default();

        for (epoch, chunk) in trace.packets.chunks(epoch_len).enumerate() {
            // Epoch boundary: the candidate filter resets, exactly as
            // each parse worker's per-epoch seen-set does.
            epoch_seen.clear();
            for (i, tp) in chunk.iter().enumerate() {
                let golden_obs = seq_builder.observe(tp);
                let (gd, gs) = seq_windows.observe(&golden_obs);

                let candidate = epoch_seen.insert(tp.conn_id);
                parse_packet(tp, &mut slot, cfg.flow_slots, shards, candidate);
                resolve_and_count(&mut slot, &mut merge_builder, &mut merge_windows, None);

                prop_assert_eq!(
                    slot.prepared.obs, golden_obs,
                    "obs diverged at epoch {} offset {} (epoch_len {})", epoch, i, epoch_len
                );
                prop_assert_eq!(
                    (slot.prepared.dst_count, slot.prepared.srv_count),
                    (gd, gs),
                    "window counts diverged at epoch {} offset {}", epoch, i
                );
            }
        }
    }
}

proptest! {
    // Each case spawns engine + parse threads; keep the count modest so
    // the suite stays fast on small CI hosts.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pipelined_runtime_matches_sequential_for_arbitrary_geometry(
        seed in 0u64..1_000,
        n_records in 20usize..80,
        shard_idx in 0usize..6,
        parse_workers in 1usize..4,
        epoch_len in 1usize..96,
        batch_size in 1usize..48,
    ) {
        let shards = [1usize, 2, 3, 4, 5, 8][shard_idx];
        let syn = SynFloodDetector::default_deployment();
        let trace = kdd_trace(n_records, seed);

        let mut sequential =
            SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
        for tp in &trace.packets {
            sequential.process_trace_packet(tp);
        }

        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(batch_size)
            .parse_workers(parse_workers)
            .epoch_len(epoch_len)
            .backend(EngineBackend::Threshold)
            .register(&syn)
            .build();
        let report = rt.run_trace(&trace);
        prop_assert_eq!(
            report.merged,
            sequential.report(),
            "shards={} workers={} epoch_len={} batch={}",
            shards,
            parse_workers,
            epoch_len,
            batch_size
        );
    }
}
