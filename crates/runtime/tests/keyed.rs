//! The keyed-mode pinning suite: with a set-associative
//! [`taurus_pisa::FlowTableKind::Keyed`] flow table, sharded execution
//! stays *exact* — and per-flow state stays *bounded*.
//!
//! Routing folds flow keys through the bucket count, so every occupant
//! of a bucket (and therefore every displacement or replacement
//! decision, which only ever involves one bucket) lands on one shard.
//! The merged report must equal the sequential keyed switch bit for bit
//! across shard counts {1, 2, 3, 5, 8}, and the table statistics —
//! capacity evictions, occupancy, probe histogram — must be invariant
//! across all of those geometries.

use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::ingest::{to_packet, wire_obs};
use taurus_core::{EngineBackend, SwitchBuilder, SwitchReport, TaurusApp, TaurusSwitch};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig, TracePacket};
use taurus_pisa::{
    CrossFlowWindows, FlowTable, FlowTableKind, Packet, PacketObs, PipelineConfig, PreparedInput,
    SlotOp,
};
use taurus_runtime::{shard_of, BuildError, RuntimeBuilder};

/// One packet with the op and window counts the feeder decided: the
/// input of a replica's batch entry.
struct Prepared {
    pkt: Packet,
    op: SlotOp,
    obs: PacketObs,
    counts: (u64, u64),
}

impl PreparedInput for Prepared {
    fn packet(&self) -> &Packet {
        &self.pkt
    }

    fn slot_op(&self) -> SlotOp {
        self.op
    }

    fn obs(&self) -> PacketObs {
        self.obs
    }

    fn window_counts(&self) -> (u64, u64) {
        self.counts
    }
}

fn default_kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig::default())
}

fn keyed_config(buckets: usize, ways: usize) -> PipelineConfig {
    PipelineConfig {
        flow_table: FlowTableKind::Keyed { buckets, ways },
        ..PipelineConfig::default()
    }
}

fn sequential_report(config: &PipelineConfig, trace: &[PacketTrace]) -> SwitchReport {
    let syn = SynFloodDetector::default_deployment();
    let mut switch: TaurusSwitch = SwitchBuilder::new()
        .config(config.clone())
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    for t in trace {
        for tp in &t.packets {
            switch.process_trace_verdict(tp);
        }
    }
    switch.report()
}

/// Runs `packets` through a sequential switch and, at shards
/// {1, 2, 3, 4}, through the runtime; the merged report must be the
/// switch's, and every shard's report must be that of a switch fed only
/// the shard's packets with the ops and window counts of one directory
/// and one window instance run over the whole stream.
fn assert_exact_across_shards(
    config: &PipelineConfig,
    roster: &[&dyn TaurusApp],
    packets: &[TracePacket],
) -> SwitchReport {
    let build = || {
        roster
            .iter()
            .fold(SwitchBuilder::new().config(config.clone()), |b, app| {
                b.register_on(*app, EngineBackend::CgraSim)
            })
            .build()
    };
    let mut sequential = build();
    for tp in packets {
        sequential.process_trace_verdict(tp);
    }
    let golden = sequential.report();
    let FlowTableKind::Keyed { buckets, .. } = config.flow_table else { panic!("keyed only") };
    for shards in [1usize, 2, 3, 4] {
        let mut replicas: Vec<TaurusSwitch> = (0..shards).map(|_| build()).collect();
        let mut streams: Vec<Vec<Prepared>> = (0..shards).map(|_| Vec::new()).collect();
        let mut directory =
            FlowTable::with_kind(config.flow_table, config.flow_slots, config.idle_timeout_ns);
        let mut windows = CrossFlowWindows::new(config.flow_slots, config.window_ns);
        for tp in packets {
            let mut obs = PacketObs::default();
            wire_obs(tp, &mut obs);
            let op = directory.op(obs.flow_key, obs.ts_ns);
            obs.is_flow_start = op.access.is_start();
            let counts = windows.observe(&obs);
            streams[shard_of(obs.flow_key, buckets, shards)].push(Prepared {
                pkt: to_packet(tp),
                op,
                obs,
                counts,
            });
        }
        for (replica, stream) in replicas.iter_mut().zip(&streams) {
            replica.process_prepared_batch(stream, |_, _| {});
        }
        let mut rt = roster
            .iter()
            .fold(
                RuntimeBuilder::new().shards(shards).batch_size(16).config(config.clone()),
                |b, app| b.register_on(*app, EngineBackend::CgraSim),
            )
            .build();
        rt.feed(packets);
        let report = rt.drain();
        assert_eq!(report.merged, golden, "shards={shards}");
        for (got, replica) in report.shards.iter().zip(&replicas) {
            assert_eq!(got.report, replica.report(), "shards={shards} shard {}", got.shard);
        }
    }
    golden
}

/// `base` replayed `repeats` times with `gap_ns` of idle time between
/// replays: one monotone stream with long quiet periods.
fn gapped(base: &PacketTrace, repeats: usize, gap_ns: u64) -> Vec<TracePacket> {
    let span = base.packets.last().map_or(0, |p| p.ts_ns);
    (0..repeats as u64)
        .flat_map(|r| {
            base.packets
                .iter()
                .map(move |p| TracePacket { ts_ns: p.ts_ns + r * (span + gap_ns), ..*p })
        })
        .collect()
}

#[test]
fn keyed_idle_eviction_is_exact_across_shard_geometries() {
    // The directory expires idle occupants on the feeder; the replicas
    // only replay the evictions. Gaps far past the timeout make every
    // replay re-open its flows.
    let config = PipelineConfig { idle_timeout_ns: 1_000_000, ..keyed_config(64, 4) };
    let syn = SynFloodDetector::default_deployment();
    let packets = gapped(&default_kdd_trace(120, 66), 3, 2 * config.window_ns);
    let golden = assert_exact_across_shards(&config, &[&syn], &packets);
    assert!(golden.evictions > 0, "the idle gaps actually evict");
}

#[test]
fn keyed_batch_kernel_roster_is_exact_across_shard_geometries() {
    // The AD DNN's engine has a batch kernel, so the workers take the
    // group loop; a tight table keeps promotions and capacity evictions
    // coming, and the idle timer runs as well.
    let detector = AnomalyDetector::train_default(9, 400);
    let config = PipelineConfig { idle_timeout_ns: 1_000_000, ..keyed_config(32, 4) };
    let packets = gapped(&default_kdd_trace(150, 67), 2, 2 * config.window_ns);
    let golden = assert_exact_across_shards(&config, &[&detector], &packets);
    assert!(golden.capacity_evictions > 0 && golden.evictions > 0, "{golden:?}");
    assert!(golden.ml_packets > 0, "the roster's engine ran");
}

#[test]
fn keyed_sharded_equals_keyed_sequential_for_all_geometries() {
    // Roomy geometry: few capacity evictions, exactness is about the
    // keyed bookkeeping itself (miss-driven flow starts, per-entry
    // counters, promotion) rather than replacement pressure.
    let config = keyed_config(256, 4);
    let syn = SynFloodDetector::default_deployment();
    let trace = default_kdd_trace(500, 61);
    let golden = sequential_report(&config, std::slice::from_ref(&trace));
    assert!(golden.packets > 0 && golden.flow_occupancy > 0, "trace populates the table");

    for shards in [1usize, 2, 3, 5, 8] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(17) // deliberately unaligned with everything
            .config(config.clone())
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        let report = rt.run_trace(&trace);
        assert_eq!(report.merged, golden, "keyed run diverged at shards={shards}");
        let routed: u64 = report.shards.iter().map(|s| s.packets).sum();
        assert_eq!(routed, golden.packets, "every packet routed exactly once");
    }
}

#[test]
fn keyed_replacement_pressure_stays_exact_and_geometry_invariant() {
    // The many-flows stress: a heavy-tailed flow population more than
    // 10x the table capacity (16 entries vs several hundred distinct
    // connections), fed in chunks through the streaming feed/drain
    // lifecycle. Replacement decisions fire constantly; because they
    // are bucket-local and buckets are shard-local, the eviction counts
    // — and the whole merged report — must not move across geometries.
    let config = keyed_config(8, 2);
    let syn = SynFloodDetector::default_deployment();
    // Three bursts with distinct seeds: fresh connection populations
    // keep arriving, the way a heavy-tailed stream keeps producing new
    // mice under a few long-lived elephants.
    let bursts: Vec<PacketTrace> =
        [62u64, 63, 64].iter().map(|&s| default_kdd_trace(200, s)).collect();
    let golden = sequential_report(&config, &bursts);
    let capacity = 8 * 2;
    assert!(
        golden.flow_occupancy == capacity as u64,
        "pressure fills the table: occupancy {} of {capacity}",
        golden.flow_occupancy
    );
    assert!(
        golden.capacity_evictions > 10 * capacity as u64,
        "pressure churns the table: {} capacity evictions",
        golden.capacity_evictions
    );

    for shards in [1usize, 2, 3, 5, 8] {
        let mut service = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(16)
            .config(config.clone())
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        for burst in &bursts {
            service.feed(&burst.packets);
        }
        let report = service.shutdown();
        assert_eq!(report.merged, golden, "stressed keyed stream diverged at shards={shards}");
        assert_eq!(report.merged.capacity_evictions, golden.capacity_evictions);
        assert_eq!(report.merged.flow_occupancy, golden.flow_occupancy);
    }
}

#[test]
fn keyed_reset_restores_a_fresh_runtime() {
    // reset() must clear the ingest-side directory too, not just the
    // replica tables — a stale directory would mis-resolve every
    // flow-start bit of the next phase.
    let syn = SynFloodDetector::default_deployment();
    let trace = default_kdd_trace(150, 65);
    let mut rt = RuntimeBuilder::new()
        .shards(3)
        .config(keyed_config(32, 2))
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    let first = rt.run_trace(&trace);
    assert!(first.merged.flow_occupancy > 0);
    rt.reset();
    let second = rt.run_trace(&trace);
    assert_eq!(first, second, "reset() makes keyed runs reproducible");
}

#[test]
fn keyed_zero_geometry_is_a_typed_build_error() {
    let syn = SynFloodDetector::default_deployment();
    for (buckets, ways) in [(0usize, 4usize), (16, 0), (0, 0)] {
        let err = RuntimeBuilder::new()
            .config(keyed_config(buckets, ways))
            .register_on(&syn, EngineBackend::Threshold)
            .try_build()
            .expect_err("a zero-capacity keyed table must be rejected");
        assert_eq!(err, BuildError::NoFlowSlots, "{buckets}x{ways}");
    }
    // The cross-flow windows are sized by `flow_slots` in keyed mode
    // too, so a keyed table with room for flows still needs them.
    let err = RuntimeBuilder::new()
        .config(PipelineConfig { flow_slots: 0, ..keyed_config(64, 4) })
        .register_on(&syn, EngineBackend::Threshold)
        .try_build()
        .expect_err("zero window slots must be rejected");
    assert_eq!(err, BuildError::NoFlowSlots);
    // A slot count that overflows, or that a packet's `u32` slot cannot
    // address, is refused before any table exists (it used to wrap to an
    // empty table in release, which panicked on the first packet).
    for (flow_table, flow_slots) in [
        (FlowTableKind::Keyed { buckets: 1 << 62, ways: 8 }, 4_096),
        (FlowTableKind::Keyed { buckets: usize::MAX, ways: 2 }, 4_096),
        (FlowTableKind::Keyed { buckets: 1 << 31, ways: 4 }, 4_096),
        (FlowTableKind::DirectMapped, (1 << 32) + 1),
    ] {
        let err = RuntimeBuilder::new()
            .config(PipelineConfig { flow_table, flow_slots, ..PipelineConfig::default() })
            .register_on(&syn, EngineBackend::Threshold)
            .try_build()
            .expect_err("an unaddressable flow table must be rejected");
        assert_eq!(err, BuildError::FlowTableTooLarge, "{flow_table:?} over {flow_slots}");
    }
    // And shards must fit under the bucket count: bucket routing covers
    // shard indices 0..buckets only.
    let err = RuntimeBuilder::new()
        .shards(8)
        .config(keyed_config(4, 4))
        .register_on(&syn, EngineBackend::Threshold)
        .try_build()
        .expect_err("more shards than buckets must be rejected");
    assert_eq!(err, BuildError::MoreShardsThanFlowSlots { shards: 8, flow_slots: 4 });
}
