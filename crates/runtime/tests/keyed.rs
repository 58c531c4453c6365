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

use taurus_core::apps::SynFloodDetector;
use taurus_core::{EngineBackend, SwitchBuilder, SwitchReport, TaurusSwitch};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_pisa::{FlowTableKind, PipelineConfig};
use taurus_runtime::RuntimeBuilder;

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
        assert_eq!(report.capacity_evictions(), golden.capacity_evictions);
        assert_eq!(report.flow_occupancy(), golden.flow_occupancy);
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
        assert_eq!(err, taurus_runtime::BuildError::NoFlowSlots, "{buckets}x{ways}");
    }
    // The cross-flow windows are sized by `flow_slots` in keyed mode
    // too, so a keyed table with room for flows still needs them.
    let err = RuntimeBuilder::new()
        .config(PipelineConfig { flow_slots: 0, ..keyed_config(64, 4) })
        .register_on(&syn, EngineBackend::Threshold)
        .try_build()
        .expect_err("zero window slots must be rejected");
    assert_eq!(err, taurus_runtime::BuildError::NoFlowSlots);
    // And shards must fit under the bucket count: bucket routing covers
    // shard indices 0..buckets only.
    let err = RuntimeBuilder::new()
        .shards(8)
        .config(keyed_config(4, 4))
        .register_on(&syn, EngineBackend::Threshold)
        .try_build()
        .expect_err("more shards than buckets must be rejected");
    assert_eq!(
        err,
        taurus_runtime::BuildError::MoreShardsThanFlowSlots { shards: 8, flow_slots: 4 }
    );
}
