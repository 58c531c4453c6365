//! The streaming-service lifecycle suite: a resident
//! [`StreamingRuntime`] fed in pieces must be indistinguishable from a
//! one-shot run over the concatenated stream — across feeds, scheduled
//! updates, drains, shutdown, and idle-timeout eviction — and the
//! eviction stat must be bit-deterministic across shard geometries.

mod common;

use std::time::Duration;

use common::within;
use taurus_core::apps::SynFloodDetector;
use taurus_core::{EngineBackend, SwitchBuilder};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig, TracePacket};
use taurus_pisa::PipelineConfig;
use taurus_runtime::RuntimeBuilder;

fn kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

/// `base` replayed `repeats` times with `gap_ns` of idle time between
/// replays (timestamps stay strictly monotone — one logical stream with
/// long quiet periods).
fn gapped(base: &PacketTrace, repeats: usize, gap_ns: u64) -> Vec<TracePacket> {
    let span = base.packets.last().map(|p| p.ts_ns).unwrap_or(0);
    let mut out = Vec::with_capacity(base.packets.len() * repeats);
    for r in 0..repeats {
        let offset = r as u64 * (span + gap_ns);
        for p in &base.packets {
            let mut p = *p;
            p.ts_ns += offset;
            out.push(p);
        }
    }
    out
}

#[test]
fn successive_feeds_match_a_one_shot_run_over_the_concatenation() {
    // The tentpole equivalence: feed the stream in three pieces to a
    // resident service, drain once — the merged report and segments
    // must be bit-identical to one feed of the whole stream (batch
    // counts may differ: feed boundaries flush partial batches early).
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(300, 91);
    let third = trace.packets.len() / 3;
    let (a, rest) = trace.packets.split_at(third);
    let (b, c) = rest.split_at(third);

    for shards in [1usize, 2, 3, 4] {
        let build = || {
            RuntimeBuilder::new()
                .shards(shards)
                .batch_size(16)
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        };
        let golden = build().run_trace(&trace);

        let mut service = build();
        service.feed(a);
        service.feed(b);
        service.feed(c);
        assert_eq!(service.stream_position(), trace.packets.len() as u64);
        let report = service.drain();
        assert_eq!(
            report.merged, golden.merged,
            "shards={shards}: split feeds diverge from the one-shot run"
        );
        assert_eq!(report.segments, golden.segments);
        for (split, whole) in report.shards.iter().zip(&golden.shards) {
            assert_eq!(split.packets, whole.packets, "per-shard routing is feed-invariant");
            assert_eq!(split.report, whole.report);
        }
    }
}

#[test]
fn drain_resets_per_run_stats_but_keeps_flow_state() {
    // Two feed+drain cycles on one resident service behave exactly like
    // two independent runs on one long-lived runtime: replica
    // reports accumulate, per-run stats restart.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(150, 92);
    let mut service = RuntimeBuilder::new()
        .shards(2)
        .batch_size(16)
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    let first = service.run_trace(&trace);
    let second = service.run_trace(&trace);
    assert_eq!(second.merged.packets, 2 * first.merged.packets, "replica reports accumulate");
    for (a, b) in first.shards.iter().zip(&second.shards) {
        assert_eq!(a.packets, b.packets, "per-run stats restart at each drain");
        assert_eq!(a.batches, b.batches);
    }
    assert_eq!(first.segments[0].total(), trace.packets.len() as u64);
    assert_eq!(second.segments[0].total(), trace.packets.len() as u64);
}

#[test]
fn scheduled_updates_key_on_the_global_stream_index() {
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(150, 93);
    let (a, b) = trace.packets.split_at(60);
    let k = a.len() as u64 + 20; // inside the *second* feed
    let mut service = RuntimeBuilder::new()
        .shards(2)
        .batch_size(16)
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    // An absurdly high cutoff: the post-update segment can never drop.
    service.schedule_update(k, syn.retune(i64::MAX - 1, 1, EngineBackend::Threshold));
    assert_eq!(service.feed(a), 0, "the update's index lies beyond the first feed");
    assert_eq!(
        service.scheduled_updates(),
        vec![(k, "syn-flood".to_string(), 1)],
        "still pending between feeds"
    );
    assert_eq!(service.feed(b), 1, "consumed at its global index");
    assert!(service.scheduled_updates().is_empty());
    assert_eq!(service.app_versions(), vec![("syn-flood".to_string(), 1)]);
    let report = service.drain();
    assert_eq!(report.segments.len(), 2);
    assert_eq!(report.segments[0].total(), k, "old model decided exactly k packets");
    assert_eq!(report.segments[1].total(), trace.packets.len() as u64 - k);
    assert_eq!(report.segments[1].tp + report.segments[1].fp, 0, "new cutoff never fires");
}

#[test]
fn updates_past_the_fed_stream_install_at_the_drain_barrier() {
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(60, 94);
    let mut service =
        RuntimeBuilder::new().shards(2).register_on(&syn, EngineBackend::Threshold).build();
    service.schedule_update(u64::MAX, syn.retune(50, 1, EngineBackend::Threshold));
    service.feed(&trace.packets);
    let report = service.drain();
    assert_eq!(report.segments.len(), 2);
    assert_eq!(report.segments[1].total(), 0, "nothing left to decide");
    assert_eq!(service.app_versions(), vec![("syn-flood".to_string(), 1)]);

    // The service stays live after the drain; shutdown returns the
    // final (still accumulating) report and joins every worker.
    service.feed(&trace.packets);
    let last = service.shutdown();
    assert_eq!(last.merged.packets, 2 * trace.packets.len() as u64);
    assert_eq!(last.segments.len(), 1, "no updates in the second cycle");
}

#[test]
fn install_update_applies_between_feeds_and_stays_transactional() {
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(80, 95);
    let mut service =
        RuntimeBuilder::new().shards(2).register_on(&syn, EngineBackend::Threshold).build();
    service.feed(&trace.packets);
    service.install_update(&syn.retune(45, 3, EngineBackend::Threshold)).expect("fresh version");
    assert_eq!(service.app_versions(), vec![("syn-flood".to_string(), 3)]);
    let err = service
        .install_update(&syn.retune(45, 3, EngineBackend::Threshold))
        .expect_err("same version again is stale");
    assert!(err.to_string().contains("stale update"), "{err}");
    assert_eq!(service.app_versions(), vec![("syn-flood".to_string(), 3)], "fleet untouched");
    service.feed(&trace.packets);
    let report = service.shutdown();
    assert_eq!(report.merged.packets, 2 * trace.packets.len() as u64);
    // install_update is a between-feeds control-plane action, not an
    // in-band barrier: segments still count only scheduled updates.
    assert_eq!(report.segments.len(), 1);
}

#[test]
fn idle_eviction_is_deterministic_across_shard_and_worker_geometries() {
    // A stream with long idle gaps and an idle timeout enabled: flows
    // must evict (stat > 0), the merged report must stay bit-identical
    // to the sequential switch for every geometry, and the eviction
    // count must be geometry-invariant — per-slot lazy expiration is
    // exact because all packets of a register slot traverse one shard
    // in global order.
    let syn = SynFloodDetector::default_deployment();
    let base = kdd_trace(120, 96);
    let cfg = PipelineConfig { idle_timeout_ns: 1_000_000, ..PipelineConfig::default() };
    let packets = gapped(&base, 3, 2 * cfg.window_ns); // gaps ≫ timeout

    let golden = {
        let mut switch = SwitchBuilder::new()
            .config(cfg.clone())
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        for tp in &packets {
            switch.process_trace_packet(tp);
        }
        switch.report()
    };
    assert!(golden.evictions > 0, "the idle gaps actually evict");

    for shards in [1usize, 2, 3, 4] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(16)
            .config(cfg.clone())
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        rt.feed(&packets);
        let report = rt.drain();
        assert_eq!(report.merged, golden, "shards={shards}");
        assert_eq!(report.evictions(), golden.evictions);
        assert!(report.evictions() > 0);
    }
}

#[test]
fn eviction_disabled_by_default_keeps_reports_eviction_free() {
    let syn = SynFloodDetector::default_deployment();
    let base = kdd_trace(60, 97);
    let packets = gapped(&base, 3, 10 * PipelineConfig::default().window_ns);
    let mut rt =
        RuntimeBuilder::new().shards(2).register_on(&syn, EngineBackend::Threshold).build();
    rt.feed(&packets);
    let report = rt.drain();
    assert_eq!(report.evictions(), 0, "idle_timeout_ns defaults to 0 = disabled");
}

#[test]
fn every_feed_advances_the_stream_clock_by_its_length() {
    // A feed advances `stream_position` by exactly `packets.len()`,
    // whatever became of the packets — processed, quarantined at the
    // frontier, bypassed by a saturation window, or refused because
    // their home shard is lost.
    use taurus_runtime::{FaultPlan, FaultRecordKind, OverloadPolicy};

    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(120, 98);
    let n = trace.packets.len() as u64;
    let mut corrupted = trace.packets.clone();
    for i in (0..corrupted.len()).step_by(7) {
        corrupted[i].len = 0; // quarantined: zero-length
    }

    for shards in [1usize, 3] {
        // Shards 0 and 1 both panic at their first packet with one
        // spare between them: the second is retired at the first
        // drain. (A one-shard fleet only arms shard 0, which takes
        // the spare — nothing left to lose.)
        let mut plan = FaultPlan::new().saturate_shard(0, n / 4, n / 2).engine_panic(0, 0);
        if shards > 1 {
            plan = plan.engine_panic(1, 0);
        }
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(16)
            .overload_policy(OverloadPolicy::Degrade { patience: Duration::from_secs(5) })
            .fault_plan(plan)
            .spare_replicas(1)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        let mut expected = 0u64;
        let mut feed =
            |rt: &mut taurus_runtime::StreamingRuntime, packets: &[TracePacket], what: &str| {
                rt.feed(packets);
                expected += packets.len() as u64;
                assert_eq!(rt.stream_position(), expected, "{what} feed, shards={shards}");
            };
        // Saturated (the window covers this feed) and panicking.
        feed(&mut rt, &trace.packets, "saturated");
        let first = rt.drain();
        assert!(first.overload.degraded_verdicts > 0, "the window was live");
        let lost = first.faults.records.iter().any(|r| r.kind == FaultRecordKind::ShardLost);
        assert_eq!(lost, shards > 1);
        // Clean, quarantining, and empty feeds on the degraded fleet.
        feed(&mut rt, &trace.packets, "clean");
        feed(&mut rt, &corrupted, "quarantining");
        feed(&mut rt, &[], "empty");
        let second = rt.drain();
        assert!(second.overload.quarantine.zero_length > 0);
        assert_eq!(second.faults.lost_shard_packets > 0, lost, "dead-shard feeds counted");
    }
}

#[test]
fn unbounded_timeouts_wait_forever_instead_of_overflowing_the_clock() {
    // `Duration::MAX` is a legal patience and a legal watchdog: both
    // mean "no deadline". Neither may overflow the clock — not the
    // drain's reply wait, not a lane send under `Degrade`.
    use taurus_runtime::{FaultPlan, OverloadPolicy};

    within(Duration::from_secs(60), || {
        let syn = SynFloodDetector::default_deployment();
        let trace = kdd_trace(150, 99);
        let n = trace.packets.len() as u64;
        let mut rt = RuntimeBuilder::new()
            .shards(2)
            .batch_size(16)
            .control_timeout(Duration::MAX)
            .overload_policy(OverloadPolicy::Degrade { patience: Duration::MAX })
            .fault_plan(FaultPlan::new().saturate_shard(0, n / 4, n / 2))
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        rt.feed(&trace.packets);
        let report = rt.drain();
        assert!(report.overload.degraded_verdicts > 0, "the window was live");
        assert_eq!(
            report.merged.packets + report.overload.refused(),
            n,
            "admitted + refused must equal offered"
        );
        rt.shutdown();
    });
}

#[test]
fn drain_on_stop_leaves_no_packet_unmerged() {
    // Awkward end-of-stream geometries: feeds of a whole number of
    // batches, one packet more, a ragged tail, less than one batch, and
    // nothing at all. Every packet must be merged, steered, and counted
    // exactly once.
    within(Duration::from_secs(120), || {
        let syn = SynFloodDetector::default_deployment();
        let trace = kdd_trace(300, 84);
        for packets in [256usize, 257, 300, 40, 10, 3, 0] {
            let stream = &trace.packets[..packets];
            let n = packets as u64;
            let mut rt = RuntimeBuilder::new()
                .shards(2)
                .batch_size(16)
                .register_on(&syn, EngineBackend::Threshold)
                .build();
            rt.feed(stream);
            let report = rt.drain();
            assert_eq!(report.merged.packets, n, "{packets}p");
            let routed: u64 = report.shards.iter().map(|s| s.packets).sum();
            assert_eq!(routed, n, "{packets}p: steered == merged");
            // And the run is repeatable on the warm runtime (arenas all
            // recycled).
            rt.feed(stream);
            let again = rt.drain();
            assert_eq!(again.merged.packets, 2 * n);
        }
    });
}
