//! The pinning suite: sharded execution is *exact*.
//!
//! For the default KDD trace, the sharded runtime's merged
//! [`SwitchReport`] must equal the single-thread [`TaurusSwitch`]'s
//! report bit for bit — counters, drops, flags, per-app breakdowns —
//! for every shard count in {1, 2, 4, 8}, for non-dividing counts, and
//! for random shard × batch-size geometries over random traces. This
//! is the property that makes the runtime a legitimate scaling layer
//! rather than an approximation: flow-consistent hashing +
//! full-capacity per-shard registers + ingest-ordered cross-flow
//! windows preserve register-stage semantics exactly.

use proptest::prelude::*;
use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{EngineBackend, SwitchBuilder, SwitchReport, TaurusSwitch};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig, TracePacket};
use taurus_pisa::PipelineConfig;
use taurus_runtime::RuntimeBuilder;

/// The default KDD trace (default `TraceConfig`, KDD generator records).
fn default_kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig::default())
}

fn sequential_report(build: impl Fn() -> TaurusSwitch, trace: &PacketTrace) -> SwitchReport {
    let mut switch = build();
    for tp in &trace.packets {
        switch.process_trace_verdict(tp);
    }
    switch.report()
}

#[test]
fn sharded_equals_sequential_for_all_shard_counts_cgra() {
    // The real §5.2.2 deployment: the compiled anomaly DNN on the
    // cycle-level CGRA simulator, alongside the SYN-flood scorer.
    let detector = AnomalyDetector::train_default(21, 1_200);
    let syn = SynFloodDetector::default_deployment();
    let trace = default_kdd_trace(150, 21);

    let golden = sequential_report(
        || SwitchBuilder::new().register(&detector).register(&syn).build(),
        &trace,
    );
    assert!(golden.packets > 0 && golden.ml_packets > 0, "trace exercises the ML path");

    for shards in [1usize, 2, 4, 8] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(32)
            .register(&detector)
            .register(&syn)
            .build();
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged, golden,
            "merged report diverges from sequential at {shards} shards"
        );
        assert_eq!(report.shards.len(), shards);
        let routed: u64 = report.shards.iter().map(|s| s.packets).sum();
        assert_eq!(routed, golden.packets, "every packet routed exactly once");
    }
}

#[test]
fn sharded_equals_sequential_on_threshold_backend_large_trace() {
    // The cheap backend lets us pin a much larger trace and sweep batch
    // geometry too: exactness must be independent of batch size and
    // queue depth.
    let detector = AnomalyDetector::train_default(22, 1_000);
    let syn = SynFloodDetector::default_deployment();
    let trace = default_kdd_trace(900, 22);

    let golden = sequential_report(
        || {
            SwitchBuilder::new()
                .register_on(&detector, EngineBackend::Threshold)
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        },
        &trace,
    );
    assert!(golden.dropped > 0, "trace produces drops to disagree about");

    for (shards, batch_size, queue_depth) in
        [(1usize, 1usize, 1usize), (2, 7, 2), (4, 64, 4), (8, 256, 8), (8, 1, 1)]
    {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(batch_size)
            .queue_depth(queue_depth)
            .backend(EngineBackend::Threshold)
            .register(&detector)
            .register(&syn)
            .build();
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged, golden,
            "diverged at shards={shards} batch={batch_size} depth={queue_depth}"
        );
    }
}

#[test]
fn non_dividing_shard_counts_stay_exact() {
    // Slot-based routing lifts the old power-of-two restriction: shard
    // counts that do not divide the register slot count (3, 5, 6) must
    // be exact too.
    let detector = AnomalyDetector::train_default(24, 1_000);
    let syn = SynFloodDetector::default_deployment();
    let trace = default_kdd_trace(600, 24);

    let golden = sequential_report(
        || {
            SwitchBuilder::new()
                .register_on(&detector, EngineBackend::Threshold)
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        },
        &trace,
    );

    for shards in [3usize, 5, 6] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(17) // deliberately unaligned with everything
            .backend(EngineBackend::Threshold)
            .register(&detector)
            .register(&syn)
            .build();
        let report = rt.run_trace(&trace);
        assert_eq!(report.merged, golden, "diverged at shards={shards}");
        let routed: u64 = report.shards.iter().map(|s| s.packets).sum();
        assert_eq!(routed, golden.packets, "every packet routed exactly once");
    }
}

#[test]
fn idle_gap_traces_stay_exact_across_ingest_modes() {
    // Streams with long quiet periods exercise the cross-flow window
    // rotation on *read* paths: after an idle gap, the first packets —
    // flow starts and non-starts alike — must observe freshly rotated
    // (often zeroed) windows, identically in sequential and sharded
    // ingest. Gaps of 1x, 2x, and 10x the window length
    // cover the swap-one-epoch and clear-both rotation branches.
    let syn = SynFloodDetector::default_deployment();
    let base = default_kdd_trace(200, 26);
    let span = base.packets.last().map(|p| p.ts_ns).unwrap_or(0);
    let window = PipelineConfig::default().window_ns;

    for gap_mult in [1u64, 2, 10] {
        let gap = gap_mult * window;
        let mut packets: Vec<TracePacket> = Vec::with_capacity(base.packets.len() * 3);
        for r in 0..3u64 {
            let offset = r * (span + gap);
            packets.extend(base.packets.iter().cloned().map(|mut p| {
                p.ts_ns += offset;
                p
            }));
        }

        let golden = {
            let mut switch =
                SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
            for tp in &packets {
                switch.process_trace_verdict(tp);
            }
            switch.report()
        };

        for shards in [2usize, 3, 4] {
            let mut rt = RuntimeBuilder::new()
                .shards(shards)
                .batch_size(16)
                .register_on(&syn, EngineBackend::Threshold)
                .build();
            rt.feed(&packets);
            let report = rt.drain();
            assert_eq!(report.merged, golden, "gap={gap_mult}x window diverged at shards={shards}");
        }
    }
}

#[test]
fn observe_only_apps_report_identically_when_sharded() {
    // VerdictPolicy is part of the merged report; an observe-only
    // roster must shard exactly too (its counters still merge).
    struct Observer(SynFloodDetector);
    impl taurus_core::TaurusApp for Observer {
        fn name(&self) -> &str {
            "syn-flood-observer"
        }
        fn reaction_time(&self) -> taurus_core::ReactionTime {
            self.0.reaction_time()
        }
        fn feature_count(&self) -> usize {
            self.0.feature_count()
        }
        fn build_engine(&self, backend: EngineBackend) -> taurus_core::BoxedEngine {
            self.0.build_engine(backend)
        }
        fn formatter_factory(&self) -> taurus_core::FormatterFactory {
            self.0.formatter_factory()
        }
        fn pre_tables(&self) -> Vec<taurus_pisa::MatchTable> {
            self.0.pre_tables()
        }
        fn post_tables(&self, backend: EngineBackend) -> Vec<taurus_pisa::MatchTable> {
            self.0.post_tables(backend)
        }
        fn verdict_policy(&self) -> taurus_core::VerdictPolicy {
            taurus_core::VerdictPolicy::Observe
        }
    }

    let observer = Observer(SynFloodDetector::default_deployment());
    let trace = default_kdd_trace(400, 23);
    let golden = sequential_report(
        || SwitchBuilder::new().register_on(&observer, EngineBackend::Threshold).build(),
        &trace,
    );
    assert_eq!(golden.dropped, 0, "observe-only apps never drop");
    assert!(golden.apps[0].counters.dropped > 0, "but their votes are counted");

    for shards in [2usize, 8] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .backend(EngineBackend::Threshold)
            .register(&observer)
            .build();
        assert_eq!(rt.run_trace(&trace).merged, golden);
    }
}

proptest! {
    // Each case spawns engine threads; keep the count modest so the
    // suite stays fast on small CI hosts.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_runtime_matches_sequential_for_arbitrary_geometry(
        seed in 0u64..1_000,
        n_records in 20usize..80,
        shard_idx in 0usize..6,
        batch_size in 1usize..48,
    ) {
        // The non-dividing counts exercise slot-based routing.
        let shards = [1usize, 2, 3, 4, 5, 8][shard_idx];
        let syn = SynFloodDetector::default_deployment();
        let records = KddGenerator::new(seed).take(n_records);
        let trace = PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() });
        let golden = sequential_report(
            || SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build(),
            &trace,
        );

        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(batch_size)
            .backend(EngineBackend::Threshold)
            .register(&syn)
            .build();
        let report = rt.run_trace(&trace);
        prop_assert_eq!(report.merged, golden, "shards={} batch={}", shards, batch_size);
    }
}
