//! Determinism across live model updates: a sharded run with a
//! [`ModelUpdate`] installed at global packet index *k* must be
//! bit-identical to the sequential [`TaurusSwitch`] updated at *k*,
//! for shard counts {1, 2, 4} — the invariant that makes hot weight
//! swaps a semantics-preserving operation rather than a best-effort
//! one (§5.2.3's "install at flow-rule latency, no loss" claim) —
//! whichever of the two calls placed the barrier, and with the
//! accept/reject verdict the sequential switch would have rendered.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use taurus_controlplane::training::derive_round_seed;
use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{EngineBackend, ModelUpdate, SwitchBuilder, SwitchReport, TaurusApp};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_ml::{BinaryMetrics, TrainParams};
use taurus_pisa::Verdict;
use taurus_runtime::{InstallError, RuntimeBuilder};

fn default_kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig::default())
}

/// Sequential golden: process the prefix, install, process the rest —
/// returning the report and per-segment confusion for cross-checking.
fn sequential_with_update(
    build: impl Fn() -> taurus_core::TaurusSwitch,
    trace: &PacketTrace,
    k: usize,
    updates: &[&ModelUpdate],
) -> (SwitchReport, Vec<BinaryMetrics>) {
    let mut switch = build();
    let mut segments = vec![BinaryMetrics::default()];
    for (i, tp) in trace.packets.iter().enumerate() {
        if i == k {
            for update in updates {
                switch.install_update(update).expect("sequential install");
                segments.push(BinaryMetrics::default());
            }
        }
        let r = switch.process_trace_verdict(tp);
        segments.last_mut().unwrap().record(r.verdict == Verdict::Drop, tp.anomalous);
    }
    (switch.report(), segments)
}

/// A real retrain: continues the detector's float model with more SGD
/// on freshly generated data, so the swapped-in program genuinely
/// differs from the build-time one.
fn retrained_update(detector: &AnomalyDetector, version: u64) -> ModelUpdate {
    let mut retrained = detector.float_model.clone();
    let mut gen = KddGenerator::new(52);
    let mut ds = gen.binary_dataset(600, taurus_dataset::kdd::FeatureView::Dnn6);
    detector.standardizer.apply(&mut ds);
    retrained.train(
        ds.features(),
        ds.labels(),
        &TrainParams { epochs: 6, seed: derive_round_seed(52, 0), ..TrainParams::default() },
    );
    detector.prepare_update(&retrained, ds.features(), version)
}

#[test]
fn cgra_weight_swap_at_k_matches_sequential_for_shards_1_2_4() {
    let detector = AnomalyDetector::train_default(51, 1_200);
    let update = retrained_update(&detector, 1);

    let trace = default_kdd_trace(160, 53);
    let k = trace.packets.len() / 2;
    let (golden, golden_segments) = sequential_with_update(
        || SwitchBuilder::new().register(&detector).build(),
        &trace,
        k,
        &[&update],
    );

    // The update must actually change behavior, or this test is vacuous.
    let mut frozen = SwitchBuilder::new().register(&detector).build();
    for tp in &trace.packets {
        frozen.process_trace_verdict(tp);
    }
    assert_ne!(frozen.report(), golden, "the swapped weights must decide differently");

    for shards in [1usize, 2, 4] {
        let mut rt =
            RuntimeBuilder::new().shards(shards).batch_size(32).register(&detector).build();
        rt.schedule_update(k as u64, update.clone());
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged, golden,
            "sharded run with update at {k} diverged from sequential at {shards} shards"
        );
        assert_eq!(
            report.segments, golden_segments,
            "per-segment confusion diverged at {shards} shards"
        );
        assert_eq!(rt.app_versions(), vec![("anomaly-detection".to_string(), 1)]);
    }
}

#[test]
fn threshold_retune_mid_stream_matches_sequential_for_shards_1_2_4() {
    // The in-place engine-edit path (no program swap), on a two-app
    // roster so registration order and per-app counters are exercised.
    let detector = AnomalyDetector::train_default(54, 1_000);
    let syn = SynFloodDetector::default_deployment();
    let retune = syn.retune(15, 1, EngineBackend::Threshold);
    let trace = default_kdd_trace(500, 55);
    let k = trace.packets.len() / 3;

    let build = || {
        SwitchBuilder::new()
            .register_on(&detector, EngineBackend::Threshold)
            .register_on(&syn, EngineBackend::Threshold)
            .build()
    };
    let (golden, golden_segments) = sequential_with_update(build, &trace, k, &[&retune]);

    for shards in [1usize, 2, 4] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(7) // deliberately unaligned with k
            .backend(EngineBackend::Threshold)
            .register(&detector)
            .register(&syn)
            .build();
        rt.schedule_update(k as u64, retune.clone());
        let report = rt.run_trace(&trace);
        assert_eq!(report.merged, golden, "diverged at {shards} shards");
        assert_eq!(report.segments, golden_segments);
    }
}

#[test]
fn two_updates_at_the_same_index_install_in_schedule_order() {
    let syn = SynFloodDetector::default_deployment();
    let trace = default_kdd_trace(200, 56);
    let k = trace.packets.len() / 2;
    let u1 = syn.retune(100, 1, EngineBackend::Threshold);
    let u2 = syn.retune(10, 2, EngineBackend::Threshold);

    let build = || SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
    let (golden, golden_segments) = sequential_with_update(build, &trace, k, &[&u1, &u2]);

    for shards in [1usize, 2, 4] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .backend(EngineBackend::Threshold)
            .register(&syn)
            .build();
        rt.schedule_update(k as u64, u1.clone());
        rt.schedule_update(k as u64, u2.clone());
        let report = rt.run_trace(&trace);
        assert_eq!(report.merged, golden, "diverged at {shards} shards");
        assert_eq!(report.segments, golden_segments);
        assert_eq!(rt.app_versions(), vec![("syn-flood".to_string(), 2)]);
        // The middle segment (between the two same-index updates) is
        // empty on both sides: the barrier admitted no packets.
        assert_eq!(report.segments[1].total(), 0);
    }
}

#[test]
fn an_install_between_feeds_at_k_is_a_schedule_at_k_is_the_sequential_install() {
    // One install path: `install_update` issued at stream position k
    // places the same in-band barrier `schedule_update(k, …)` does, and
    // both equal the sequential switch updated before packet k — for
    // every shard count, on the program-swap path
    // (a replica retargets its resident simulator at the shared plan).
    // The one intended difference: a scheduled update opens a metrics
    // segment, an immediate install does not.
    let detector = AnomalyDetector::train_default(51, 1_200);
    let update = retrained_update(&detector, 1);
    let trace = default_kdd_trace(160, 58);
    let k = trace.packets.len() / 2;
    let (golden, golden_segments) = sequential_with_update(
        || SwitchBuilder::new().register(&detector).build(),
        &trace,
        k,
        &[&update],
    );
    let mut whole_run = BinaryMetrics::default();
    golden_segments.iter().for_each(|s| whole_run.absorb(s));

    for shards in [1usize, 2, 3, 5] {
        let label = format!("{shards} shards");
        let build =
            || RuntimeBuilder::new().shards(shards).batch_size(32).register(&detector).build();
        let mut scheduled = build();
        scheduled.schedule_update(k as u64, update.clone());
        let scheduled_report = scheduled.run_trace(&trace);

        let mut installed = build();
        installed.feed(&trace.packets[..k]);
        assert_eq!(installed.stream_position(), k as u64);
        installed.install_update(&update).expect("a fresh version of a hosted app");
        installed.feed(&trace.packets[k..]);
        let installed_report = installed.drain();

        assert_eq!(scheduled_report.merged, golden, "scheduled: {label}");
        assert_eq!(installed_report.merged, golden, "installed: {label}");
        assert_eq!(scheduled_report.segments, golden_segments, "{label}");
        assert_eq!(installed_report.segments, vec![whole_run], "{label}");
        for (a, b) in scheduled_report.shards.iter().zip(&installed_report.shards) {
            // Batch counts aside: the extra feed boundary flushes
            // partial batches early.
            assert_eq!((a.packets, &a.report), (b.packets, &b.report), "{label}");
        }
        assert_eq!(installed.app_versions(), scheduled.app_versions());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The feeder-side verdict is the replica's verdict: for random
    /// interleavings of fresh, equal-version, stale, unknown-app and
    /// wrong-backend updates through `install_update` and
    /// `schedule_update`, `StreamingRuntime::install_update` returns
    /// what a twin `TaurusSwitch::install_update` returns and
    /// `app_versions()` equals the twin's after every call and every
    /// drain. A scheduled update the twin refuses poisons the workers
    /// instead (that drain re-raises), and moves no version.
    #[test]
    fn prop_install_verdicts_and_versions_match_a_sequential_twin(
        ops in proptest::collection::vec(0u8..12, 1..40),
        picks in proptest::collection::vec(0u32..1_000, 40),
        shards in 1usize..4,
    ) {
        let detector = verdict_roster_detector();
        let syn = SynFloodDetector::default_deployment();
        let trace = verdict_roster_trace();
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(16)
            .register_on(detector, EngineBackend::CgraSim)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        let mut twin = SwitchBuilder::new()
            .register_on(detector, EngineBackend::CgraSim)
            .register_on(&syn, EngineBackend::Threshold)
            .build();

        // The twin's schedule: (index, update), stable in index.
        let mut pending: Vec<(u64, ModelUpdate)> = Vec::new();
        let mut fed = 0usize;
        let mut poisoned = false;
        for (&op, &pick) in ops.iter().zip(&picks) {
            match op {
                // An update of a random kind, installed now or scheduled
                // a little ahead.
                0..=7 => {
                    let update = random_update(detector, &syn, &twin, pick);
                    if op < 5 {
                        let expect = twin.install_update(&update).map_err(InstallError::Rejected);
                        prop_assert_eq!(rt.install_update(&update), expect);
                    } else {
                        let at = rt.stream_position() + u64::from(pick % 48);
                        rt.schedule_update(at, update.clone());
                        pending.push((at, update));
                        pending.sort_by_key(|&(at, _)| at);
                    }
                }
                8..=10 => {
                    let n = (pick as usize % 64).min(trace.packets.len() - fed);
                    rt.feed(&trace.packets[fed..fed + n]);
                    fed += n;
                    // Every barrier the feed crossed (or found behind it).
                    let crossed =
                        pending.iter().take_while(|(at, _)| n > 0 && *at < rt.stream_position());
                    let crossed = crossed.count();
                    for (_, update) in pending.drain(..crossed) {
                        poisoned |= twin.install_update(&update).is_err();
                    }
                }
                _ => {
                    // A drain installs whatever is still pending.
                    for (_, update) in pending.drain(..) {
                        poisoned |= twin.install_update(&update).is_err();
                    }
                    let drained = catch_unwind(AssertUnwindSafe(|| rt.drain()));
                    prop_assert_eq!(drained.is_err(), poisoned);
                    poisoned = false;
                }
            }
            prop_assert_eq!(rt.app_versions(), twin.app_versions());
        }
    }
}

/// The CGRA half of the verdict property's roster, trained once.
fn verdict_roster_detector() -> &'static AnomalyDetector {
    static DETECTOR: std::sync::OnceLock<AnomalyDetector> = std::sync::OnceLock::new();
    DETECTOR.get_or_init(|| AnomalyDetector::train_default(59, 400))
}

fn verdict_roster_trace() -> &'static PacketTrace {
    static TRACE: std::sync::OnceLock<PacketTrace> = std::sync::OnceLock::new();
    TRACE.get_or_init(|| default_kdd_trace(120, 60))
}

/// One update of a kind `pick` selects, relative to what `twin` runs:
/// fresh, equal-version, stale, for an unknown app, or for the other
/// app's engine backend.
fn random_update(
    detector: &AnomalyDetector,
    syn: &SynFloodDetector,
    twin: &taurus_core::TaurusSwitch,
    pick: u32,
) -> ModelUpdate {
    let on_syn = pick.is_multiple_of(2);
    let name = if on_syn { syn.name() } else { detector.name() };
    let installed = twin.app_version(name).expect("hosted");
    let fresh = installed + 1 + u64::from(pick % 3);
    // What the app's own backend takes.
    let fitting = |version: u64| {
        if on_syn {
            syn.retune(30 + i64::from(pick % 20), version, EngineBackend::Threshold)
        } else {
            ModelUpdate { version, ..verdict_roster_program_update().clone() }
        }
    };
    match (pick / 2) % 7 {
        0..=2 => fitting(fresh),
        3 => fitting(installed),
        4 => fitting(installed.saturating_sub(1)),
        5 => ModelUpdate::retune_threshold("no-such-app", fresh, 1),
        // A compiled program for the threshold engine, a cutoff for
        // the CGRA one.
        _ if on_syn => syn.retune(30, fresh, EngineBackend::CgraSim),
        _ => ModelUpdate::retune_threshold(name, fresh, 1),
    }
}

/// A full program update for the roster's detector, prepared once.
fn verdict_roster_program_update() -> &'static ModelUpdate {
    static UPDATE: std::sync::OnceLock<ModelUpdate> = std::sync::OnceLock::new();
    UPDATE.get_or_init(|| {
        let detector = verdict_roster_detector();
        let mut gen = KddGenerator::new(61);
        let mut ds = gen.binary_dataset(200, taurus_dataset::kdd::FeatureView::Dnn6);
        detector.standardizer.apply(&mut ds);
        detector.prepare_update(&detector.float_model, ds.features(), 0)
    })
}
