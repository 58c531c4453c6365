//! Deterministic fault injection against the streaming service: an
//! injected engine panic lands at an exact (shard, stream index) point
//! every run, a supervised fleet absorbs it (respawn from a spare,
//! exact accounting in `RuntimeReport::faults`), an unsupervised fleet
//! keeps the legacy re-raise contract — and still takes the updates
//! that land while it is poisoned — an install waits for no worker,
//! and a stalled shard degrades into a watchdog record instead of a
//! hang. Whatever dies, the feeder must neither deadlock on a closed
//! engine lane nor lose the service.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use common::within;
use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::engine::CgraEngine;
use taurus_core::{EngineBackend, EngineUpdate, FormatterFactory, ModelUpdate, TaurusApp};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig, TracePacket};
use taurus_pisa::{Field, FlowTableKind, MatchTable, PipelineConfig, BATCH_PACKETS};
use taurus_runtime::{shard_of, FaultPlan, FaultRecordKind, RuntimeBuilder, StreamingRuntime};

const SHARDS: usize = 4;
const FLOW_SLOTS: usize = 4096; // the builder default

fn kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

fn builder(syn: &SynFloodDetector, shards: usize) -> RuntimeBuilder<'_> {
    RuntimeBuilder::new().shards(shards).batch_size(16).register_on(syn, EngineBackend::Threshold)
}

/// Global stream indices the router assigns to `shard`.
fn assigned_indices(trace: &PacketTrace, shard: usize, shards: usize) -> Vec<u64> {
    routed_indices(trace, shard, shards, FLOW_SLOTS)
}

/// Global stream indices the router assigns to `shard` when it folds
/// flow keys through `slots` (a keyed table's bucket count).
fn routed_indices(trace: &PacketTrace, shard: usize, shards: usize, slots: usize) -> Vec<u64> {
    trace
        .packets
        .iter()
        .enumerate()
        .filter(|(_, tp)| shard_of(tp.tuple.canonical().hash(), slots, shards) == shard)
        .map(|(i, _)| i as u64)
        .collect()
}

fn drain_report(
    service: &mut StreamingRuntime,
    trace: &PacketTrace,
) -> taurus_runtime::RuntimeReport {
    service.feed(&trace.packets);
    service.drain()
}

#[test]
fn a_panicked_worker_is_respawned_and_accounted() {
    // The acceptance pin: inject an engine panic mid-feed on one shard
    // of a supervised fleet. The drain must (a) merge the faulted
    // shard's exact pre-panic prefix, (b) leave every surviving shard
    // bit-identical to a fault-free run, (c) respawn the worker from a
    // spare with `worker_restarts == 1`, and (d) recover bit-exactly:
    // after a reset the fleet revalidates identically to a fleet that
    // never faulted.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(200, 80);
    let validation = kdd_trace(150, 81);
    let victim = 2usize;
    let assigned = assigned_indices(&trace, victim, SHARDS);
    assert!(assigned.len() >= 4, "seed must give the victim shard real traffic");
    // Fire exactly at the middle assigned packet: the `>=` trigger
    // matches it, so the worker processes precisely the first half of
    // its slice.
    let fire_at = assigned[assigned.len() / 2];

    let mut subject = builder(&syn, SHARDS)
        .fault_plan(FaultPlan::new().engine_panic(victim, fire_at))
        .spare_replicas(1)
        .build();
    let mut twin = builder(&syn, SHARDS).build();

    let faulted = drain_report(&mut subject, &trace);
    let clean = drain_report(&mut twin, &trace);

    assert_eq!(faulted.faults.worker_restarts, 1);
    assert!(faulted.faults.batches_dropped >= 1, "post-panic batches are drained, not processed");
    assert_eq!(faulted.faults.records.len(), 1);
    let record = &faulted.faults.records[0];
    assert_eq!(record.shard, victim);
    assert_eq!(record.kind, FaultRecordKind::WorkerPanic);
    assert!(
        record.detail.contains(&format!("injected engine fault at stream index {fire_at}")),
        "{}",
        record.detail
    );

    // (a) the faulted shard merged its exact pre-panic prefix…
    let victim_stats = faulted.shards.iter().find(|s| s.shard == victim).expect("victim merged");
    assert_eq!(victim_stats.packets, (assigned.len() / 2) as u64);
    // …(b) and every surviving shard is untouched by the neighbour's
    // crash — bit-identical stats, reports and all.
    for s in &clean.shards {
        if s.shard == victim {
            continue;
        }
        let survivor = faulted.shards.iter().find(|f| f.shard == s.shard).expect("survivor");
        assert_eq!(survivor, s, "shard {} diverged", s.shard);
    }

    // (d) bit-exact recovery: the respawned replica was rehydrated from
    // the builder roster, so after a reset the two fleets are
    // indistinguishable.
    subject.reset();
    twin.reset();
    let after = drain_report(&mut subject, &validation);
    let control = drain_report(&mut twin, &validation);
    assert_eq!(after, control, "recovery must be bit-exact");
}

#[test]
fn a_respawned_replica_replays_the_folded_update_history() {
    // Rehydration *from history*: the fleet has moved 41 installs past
    // the builder roster when a worker dies, so the spare only matches
    // its neighbours if the replay lands on the newest cutoff AND keeps
    // the table-only update from the middle of the sequence. That
    // update inverts the verdict MAT (drop on engine output 0), so both
    // halves stay visible in the validation report: lose the table and
    // drops flip back, lose the last cutoff and the drop set moves.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(200, 89);
    let validation = kdd_trace(150, 90);
    let victim = 1usize;
    let assigned = assigned_indices(&trace, victim, SHARDS);
    assert!(assigned.len() >= 4, "seed must give the victim shard real traffic");

    let mut inverted = MatchTable::new("inverted-verdict", Field::MlOut, Field::Decision, 0);
    inverted.add_exact(0, 1);
    let table_only = ModelUpdate {
        engine: EngineUpdate::KeepEngine,
        post_tables: Some([inverted].into()),
        ..ModelUpdate::retune_threshold(syn.name(), 21, 0)
    };

    let mut subject = builder(&syn, SHARDS)
        .fault_plan(FaultPlan::new().engine_panic(victim, assigned[assigned.len() / 2]))
        .spare_replicas(1)
        .build();
    let mut twin = builder(&syn, SHARDS).build();
    for service in [&mut subject, &mut twin] {
        for version in 1..=41u64 {
            let update = if version == 21 {
                table_only.clone()
            } else {
                syn.retune(2 * version as i64, version, EngineBackend::Threshold)
            };
            service.install_update(&update).expect("fresh version");
        }
    }

    let faulted = drain_report(&mut subject, &trace);
    assert_eq!(faulted.faults.worker_restarts, 1);
    drain_report(&mut twin, &trace);

    subject.reset();
    twin.reset();
    let after = drain_report(&mut subject, &validation);
    let control = drain_report(&mut twin, &validation);
    assert!(
        after.merged.dropped > 0 && after.merged.dropped < after.merged.packets,
        "the validation trace must exercise both verdicts"
    );
    assert_eq!(after, control, "the spare must replay to the fleet's current models");
}

#[test]
fn a_fault_inside_an_engine_group_lands_where_the_per_packet_loop_puts_it() {
    // The AD DNN's workers run each batch through the across-packets
    // engine, eight packets a group. An armed fault splits the batch at
    // its packet, so it still fires before that packet and after every
    // earlier one, one fault per packet — even at the fifth packet of a
    // group. The reference is per-packet semantics: the victim's report
    // is that of a clean fleet fed the stream only up to the victim's
    // first unprocessed packet; the survivors are a clean full run's.
    let detector = AnomalyDetector::train_default(9, 400);
    // Across packets on a CPU with AVX2, else packet by packet.
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        CgraEngine::new(detector.program.clone()).sim().runs_across_packets(),
        std::arch::is_x86_feature_detected!("avx2")
    );
    let trace = kdd_trace(200, 91);
    let (shards, victim) = (2, 1);
    let assigned = assigned_indices(&trace, victim, shards);
    // Batches of 64: the victim's packet `k` is packet `k % 8` of a
    // group.
    let k = 5 * BATCH_PACKETS + 4;
    assert!(assigned.len() > 2 * k, "seed must give the victim shard real traffic");
    let fire_at = assigned[k];
    let fleet = || RuntimeBuilder::new().shards(shards).batch_size(64).register(&detector);
    assert_group_faults_land_per_packet(&fleet, &trace, shards, victim, &assigned, k, fire_at);
}

#[test]
fn a_fault_inside_a_threshold_group_over_a_keyed_table_lands_where_the_per_packet_loop_puts_it() {
    // Threshold rosters run the group loop too: the SYN scorer on the
    // threshold backend over a keyed table, the same faults at the
    // fifth packet of a group.
    let syn = SynFloodDetector::default_deployment();
    let buckets = 64;
    let config = PipelineConfig {
        flow_table: FlowTableKind::Keyed { buckets, ways: 2 },
        ..PipelineConfig::default()
    };
    let trace = kdd_trace(200, 91);
    let (shards, victim) = (2, 1);
    let assigned = routed_indices(&trace, victim, shards, buckets);
    let k = 5 * BATCH_PACKETS + 4;
    assert!(assigned.len() > 2 * k, "seed must give the victim shard real traffic");
    let fire_at = assigned[k];
    let fleet = || {
        RuntimeBuilder::new()
            .shards(shards)
            .batch_size(64)
            .config(config.clone())
            .register_on(&syn, EngineBackend::Threshold)
    };
    assert_group_faults_land_per_packet(&fleet, &trace, shards, victim, &assigned, k, fire_at);
}

/// The reference is per-packet semantics: a panic at the victim's
/// packet `k` (with or without a stall before it) leaves the victim's
/// report that of a clean fleet fed the stream only up to the victim's
/// first unprocessed packet, and a stall alone changes nothing; the
/// survivors are a clean full run's.
fn assert_group_faults_land_per_packet<'a>(
    fleet: &dyn Fn() -> RuntimeBuilder<'a>,
    trace: &PacketTrace,
    shards: usize,
    victim: usize,
    assigned: &[u64],
    k: usize,
    fire_at: u64,
) {
    let clean = drain_report(&mut fleet().build(), trace);
    let pause = Duration::from_millis(5);
    let cases = [
        ("panic", FaultPlan::new().engine_panic(victim, fire_at), k, 1),
        (
            "stall, then a panic due at the same packet",
            FaultPlan::new().stall(victim, fire_at, pause).engine_panic(victim, fire_at),
            k + 1,
            1,
        ),
        ("stall", FaultPlan::new().stall(victim, fire_at, pause), assigned.len(), 0),
    ];
    for (name, plan, processed, restarts) in cases {
        let mut subject = fleet().fault_plan(plan).spare_replicas(1).build();
        let report = drain_report(&mut subject, trace);
        assert_eq!(report.faults.worker_restarts, restarts, "{name}");
        let end = assigned.get(processed).map_or(trace.packets.len(), |&i| i as usize);
        let mut prefix = fleet().build();
        prefix.feed(&trace.packets[..end]);
        let reference = prefix.drain();
        for (got, clean, prefix) in report
            .shards
            .iter()
            .zip(&clean.shards)
            .zip(&reference.shards)
            .map(|((g, c), p)| (g, c, p))
        {
            let want = if got.shard == victim { prefix } else { clean };
            assert_eq!(got.packets, want.packets, "{name}: shard {}", got.shard);
            assert_eq!(got.report, want.report, "{name}: shard {}", got.shard);
        }
        assert_eq!(report.shards.len(), shards, "{name}: every shard merged");
    }
}

#[test]
fn fault_reports_are_deterministic() {
    // Same plan + same stream ⇒ the same faults, the same records in
    // the same order, the same merged prefix — run to run.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(180, 82);
    let assigned = assigned_indices(&trace, 1, SHARDS);
    let fire_at = assigned[assigned.len() / 3];
    let run = || {
        let mut service = builder(&syn, SHARDS)
            .fault_plan(FaultPlan::new().engine_panic(1, fire_at))
            .spare_replicas(1)
            .build();
        drain_report(&mut service, &trace)
    };
    assert_eq!(run(), run());
}

#[test]
#[should_panic(expected = "injected engine fault")]
fn a_panic_without_spares_reraises_at_the_drain() {
    // No spares configured ⇒ the legacy contract holds: the drain
    // quiesces every shard, then re-raises the worker's panic.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(100, 83);
    let mut service = builder(&syn, 2).fault_plan(FaultPlan::new().engine_panic(0, 0)).build();
    drain_report(&mut service, &trace);
}

#[test]
fn engine_worker_panic_mid_run_propagates_without_deadlock() {
    // An invalid live update (unknown app) makes every engine worker
    // panic at its install barrier. At that moment the feeder is still
    // steering packets — its next send hits a dead lane. The panic must
    // surface from the run's drain; the feeder and the remaining engine
    // workers must all wind down. Early index: the poison fires while
    // plenty of stream remains. Index 0: the engines die before the
    // first packet, so the feeder's very first flush fails.
    within(Duration::from_secs(60), || {
        let syn = SynFloodDetector::default_deployment();
        let trace = kdd_trace(400, 81);
        for (shards, batch_size, at) in [(2usize, 8usize, 40u64), (4, 4, 0)] {
            let mut rt = builder(&syn, shards)
                .batch_size(batch_size)
                .queue_depth(1) // tiny lanes: the steer side is often blocked
                .build();
            rt.schedule_update(at, ModelUpdate::retune_threshold("no-such-app", 1, 40));
            let result = catch_unwind(AssertUnwindSafe(|| rt.run_trace(&trace)));
            let payload = result.expect_err("the poisoned update must panic the run");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains("live model update failed"), "unexpected panic payload: {msg}");
        }
    });
}

#[test]
fn runtime_survives_a_panicked_run_and_completes_the_next_one() {
    // The previous run's unwind left batches staged and lanes
    // half-drained; after a reset the runtime must run a full trace to
    // completion.
    within(Duration::from_secs(60), || {
        let syn = SynFloodDetector::default_deployment();
        let trace = kdd_trace(300, 83);
        let mut rt = builder(&syn, 2).batch_size(8).build();
        rt.schedule_update(50, ModelUpdate::retune_threshold("no-such-app", 1, 40));
        let poisoned = catch_unwind(AssertUnwindSafe(|| rt.run_trace(&trace)));
        assert!(poisoned.is_err());
        // Clean follow-up run on the same runtime.
        rt.reset();
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged.packets,
            trace.packets.len() as u64,
            "no packet lost after recovery"
        );
    });
}

#[test]
fn an_update_lands_on_a_poisoned_shard_too() {
    // Regression (fleet fork): a poisoned worker used to skip in-band
    // updates although the feeder had already recorded them, so an
    // unsupervised caller that caught the drain's re-raised panic,
    // reset and kept serving ran model v on the healthy shards and v-1
    // on the recovered one. An install is not traffic: it lands
    // regardless, and after the reset both shards decide exactly like a
    // fleet that never faulted.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(150, 91);
    let validation = kdd_trace(200, 92);
    let retune = syn.retune(8, 1, EngineBackend::Threshold);
    let k = trace.packets.len() as u64 / 2;

    let mut subject = builder(&syn, 2).fault_plan(FaultPlan::new().engine_panic(0, 0)).build();
    let mut twin = builder(&syn, 2).build();
    let mut frozen = builder(&syn, 2).build();
    for service in [&mut subject, &mut twin] {
        // Past the panic index: shard 0 is already poisoned when the
        // barrier reaches it.
        service.schedule_update(k, retune.clone());
        service.feed(&trace.packets);
    }
    frozen.feed(&trace.packets);
    catch_unwind(AssertUnwindSafe(|| subject.drain()))
        .expect_err("an unsupervised drain re-raises the worker's panic");
    twin.drain();
    frozen.drain();

    for service in [&mut subject, &mut twin, &mut frozen] {
        service.reset();
    }
    let after = drain_report(&mut subject, &validation);
    let control = drain_report(&mut twin, &validation);
    let stale = drain_report(&mut frozen, &validation);
    assert_ne!(
        stale.shards[0].report, control.shards[0].report,
        "the retune must change shard 0's verdicts, or this test is vacuous"
    );
    assert_eq!(after, control, "the recovered shard must run the fleet's model");
    assert_eq!(subject.app_versions(), twin.app_versions());
}

#[test]
fn an_install_needs_no_ack() {
    // `install_update` renders its verdict feeder-side and enqueues the
    // update in-band: it returns — and the version mirror advances —
    // while no worker has finished applying it. The interleaving is
    // forced, not timed: the update's formatter factory blocks every
    // worker inside its install until the test opens a gate, which it
    // only does after the call has returned. A control plane that
    // waited for acknowledgements would deadlock here (and used to
    // answer `Unresponsive` after the control timeout).
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(150, 84);
    let mut subject = builder(&syn, 2).control_timeout(Duration::from_millis(50)).build();
    let mut twin = builder(&syn, 2).build();

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let rebuild = syn.formatter_factory();
    let gated: FormatterFactory = {
        let gate = Arc::clone(&gate);
        Arc::new(move || {
            let (open, opened) = &*gate;
            let mut open = open.lock().expect("gate");
            while !*open {
                open = opened.wait(open).expect("gate");
            }
            rebuild()
        })
    };
    let update =
        ModelUpdate { formatter: Some(gated), ..syn.retune(45, 1, EngineBackend::Threshold) };

    subject.install_update(&update).expect("a fresh version of a hosted app");
    assert_eq!(
        subject.app_versions(),
        vec![("syn-flood".to_string(), 1)],
        "the mirror advances with the verdict, not with an acknowledgement"
    );
    *gate.0.lock().expect("gate") = true;
    gate.1.notify_all();
    twin.install_update(&update).expect("fresh version");

    // The model is live on every shard at the barrier the call chose:
    // traffic fed afterwards matches the twin's bit for bit, and
    // nothing was recorded as a fault.
    let subject_report = drain_report(&mut subject, &trace);
    let twin_report = drain_report(&mut twin, &trace);
    assert_eq!(subject_report.merged, twin_report.merged);
    assert_eq!(subject_report.shards, twin_report.shards);
    assert_eq!(subject_report.segments, twin_report.segments);
    assert!(subject_report.faults.is_empty(), "{:?}", subject_report.faults);
    assert_eq!(subject.app_versions(), vec![("syn-flood".to_string(), 1)]);

    // Control flow continues normally afterwards.
    subject.install_update(&syn.retune(50, 2, EngineBackend::Threshold)).expect("fleet moved on");
    assert_eq!(subject.app_versions(), vec![("syn-flood".to_string(), 2)]);
}

#[test]
fn a_stalled_shard_trips_the_watchdog_and_is_replaced() {
    // A wedged worker (stalled far past the control timeout) cannot
    // hang the drain: the watchdog gives up on its snapshot, records
    // the loss, and the supervisor swaps in a spare. The degraded
    // report carries only the responsive shards; after a reset the
    // replacement behaves exactly like a never-faulted fleet.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(120, 85);
    let validation = kdd_trace(120, 86);
    // Deep queues: ingest must not absorb the stall as backpressure —
    // the whole trace fits in flight, feed returns while the worker is
    // still wedged, and the *drain* watchdog is what faces the stall.
    let mut subject = builder(&syn, 2)
        .queue_depth(64)
        .fault_plan(FaultPlan::new().stall(1, 0, Duration::from_secs(1)))
        .control_timeout(Duration::from_millis(100))
        .spare_replicas(1)
        .build();
    let mut twin = builder(&syn, 2).queue_depth(64).build();

    let degraded = drain_report(&mut subject, &trace);
    assert_eq!(degraded.faults.worker_restarts, 1);
    assert_eq!(degraded.faults.records.len(), 1);
    assert_eq!(degraded.faults.records[0].shard, 1);
    assert_eq!(degraded.faults.records[0].kind, FaultRecordKind::Unresponsive);
    // Degraded mode is explicit: the stalled shard's snapshot is
    // missing, not silently zeroed.
    assert_eq!(degraded.shards.len(), 1);
    assert_eq!(degraded.shards[0].shard, 0);

    let clean = drain_report(&mut twin, &trace);
    assert_eq!(degraded.shards[0], clean.shards[0], "the healthy shard never noticed");

    subject.reset();
    twin.reset();
    let after = drain_report(&mut subject, &validation);
    let control = drain_report(&mut twin, &validation);
    assert_eq!(after, control, "the replacement is a full citizen");
}

#[test]
fn a_lost_shard_costs_its_own_traffic_and_nothing_else() {
    // Regression: with the spares exhausted, a retired shard used to
    // take the fleet down silently — the first packet homed on it
    // stopped the feed, the staged batches of the healthy shards were
    // never flushed, and the drain reported nothing. Now its packets
    // are refused at ingest (counted, no state touched, stream index
    // held), so every surviving shard is bit-identical to a fleet fed
    // the trace with the lost shard's traffic filtered out.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(200, 87);
    let followup = kdd_trace(160, 88);
    // The survivors of a 2-shard fleet that lost shard 1.
    let survivors_of = |packets: &[TracePacket]| -> Vec<TracePacket> {
        let survives =
            |tp: &&TracePacket| shard_of(tp.tuple.canonical().hash(), FLOW_SLOTS, 2) != 1;
        packets.iter().filter(survives).copied().collect()
    };
    let survivors = survivors_of(&followup.packets);
    let refused = (followup.packets.len() - survivors.len()) as u64;
    assert!(refused > 0 && !survivors.is_empty(), "seed must load both shards");

    // One spare, two panics: shard 0 takes the spare, shard 1 is
    // retired.
    let mut subject = builder(&syn, 2)
        .fault_plan(FaultPlan::new().engine_panic(0, 0).engine_panic(1, 0))
        .spare_replicas(1)
        .build();
    let mut twin = builder(&syn, 2).build();

    let crashed = drain_report(&mut subject, &trace);
    let kinds: Vec<_> = crashed.faults.records.iter().map(|r| (r.shard, r.kind)).collect();
    assert_eq!(
        kinds,
        vec![
            (0, FaultRecordKind::WorkerPanic),
            (1, FaultRecordKind::WorkerPanic),
            (1, FaultRecordKind::ShardLost),
        ]
    );
    assert_eq!(crashed.faults.worker_restarts, 1);

    // The control plane skips the lost shard instead of failing
    // half-applied: immediate and in-band installs both land.
    let retune = syn.retune(45, 1, EngineBackend::Threshold);
    subject.install_update(&retune).expect("the live shard accepts; the lost one is skipped");
    twin.install_update(&retune).expect("fresh version");
    let at = 10u64;
    let scheduled = syn.retune(50, 2, EngineBackend::Threshold);
    subject.schedule_update(subject.stream_position() + at, scheduled.clone());
    // The twin sees only the survivors, so the same barrier sits
    // before its first survivor at or past packet `at`.
    let twin_at = survivors_of(&followup.packets[..at as usize]).len() as u64;
    twin.schedule_update(twin.stream_position() + twin_at, scheduled);

    subject.reset();
    twin.reset();
    let before = subject.stream_position();
    subject.feed(&followup.packets);
    assert_eq!(
        subject.stream_position(),
        before + followup.packets.len() as u64,
        "refused packets still hold their stream index"
    );
    let degraded = subject.drain();
    twin.feed(&survivors);
    let clean = twin.drain();

    assert_eq!(degraded.faults.lost_shard_packets, refused);
    let processed: u64 = degraded.shards.iter().map(|s| s.packets).sum();
    assert_eq!(
        processed + degraded.overload.refused() + degraded.faults.lost_shard_packets,
        followup.packets.len() as u64,
        "every offered packet is processed, refused at admission, or lost with its shard"
    );
    assert!(degraded.faults.records.is_empty(), "a known-lost shard is not re-diagnosed");
    assert_eq!(degraded.shards.len(), 1, "the lost shard reports nothing");
    assert_eq!(
        degraded.shards[0], clean.shards[0],
        "the survivor must not notice its neighbour's loss"
    );
    assert_eq!(degraded.segments, clean.segments);
    assert_eq!(subject.app_versions(), vec![("syn-flood".to_string(), 2)]);
    assert!(clean.faults.is_empty());
}
