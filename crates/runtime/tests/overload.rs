//! The overload pinning suite: saturation response is a *policy*, and
//! under injected saturation it is exact.
//!
//! [`FaultPlan::saturate_shard`] marks packets over budget by a pure
//! predicate of (home shard, global stream index), so a non-blocking
//! [`OverloadPolicy::Degrade`] must degrade *exactly* the enumerable
//! window set — under every shard geometry and feed slicing — and the
//! merged report must equal the sequential switch run over the
//! filtered trace. `Block` remains byte-identical to the historical
//! runtime: saturation windows are ignored and the `overload` report
//! section stays empty.
//!
//! One test saturates a lane *organically* instead — a stalled worker
//! behind shallow queues — because that is the only way to reach the
//! steer stage's patience timeout; its assertions are counts, never
//! wall clock.

mod common;

use std::time::Duration;

use common::within;
use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{EngineBackend, SwitchBuilder, SwitchReport};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig, TracePacket};
use taurus_pisa::Verdict;
use taurus_runtime::{
    shard_of, FaultPlan, FaultRecordKind, OverloadPolicy, OverloadReport, RuntimeBuilder,
    RuntimeReport,
};

const FLOW_SLOTS: usize = 4096; // the builder default

/// Patience long enough that organic lane timeouts can never fire in a
/// healthy test run: every degraded packet in this suite comes from the
/// injected windows, keeping the accounting exactly enumerable.
const PATIENCE: Duration = Duration::from_secs(5);

fn kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

fn home_shard(tp: &TracePacket, shards: usize) -> usize {
    shard_of(tp.tuple.canonical().hash(), FLOW_SLOTS, shards)
}

/// The single-threaded oracle: the windows say exactly which packets an
/// admission policy refuses, so the survivors are enumerable up front.
fn split_by_windows(
    trace: &PacketTrace,
    shards: usize,
    windows: &[(usize, u64, u64)],
) -> (Vec<TracePacket>, Vec<TracePacket>) {
    let mut admitted = Vec::new();
    let mut refused = Vec::new();
    for (i, tp) in trace.packets.iter().enumerate() {
        let home = home_shard(tp, shards);
        let index = i as u64;
        let hit = windows
            .iter()
            .any(|&(shard, from, len)| home == shard && index >= from && index < from + len);
        if hit {
            refused.push(*tp);
        } else {
            admitted.push(*tp);
        }
    }
    (admitted, refused)
}

fn sequential_report(
    syn: &SynFloodDetector,
    anomaly: &AnomalyDetector,
    packets: &[TracePacket],
) -> SwitchReport {
    let mut switch = SwitchBuilder::new()
        .register_on(anomaly, EngineBackend::Threshold)
        .register_on(syn, EngineBackend::Threshold)
        .build();
    for tp in packets {
        switch.process_trace_verdict(tp);
    }
    switch.report()
}

fn builder<'a>(
    syn: &'a SynFloodDetector,
    anomaly: &'a AnomalyDetector,
    shards: usize,
) -> RuntimeBuilder<'a> {
    RuntimeBuilder::new()
        .shards(shards)
        .batch_size(16)
        .register_on(anomaly, EngineBackend::Threshold)
        .register_on(syn, EngineBackend::Threshold)
}

/// Conservation: every offered packet is admitted or refused, never
/// both, never lost.
fn assert_conserved(report: &RuntimeReport, offered: usize) {
    assert_eq!(
        report.merged.packets + report.overload.refused(),
        offered as u64,
        "admitted + refused must equal offered"
    );
}

#[test]
fn a_stalled_shard_is_ridden_out_by_block_and_degraded_by_degrade() {
    // Organic saturation: shard 0's worker stalls on its first packet
    // behind a two-batch lane, so the steer stage's own patience — not
    // an injected window — decides what is degraded. `Block` eats the
    // stall. `Degrade` with a bounded patience waits that long per
    // staged batch (a healthy engine drains one in microseconds, so
    // only the wedged lane times out) and keeps the healthy shard's
    // traffic on the ML path; with zero patience it waits for nothing
    // and hands the overflow the line-rate default.
    within(Duration::from_secs(60), || {
        let syn = SynFloodDetector::default_deployment();
        let trace = kdd_trace(400, 39);
        let offered = trace.packets.len() as u64;
        let run = |policy: OverloadPolicy, plan: FaultPlan| {
            let mut rt = RuntimeBuilder::new()
                .shards(2)
                .batch_size(64)
                .queue_depth(2)
                .overload_policy(policy)
                .fault_plan(plan)
                .register_on(&syn, EngineBackend::Threshold)
                .build();
            rt.feed(&trace.packets);
            let report = rt.drain();
            assert_conserved(&report, trace.packets.len());
            rt.shutdown();
            report
        };
        let stall = || FaultPlan::new().stall(0, 0, Duration::from_millis(100));

        let quiet = run(OverloadPolicy::Block, FaultPlan::new());
        assert_eq!(quiet.overload, OverloadReport::default(), "a quiet run refuses nothing");

        let blocked = run(OverloadPolicy::Block, stall());
        assert_eq!(blocked.merged.packets, offered, "Block refuses nothing, however long");

        let patient = run(OverloadPolicy::Degrade { patience: Duration::from_millis(2) }, stall());
        assert!(patient.overload.degraded_verdicts > 0, "the wedged lane must time out");
        assert!(
            patient.merged.packets * 4 >= offered,
            "Degrade went indiscriminate: only {} of {offered} packets kept an ML verdict",
            patient.merged.packets
        );

        let degraded = run(OverloadPolicy::Degrade { patience: Duration::ZERO }, stall());
        assert!(degraded.overload.degraded_verdicts > 0, "the wedged lane must overflow");
    });
}

#[test]
fn block_ignores_saturation_and_reports_stay_byte_identical() {
    // The compatibility pin: the default policy (and an explicit
    // `Block`) must produce a report bit-identical to a runtime that
    // never heard of overload control — armed saturation windows and
    // all. The `overload` section is empty, so serialized reports
    // match the pre-overload goldens byte for byte.
    let syn = SynFloodDetector::default_deployment();
    let anomaly = AnomalyDetector::train_default(31, 1_000);
    let trace = kdd_trace(300, 31);

    let clean = builder(&syn, &anomaly, 4).build().run_trace(&trace);
    let blocked = builder(&syn, &anomaly, 4)
        .overload_policy(OverloadPolicy::Block)
        .fault_plan(FaultPlan::new().saturate_shard(0, 0, 10_000).saturate_shard(3, 50, 100))
        .build()
        .run_trace(&trace);

    assert_eq!(blocked, clean, "Block must ignore injected saturation entirely");
    assert!(blocked.overload.is_empty(), "no admission decisions => empty overload section");
    assert_eq!(blocked.merged.packets as usize, trace.packets.len(), "nothing refused");
}

#[test]
fn shed_matches_the_filtered_sequential_oracle_across_geometries() {
    // The acceptance pin: `Degrade` sheds the over-budget packets off
    // the ML path, and the merged report equals the sequential switch
    // fed only the admitted packets, while the accounting equals the
    // analytic window membership — for shard counts that divide
    // nothing in particular. The windows reference global indices, the
    // filter references the geometry's own routing, so the oracle is
    // recomputed per geometry.
    let syn = SynFloodDetector::default_deployment();
    let anomaly = AnomalyDetector::train_default(32, 1_000);
    let trace = kdd_trace(400, 32);
    let n = trace.packets.len() as u64;
    assert!(n > 100, "trace must be long enough to carve windows from");

    for shards in [1usize, 2, 3, 5, 8] {
        // Two windows: one on shard 0 (exists in every geometry), one
        // on shard 1 (dormant at shards == 1 — the oracle agrees).
        let windows = [(0usize, n / 4, n / 4), (1usize, n / 2, n / 8)];
        let (admitted, refused) = split_by_windows(&trace, shards, &windows);
        assert!(!refused.is_empty(), "windows must actually refuse packets at {shards} shards");
        let golden = sequential_report(&syn, &anomaly, &admitted);

        let mut rt = builder(&syn, &anomaly, shards)
            .overload_policy(OverloadPolicy::Degrade { patience: PATIENCE })
            .fault_plan(
                windows.iter().fold(FaultPlan::new(), |p, &(s, f, l)| p.saturate_shard(s, f, l)),
            )
            .build();
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged, golden,
            "merged diverges from the filtered oracle at shards={shards}"
        );
        assert_eq!(report.overload.degraded_verdicts, refused.len() as u64);
        assert_conserved(&report, trace.packets.len());

        // Per-shard accounting: one entry per shard, each the analytic
        // count of refused packets homed there.
        assert_eq!(report.overload.per_shard.len(), shards);
        for shard in 0..shards {
            let expected =
                refused.iter().filter(|tp| home_shard(tp, shards) == shard).count() as u64;
            assert_eq!(
                report.overload.per_shard[shard], expected,
                "per-shard count off at shard {shard}/{shards}"
            );
        }
    }
}

#[test]
fn degrade_issues_line_rate_defaults_and_counts_ground_truth() {
    // Paper fidelity: the line-rate default is Forward — overload never
    // turns the switch into a firewall — and degraded packets leave no
    // register residue, so the merged report still equals the filtered
    // oracle. `degraded_anomalous` counts what slipped past the ML path
    // while the fleet rode out the episode.
    assert_eq!(Verdict::line_rate_default(), Verdict::Forward);

    let syn = SynFloodDetector::default_deployment();
    let anomaly = AnomalyDetector::train_default(33, 1_000);
    let trace = kdd_trace(350, 33);
    let n = trace.packets.len() as u64;

    for shards in [2usize, 3, 5, 8] {
        let windows = [(0usize, 0u64, n / 3), (1usize, n / 2, n / 6)];
        let (admitted, refused) = split_by_windows(&trace, shards, &windows);
        assert!(!refused.is_empty());
        let golden = sequential_report(&syn, &anomaly, &admitted);
        let anomalous_refused = refused.iter().filter(|tp| tp.anomalous).count() as u64;

        let mut rt = builder(&syn, &anomaly, shards)
            .overload_policy(OverloadPolicy::Degrade { patience: PATIENCE })
            .fault_plan(
                windows.iter().fold(FaultPlan::new(), |p, &(s, f, l)| p.saturate_shard(s, f, l)),
            )
            .build();
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged, golden,
            "degraded packets must leave no register residue (shards={shards})"
        );
        assert_eq!(report.overload.degraded_verdicts, refused.len() as u64);
        assert_eq!(report.overload.degraded_anomalous, anomalous_refused);
        assert_conserved(&report, trace.packets.len());
    }
}

#[test]
fn feed_slicing_never_changes_the_admission_decision() {
    // Saturation keys on *global* stream index, so a resident service
    // fed the stream in ragged slices must degrade the identical set —
    // and split drains must partition the accounting without losing a
    // packet.
    let syn = SynFloodDetector::default_deployment();
    let anomaly = AnomalyDetector::train_default(34, 1_000);
    let trace = kdd_trace(300, 34);
    let n = trace.packets.len();
    let windows = [(0usize, (n as u64) / 5, (n as u64) / 3)];
    let plan = || FaultPlan::new().saturate_shard(windows[0].0, windows[0].1, windows[0].2);
    let policy = OverloadPolicy::Degrade { patience: PATIENCE };

    let make = || builder(&syn, &anomaly, 3).overload_policy(policy).fault_plan(plan()).build();

    // One feed, one drain: the reference.
    let mut whole = make();
    whole.feed(&trace.packets);
    let reference = whole.drain();
    assert!(reference.overload.degraded_verdicts > 0, "the window must be live");
    whole.shutdown();

    // Ragged feeds (37 is aligned with nothing), one drain.
    let mut sliced = make();
    for chunk in trace.packets.chunks(37) {
        sliced.feed(chunk);
    }
    let sliced_report = sliced.drain();
    // Batch counts legitimately differ (each feed flushes its partial
    // batches); everything semantic — the merged report, the per-shard
    // traffic, the admission accounting — must not.
    assert_eq!(sliced_report.merged, reference.merged, "feed slicing changed the merged report");
    assert_eq!(sliced_report.overload, reference.overload, "feed slicing changed the degraded set");
    for (s, r) in sliced_report.shards.iter().zip(&reference.shards) {
        assert_eq!(s.packets, r.packets, "feed slicing changed shard {} traffic", s.shard);
        assert_eq!(s.report, r.report, "feed slicing changed shard {} semantics", s.shard);
    }
    sliced.shutdown();

    // Two feed/drain cycles: the accounting partitions exactly.
    let mut cycled = make();
    let (first, second) = trace.packets.split_at(n / 2);
    cycled.feed(first);
    let r1 = cycled.drain();
    cycled.feed(second);
    let r2 = cycled.drain();
    assert_eq!(
        r1.overload.degraded_verdicts + r2.overload.degraded_verdicts,
        reference.overload.degraded_verdicts,
        "split drains must partition the degraded count"
    );
    // The merged switch report is cumulative across drains (replica
    // state persists), so the second drain must land exactly where the
    // single-drain run did; the per-drain shard stats partition.
    assert_eq!(r2.merged, reference.merged, "the cycled stream must converge to the reference");
    let per_drain_admitted: u64 = r1.shards.iter().chain(&r2.shards).map(|s| s.packets).sum();
    assert_eq!(
        per_drain_admitted, reference.merged.packets,
        "split drains must partition the admitted count"
    );
    assert_eq!(cycled.stream_position(), n as u64, "every offered packet holds its index");
    cycled.shutdown();
}

#[test]
fn degraded_packets_leave_no_residue_for_later_feeds() {
    // A fleet that degraded through an episode and a fleet that was
    // handed the filtered stream must be indistinguishable afterwards:
    // flow registers persist across drains, so a later feed exposes any
    // residue a bypassed packet left behind.
    let syn = SynFloodDetector::default_deployment();
    let anomaly = AnomalyDetector::train_default(35, 1_000);
    let trace = kdd_trace(250, 35);
    let validation = kdd_trace(200, 36);
    let n = trace.packets.len() as u64;
    let windows = [(1usize, n / 4, n / 2)];
    let shards = 4usize;
    let (admitted, refused) = split_by_windows(&trace, shards, &windows);
    assert!(!refused.is_empty());

    let mut subject = builder(&syn, &anomaly, shards)
        .overload_policy(OverloadPolicy::Degrade { patience: PATIENCE })
        .fault_plan(FaultPlan::new().saturate_shard(windows[0].0, windows[0].1, windows[0].2))
        .build();
    let mut twin = builder(&syn, &anomaly, shards).build();

    subject.feed(&trace.packets);
    let episode = subject.drain();
    assert_eq!(episode.overload.degraded_verdicts, refused.len() as u64);
    twin.feed(&admitted);
    let twin_episode = twin.drain();
    assert_eq!(episode.merged, twin_episode.merged);

    // The saturation window is far behind both streams now; the next
    // feed must observe identical register state.
    subject.feed(&validation.packets);
    twin.feed(&validation.packets);
    let after = subject.drain();
    let control = twin.drain();
    assert_eq!(after.merged, control.merged, "a degraded episode left register residue");
    assert!(after.overload.is_empty(), "the episode's accounting was already drained");
    subject.shutdown();
    twin.shutdown();
}

#[test]
fn a_shard_that_degrades_and_then_panics_recovers_with_its_counters_intact() {
    // The accounting lives on the ingest side, not in the worker: the
    // degraded counters must survive the degrading shard's own crash and
    // supervised respawn, and the post-recovery fleet keeps admitting.
    let syn = SynFloodDetector::default_deployment();
    let anomaly = AnomalyDetector::train_default(37, 1_000);
    let trace = kdd_trace(300, 37);
    let shards = 4usize;
    let victim = 2usize;
    let assigned: Vec<u64> = trace
        .packets
        .iter()
        .enumerate()
        .filter(|(_, tp)| home_shard(tp, shards) == victim)
        .map(|(i, _)| i as u64)
        .collect();
    assert!(assigned.len() >= 9, "seed must give the victim shard real traffic");

    // Degrade the victim's first third, then panic it on a later packet
    // that *was* admitted — the engine only ever sees admitted traffic,
    // so the trigger index must survive admission.
    let degrade_upto = assigned[assigned.len() / 3 - 1] + 1; // covers exactly the first third
    let fire_at = assigned[2 * assigned.len() / 3];
    assert!(fire_at >= degrade_upto, "the panic trigger must be an admitted packet");
    let expected_degraded = (assigned.len() / 3) as u64;

    let mut rt = builder(&syn, &anomaly, shards)
        .overload_policy(OverloadPolicy::Degrade { patience: PATIENCE })
        .fault_plan(
            FaultPlan::new().saturate_shard(victim, 0, degrade_upto).engine_panic(victim, fire_at),
        )
        .spare_replicas(1)
        .build();

    rt.feed(&trace.packets);
    let report = rt.drain();

    assert_eq!(report.faults.worker_restarts, 1, "the victim was respawned from the spare");
    assert_eq!(report.faults.records.len(), 1);
    assert_eq!(report.faults.records[0].shard, victim);
    assert_eq!(report.faults.records[0].kind, FaultRecordKind::WorkerPanic);

    // The degraded accounting survived the crash bit-exactly.
    assert_eq!(report.overload.degraded_verdicts, expected_degraded);
    assert_eq!(report.overload.per_shard[victim], expected_degraded);
    for (shard, &count) in report.overload.per_shard.iter().enumerate() {
        if shard != victim {
            assert_eq!(count, 0, "only the victim's window degraded");
        }
    }

    // And the recovered fleet still runs the policy: a fresh feed with
    // a live window degrades deterministically on the respawned worker.
    let followup = kdd_trace(120, 38);
    let base = rt.stream_position();
    rt.feed(&followup.packets);
    let after = rt.drain();
    let expected_followup: u64 = followup
        .packets
        .iter()
        .enumerate()
        .filter(|(i, tp)| {
            home_shard(tp, shards) == victim && {
                let index = base + *i as u64;
                index < degrade_upto // the original window is far behind the stream now
            }
        })
        .count() as u64;
    assert_eq!(expected_followup, 0, "the window must be exhausted after recovery");
    assert_eq!(after.overload.degraded_verdicts, 0);
    assert_eq!(after.faults.worker_restarts, 0, "the respawned worker holds");
    assert!(after.merged.packets > 0, "the fleet keeps serving after recovery");
    rt.shutdown();
}
