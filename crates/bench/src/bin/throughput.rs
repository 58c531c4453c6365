//! Throughput of the sharded runtime: packets/sec at 1/2/4/8 shards on
//! the default KDD trace, with a determinism cross-check against the
//! sequential switch on every configuration.
//!
//! Two rates are reported per shard count:
//!
//! - **simulator wall-clock** — how fast *this process* pushes packets
//!   through the cycle-level simulation. Scales with shard count only
//!   when the host actually has idle cores (CI containers often pin a
//!   single CPU, where the expected parallel speedup is ~1×).
//! - **modeled device** — the architecture's packet rate: every shard
//!   is an independent Taurus pipeline sustaining `clock / II`
//!   packets/sec, so the device drains the trace when its most loaded
//!   shard finishes. This is the paper-relevant quantity and scales
//!   linearly up to the flow-hash balance factor.
//!
//! A closing table prices the overload policies: the feed-phase rate
//! (the ingest thread's experience — what a policy protects) of a
//! 2-shard threshold fleet whose shard 0 stalls at its first packet
//! behind a two-batch lane. Print only; the count-based guarantees are
//! `crates/runtime/tests/overload.rs`.
//!
//! Run with: `cargo run --release -p taurus-bench --bin throughput`
//! (append `-- --smoke` for the small CI configuration, which also
//! hard-asserts determinism and the ≥2× modeled scaling at 4 shards).

use std::time::{Duration, Instant};

use taurus_bench::{f, print_table, save_json};
use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{EngineBackend, SwitchBuilder};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_runtime::{FaultPlan, OverloadPolicy, RuntimeBuilder};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (train_n, trace_n) = if smoke { (800, 600) } else { (2_000, 8_000) };

    println!("training the anomaly-detection DNN ({train_n} records)…");
    let detector = AnomalyDetector::train_default(3, train_n);
    let records = KddGenerator::new(42).take(trace_n);
    let trace = PacketTrace::expand(records, &TraceConfig::default());
    println!(
        "default KDD trace: {} packets, {:.1}% anomalous, {:.2} Gb/s offered",
        trace.packets.len(),
        trace.anomalous_fraction() * 100.0,
        trace.rate_gbps()
    );

    // Sequential golden pass: the reference both for wall-clock speedup
    // and for the exactness cross-check.
    let mut sequential = SwitchBuilder::new().register(&detector).build();
    let t0 = Instant::now();
    for tp in &trace.packets {
        sequential.process_trace_packet(tp);
    }
    let seq_secs = t0.elapsed().as_secs_f64();
    let golden = sequential.report();
    let seq_pps = trace.packets.len() as f64 / seq_secs;
    println!(
        "sequential switch: {:.0} pkts/s wall-clock ({} drops, {} ML packets)",
        seq_pps, golden.dropped, golden.ml_packets
    );

    // One pipeline sustains clock/II packets per second (II = 1 for the
    // compiled DNN: line rate at the default 1 GHz grid clock).
    let per_shard_pps = 1e9 / detector.program.timing.initiation_interval as f64;

    let mut rows = Vec::new();
    let mut wall_pps = Vec::new();
    let mut modeled_pps = Vec::new();
    let mut last_report = None;
    for shards in SHARD_COUNTS {
        let mut rt =
            RuntimeBuilder::new().shards(shards).batch_size(256).register(&detector).build();
        let t0 = Instant::now();
        let report = rt.run_trace(&trace);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            report.merged, golden,
            "sharded runtime diverged from the sequential switch at {shards} shards"
        );
        let wall = trace.packets.len() as f64 / secs;
        let modeled = report.modeled_pps(per_shard_pps);
        rows.push(vec![
            shards.to_string(),
            f(wall, 0),
            f(wall / seq_pps, 2),
            format!("{:.3e}", modeled),
            f(report.balance(), 3),
            "ok".to_string(),
        ]);
        wall_pps.push(wall);
        modeled_pps.push(modeled);
        last_report = Some(report);
    }
    print_table(
        "Sharded runtime throughput on the default KDD trace (determinism-checked)",
        &["Shards", "wall pkts/s", "vs seq", "modeled pkts/s", "balance", "exact"],
        &rows,
    );

    let wall_speedup_4 = wall_pps[2] / wall_pps[0];
    let modeled_speedup_4 = modeled_pps[2] / modeled_pps[0];
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "\nspeedup at 4 shards vs 1 shard: wall-clock {wall_speedup_4:.2}x \
         (host has {cores} core(s)), modeled device {modeled_speedup_4:.2}x"
    );
    println!(
        "modeled device rate at 4 shards: {:.2} Gpps — {:.2}x line rate per pipeline",
        modeled_pps[2] / 1e9,
        modeled_pps[2] / per_shard_pps
    );

    if let Some(report) = last_report {
        save_json("throughput_shards8", &report);
    }

    // The resident streaming service: same 4-shard geometry, but the
    // engine workers are spawned once and the trace arrives as eight
    // push-style feeds. No per-run thread spawns, batch arenas recycled
    // across feeds — and still bit-identical to the sequential switch.
    let mut service = RuntimeBuilder::new().shards(4).batch_size(256).register(&detector).build();
    service.feed(&trace.packets); // warm: provisions arenas + flow state
    service.drain();
    service.reset();
    let chunk = trace.packets.len().div_ceil(8).max(1);
    let t0 = Instant::now();
    for part in trace.packets.chunks(chunk) {
        service.feed(part);
    }
    let streamed = service.drain();
    let stream_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        streamed.merged, golden,
        "chunked streaming feeds diverged from the sequential switch"
    );
    println!(
        "\nstreaming service (4 shards, resident workers, 8 feeds): {:.0} pkts/s wall-clock",
        trace.packets.len() as f64 / stream_secs
    );
    let _ = service.shutdown();

    // Overload policies against an oversubscribed fleet. No warm-up:
    // the stall fires once per runtime, so all three runs are equally
    // cold. `Degrade` with zero patience is line-rate-first and waits
    // for nothing.
    let syn = SynFloodDetector::default_deployment();
    let stall = Duration::from_millis(if smoke { 100 } else { 250 });
    let offered = trace.packets.len() as f64;
    let overloaded = |policy: OverloadPolicy, stalled: bool| {
        let plan = if stalled { FaultPlan::new().stall(0, 0, stall) } else { FaultPlan::new() };
        let mut rt = RuntimeBuilder::new()
            .shards(2)
            .batch_size(64)
            .queue_depth(2)
            .overload_policy(policy)
            .fault_plan(plan)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        let t0 = Instant::now();
        rt.feed(&trace.packets);
        let feed_pps = offered / t0.elapsed().as_secs_f64();
        (f(feed_pps, 0), rt.shutdown())
    };
    let (quiet_pps, _) = overloaded(OverloadPolicy::Block, false);
    let (block_pps, _) = overloaded(OverloadPolicy::Block, true);
    let (degrade_pps, degraded) =
        overloaded(OverloadPolicy::Degrade { patience: Duration::ZERO }, true);
    print_table(
        "Overload policies (threshold roster, 2 shards, shard 0 stalled, feed-phase wall clock)",
        &["policy", "feed pkts/s", "note"],
        &[
            vec!["quiet (no stall)".into(), quiet_pps, String::new()],
            vec!["block".into(), block_pps, "rides out the stall".into()],
            vec![
                "degrade".into(),
                degrade_pps,
                format!(
                    "line-rate defaults {:.2}",
                    degraded.overload.degraded_verdicts as f64 / offered
                ),
            ],
        ],
    );

    // The architectural guarantee is load-balance-limited linear scaling;
    // with thousands of flows the hash balance makes 4 shards >=2x one.
    assert!(
        modeled_speedup_4 >= 2.0,
        "modeled throughput must scale >=2x at 4 shards (got {modeled_speedup_4:.2}x)"
    );
    // Wall-clock scaling needs idle physical cores, which no benchmark
    // can assume (CI pins single CPUs; dev boxes run other work) —
    // flag the regression, don't abort the measurement over host load.
    if cores >= 4 && wall_speedup_4 < 1.5 {
        println!(
            "warning: wall-clock speedup only {wall_speedup_4:.2}x at 4 shards on a \
             {cores}-core host — expected >=1.5x on idle hardware"
        );
    }
    println!("determinism: merged reports matched the sequential switch at every shard count");
}
