//! Hot-path packet rate: wall-clock pkts/s of the per-packet path, the
//! number the zero-allocation/vectorization refactors are tracked
//! against.
//!
//! Two rosters are measured, spanning both engine families:
//!
//! - **cgra** — the anomaly-detection DNN on the cycle-level CGRA
//!   simulator (the expensive paper path: parse → registers → MATs →
//!   formatter → compiled MapReduce program → verdict MATs);
//! - **threshold** — the SYN-flood linear scorer on the heuristic
//!   backend (the cheap path, where per-packet overheads outside the
//!   engine dominate; its ingest batches are sized larger so the SPSC
//!   channel crossing amortizes over more packets and the cheap engine
//!   is not channel-bound).
//!
//! A third measurement, **threshold-keyed**, re-runs the cheap roster
//! with the set-associative keyed flow table (1024 buckets × 4 ways):
//! it prices the keyed access (probe + restamp + promotion + the
//! ingest-side directory) against the direct-mapped path on the roster
//! where table cost is most visible, reports the table's own
//! statistics (occupancy, eviction split, probe histogram), and gates
//! against the keyed path regressing below a fraction of the
//! direct-mapped rate (`TAURUS_HOTPATH_KEYED_MIN_RATIO`).
//!
//! Each roster reports the sequential switch rate (via the verdict-only
//! [`TaurusSwitch::process_trace_verdict`] entry point — the loop a
//! deployment that only needs forwarding decisions would run) plus the
//! sharded runtime's wall-clock rate at 1/2/4/8 shards, with the merged
//! report cross-checked against the sequential switch on every
//! configuration — a throughput number that silently diverged from the
//! architecture's semantics would be meaningless.
//!
//! A **per-stage breakdown** of the CGRA roster is also measured —
//! ingest split the way the parallel pipeline splits it (**parse**: the
//! order-free wire form + flow hash + candidate filter that fans out
//! across parse workers; **merge**: the order-bound first-seen
//! resolution + cross-flow windows; **steer**: the staging-arena copy
//! that routes a finished packet onto its shard's lane), feature
//! formatting, the MapReduce engine alone, everything else
//! (parse/registers/MATs), and the single-shard channel overhead — so
//! the next perf PR can see where the remaining nanoseconds go without
//! re-deriving the harness. parse + merge decompose the classic inline
//! ingest cost; steer is pipeline-side work that the sequential switch
//! never does (it is part of the channel overhead, not the sequential
//! total).
//!
//! An **update-interference** measurement prices the control plane
//! against the data plane (§5.2.3: Taurus installs models while the
//! switch serves): the same trace through a 2-shard streaming service,
//! once quiet and once with a live `install_update` barrier between
//! every chunk. Same-cutoff retunes keep the two runs verdict-identical
//! (cross-checked), so the delta is pure control-plane cost; the gate
//! (`TAURUS_HOTPATH_UPDATE_MIN_RATIO`, runs in `--smoke` too since it
//! is a same-run relative floor) catches an install path that starts
//! stalling the stream.
//!
//! An **overload** measurement prices the graceful-degradation
//! policies against an oversubscribed fleet: the same trace through a
//! 2-shard streaming threshold roster with shallow lanes and shard 0
//! stalled at its first packet, once per policy. Only the feed phase is
//! timed (the ingest thread's experience — what a policy protects).
//! Two gates: `Shed` goodput (count-based, runs in `--smoke` too;
//! `TAURUS_HOTPATH_SHED_MIN_GOODPUT`) and the `Degrade` feed rate
//! staying ≥0.9× the quiet rate (full mode;
//! `TAURUS_HOTPATH_DEGRADE_MIN_RATIO`) — the paper-faithful mode keeps
//! line rate while a shard is wedged, where `Block` visibly collapses.
//!
//! `results/BENCH_hotpath.json` is the tracked trajectory artifact: an
//! **append-only array** with one entry per recorded run (workload,
//! packets, per-roster rates, breakdown, and a run label from
//! `TAURUS_RUN_LABEL`). Regenerate-and-append with `TAURUS_REGEN_GOLDEN=1
//! cargo run --release -p taurus-bench --bin hotpath`. The `baseline`
//! constants are the pre-PR-4 tree's measurements (same machine class,
//! same workload); the tentpole gates assert ≥3× over that baseline and
//! ≥1.1× over the PR-4 figure — below the recorded 1.34× so single-run
//! wall-clock noise cannot flake the gate (`TAURUS_HOTPATH_PR4_PPS`
//! retargets it when the hardware class changes). `--smoke` runs a small
//! configuration for CI (exactness asserts only; no file writes, no
//! speedup assert — CI containers are too noisy to gate on wall clock).
//!
//! Run with: `cargo run --release -p taurus-bench --bin hotpath`

use std::time::{Duration, Instant};

use taurus_bench::json::Json;
use taurus_bench::{f, print_table};
use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::ingest::{to_packet_into, ObsBuilder};
use taurus_core::{CgraEngine, EngineBackend, SwitchBuilder, TaurusApp, TaurusSwitch};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_pisa::registers::FlowFeatures;
use taurus_pisa::{CrossFlowWindows, FlowTableKind, InferenceEngine, PipelineConfig};
use taurus_runtime::{
    parse_packet, resolve_and_count, FaultPlan, OverloadPolicy, ParsedSlot, PreparedPacket,
    RuntimeBuilder,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Single-shard CGRA-roster pkts/s measured on the pre-PR-4 tree
/// (commit 104ffd3: HashMap lanes, per-consumption copies, per-packet
/// formatter/feature allocations) with this binary's full workload on
/// the same machine class that produced `results/BENCH_hotpath.json`.
/// Override with `TAURUS_HOTPATH_BASELINE_PPS` when re-baselining on
/// different hardware.
const PRE_REFACTOR_CGRA_SEQ_PPS: f64 = 427_484.0;

/// Pre-PR-4 single-shard threshold-roster pkts/s (same provenance).
const PRE_REFACTOR_THRESHOLD_SEQ_PPS: f64 = 6_845_583.0;

/// PR 4's recorded single-shard CGRA-roster rate (the first trajectory
/// entry): what this tree's vectorized kernels + zero-copy ingest are
/// gated ≥1.1× against (recorded: 1.34×). Override with
/// `TAURUS_HOTPATH_PR4_PPS` when the hardware class changes.
const PR4_CGRA_SEQ_PPS: f64 = 1_813_445.0;

struct RosterResult {
    name: &'static str,
    packets: u64,
    seq_pps: f64,
    /// `(shards, wall pkts/s)`, exactness-checked against `seq_report`.
    shard_pps: Vec<(usize, f64)>,
}

/// Per-stage timing of the CGRA roster's per-packet path, ns/packet.
/// Stages are measured by running each in isolation over the same
/// workload; `other_ns` is the remainder of the sequential total
/// (parse, flow registers, MATs, verdict combination), and `channel_ns`
/// is the single-shard runtime's cost over the sequential loop
/// (batching + one SPSC crossing + worker hand-off).
struct StageBreakdown {
    /// Classic inline ingest (obs + windows + wire form) — kept whole
    /// because `other_ns` is the sequential total minus this.
    ingest_ns: f64,
    /// Order-free half of ingest: wire obs + wire packet + flow-start
    /// flags + per-epoch candidate filter + shard routing (what one
    /// parse worker does per packet).
    parse_ns: f64,
    /// Order-bound half: global first-seen resolution + the one shared
    /// cross-flow window fold (the merge stage's per-packet work).
    merge_ns: f64,
    /// The staging-arena copy that routes a merged packet onto its
    /// shard's lane (pipeline-side; charged to channel overhead, not
    /// the sequential total).
    steer_ns: f64,
    formatter_ns: f64,
    engine_ns: f64,
    other_ns: f64,
    seq_total_ns: f64,
    channel_ns: f64,
}

fn measure_roster(
    name: &'static str,
    trace: &PacketTrace,
    batch_size: usize,
    build_switch: impl Fn() -> TaurusSwitch,
    build_runtime: impl Fn(usize, usize) -> taurus_runtime::StreamingRuntime,
) -> RosterResult {
    // Sequential reference: one warm-up pass (fills flow registers,
    // grows every reusable buffer to steady state), then a timed pass
    // over the same packets through the verdict-only entry point.
    let mut switch = build_switch();
    for tp in &trace.packets {
        switch.process_trace_verdict(tp);
    }
    let golden = switch.report();
    switch.reset();
    let t0 = Instant::now();
    for tp in &trace.packets {
        switch.process_trace_verdict(tp);
    }
    let seq_secs = t0.elapsed().as_secs_f64();
    let seq_pps = trace.packets.len() as f64 / seq_secs;
    assert_eq!(switch.report(), golden, "warm-up and timed passes diverged");

    let mut shard_pps = Vec::new();
    for shards in SHARD_COUNTS {
        let mut rt = build_runtime(shards, batch_size);
        // Warm-up + timed, mirroring the sequential methodology (the
        // warm-up also provisions the recycling batch pool, so the
        // timed run allocates nothing per batch).
        rt.run_trace(trace);
        rt.reset();
        let t0 = Instant::now();
        let report = rt.run_trace(trace);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            report.merged, golden,
            "{name}: sharded runtime diverged from the sequential switch at {shards} shards"
        );
        shard_pps.push((shards, trace.packets.len() as f64 / secs));
    }
    RosterResult { name, packets: trace.packets.len() as u64, seq_pps, shard_pps }
}

/// Times `iters` calls of `f` and returns ns/call.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Measures the CGRA roster's per-stage costs on the same trace the
/// roster measurement used. `seq_pps`/`shard1_pps` come from that
/// measurement so every number in the breakdown describes one workload.
fn measure_breakdown(
    detector: &AnomalyDetector,
    trace: &PacketTrace,
    seq_pps: f64,
    shard1_pps: f64,
) -> StageBreakdown {
    let n = trace.packets.len();

    // Ingest stage: exactly what the sharded runtime's ingest thread
    // does per packet (observation, shared windows, wire form), minus
    // the channels.
    let config = PipelineConfig::default();
    let mut ob = ObsBuilder::new();
    let mut windows = CrossFlowWindows::new(config.flow_slots, config.window_ns);
    let mut pkt = taurus_pisa::Packet::tcp(0, 0, 0, 0, 0, 0);
    for tp in &trace.packets {
        let obs = ob.observe(tp);
        windows.observe(&obs);
    }
    let ingest_ns = ns_per_call(n, |i| {
        let tp = &trace.packets[i];
        let obs = ob.observe(tp);
        std::hint::black_box(windows.observe(&obs));
        to_packet_into(tp, &mut pkt);
        std::hint::black_box(&pkt);
    });

    // The pipeline's decomposition of the same work. Parse: everything
    // a parse worker does per packet (wire forms, flags, the per-epoch
    // candidate set, shard routing) at the default epoch length.
    let epoch_len = 512usize;
    let mut epoch_seen: std::collections::HashSet<u32> =
        std::collections::HashSet::with_capacity(epoch_len);
    let mut slot = ParsedSlot::default();
    let parse_ns = ns_per_call(n, |i| {
        if i % epoch_len == 0 {
            epoch_seen.clear();
        }
        let tp = &trace.packets[i];
        let candidate = epoch_seen.insert(tp.conn_id);
        parse_packet(tp, &mut slot, config.flow_slots, 8, candidate);
        std::hint::black_box(&slot);
    });

    // Merge: resolve_and_count over pre-parsed slots, in global order —
    // the only inherently sequential residue of ingest.
    epoch_seen.clear();
    let mut slots: Vec<ParsedSlot> = trace
        .packets
        .iter()
        .enumerate()
        .map(|(i, tp)| {
            if i % epoch_len == 0 {
                epoch_seen.clear();
            }
            let mut s = ParsedSlot::default();
            parse_packet(tp, &mut s, config.flow_slots, 8, epoch_seen.insert(tp.conn_id));
            s
        })
        .collect();
    let mut seen = ObsBuilder::new();
    let mut merge_windows = CrossFlowWindows::new(config.flow_slots, config.window_ns);
    for s in &mut slots {
        resolve_and_count(s, &mut seen, &mut merge_windows, None); // warm-up
    }
    seen.reset();
    merge_windows.clear();
    let merge_ns = ns_per_call(n, |i| {
        resolve_and_count(&mut slots[i], &mut seen, &mut merge_windows, None);
        std::hint::black_box(&slots[i]);
    });

    // Steer: the in-place staging-arena copy that routes a merged
    // packet onto its shard's lane (the flush itself is per batch, not
    // per packet).
    let mut staging = vec![PreparedPacket::default(); 256];
    let steer_ns = ns_per_call(n, |i| {
        let j = i % staging.len();
        staging[j].clone_from(&slots[i % slots.len()].prepared);
        std::hint::black_box(&staging[j]);
    });

    // Feature sample for the formatter/engine stages: real features
    // captured from the full pipeline, so the stage loops see the same
    // value distribution the roster measurement did.
    let mut sample_switch = TaurusSwitch::new(detector);
    let features: Vec<FlowFeatures> = trace
        .packets
        .iter()
        .take(2048)
        .map(|tp| sample_switch.process_trace_packet(tp).per_app[0].features)
        .collect();

    let mut formatter = detector.formatter();
    let mut codes: Vec<i32> = Vec::with_capacity(detector.feature_count());
    let formatter_ns = ns_per_call(n, |i| {
        codes.clear();
        formatter(&features[i % features.len()], &mut codes);
        std::hint::black_box(&codes);
    });

    // The MapReduce engine alone: the compiled ExecPlan on formatted
    // codes (the per-packet inference call, buffers resident).
    let mut engine = CgraEngine::new(std::sync::Arc::clone(&detector.program));
    let code_samples: Vec<Vec<i32>> = features
        .iter()
        .map(|f| {
            let mut c = Vec::with_capacity(detector.feature_count());
            formatter(f, &mut c);
            c
        })
        .collect();
    let engine_ns = ns_per_call(n, |i| {
        std::hint::black_box(engine.infer(&code_samples[i % code_samples.len()]));
    });

    let seq_total_ns = 1e9 / seq_pps;
    let other_ns = (seq_total_ns - ingest_ns - formatter_ns - engine_ns).max(0.0);
    let channel_ns = (1e9 / shard1_pps - seq_total_ns).max(0.0);
    StageBreakdown {
        ingest_ns,
        parse_ns,
        merge_ns,
        steer_ns,
        formatter_ns,
        engine_ns,
        other_ns,
        seq_total_ns,
        channel_ns,
    }
}

struct UpdateInterference {
    installs: u64,
    quiet_pps: f64,
    busy_pps: f64,
    installs_per_sec: f64,
    /// busy rate / quiet rate — 1.0 means installs are free.
    retention: f64,
}

/// Prices live model installs against a sustained packet stream: the
/// same trace through a 2-shard streaming threshold roster, once with
/// no control traffic and once with an `install_update` barrier
/// between every chunk. The retunes keep the incumbent cutoff, so the
/// two runs must produce the same merged report bit for bit — the
/// wall-clock delta is pure control-plane interference.
fn measure_update_interference(
    syn: &SynFloodDetector,
    trace: &PacketTrace,
    installs: usize,
) -> UpdateInterference {
    let build = || {
        RuntimeBuilder::new()
            .shards(2)
            .batch_size(1024)
            .register_on(syn, EngineBackend::Threshold)
            .build()
    };
    let chunk = trace.packets.len().div_ceil(installs + 1).max(1);

    let mut quiet = build();
    quiet.run_trace(trace); // warm-up: registers, batch pool
    quiet.reset();
    let t0 = Instant::now();
    for c in trace.packets.chunks(chunk) {
        quiet.feed(c);
    }
    let quiet_report = quiet.drain();
    let quiet_secs = t0.elapsed().as_secs_f64();

    let mut busy = build();
    busy.run_trace(trace);
    busy.reset();
    let t0 = Instant::now();
    let mut version = 0u64;
    for c in trace.packets.chunks(chunk) {
        busy.feed(c);
        if version < installs as u64 {
            version += 1;
            // Same cutoff as the incumbent: a version bump with
            // identical verdict behavior.
            busy.install_update(&syn.retune(40, version, EngineBackend::Threshold))
                .expect("fresh version");
        }
    }
    let busy_report = busy.drain();
    let busy_secs = t0.elapsed().as_secs_f64();

    assert_eq!(
        busy_report.merged, quiet_report.merged,
        "same-cutoff retunes must not change a single verdict"
    );
    let n = trace.packets.len() as f64;
    UpdateInterference {
        installs: version,
        quiet_pps: n / quiet_secs,
        busy_pps: n / busy_secs,
        installs_per_sec: version as f64 / busy_secs,
        retention: quiet_secs / busy_secs,
    }
}

struct OverloadScenario {
    offered: u64,
    /// Feed-phase pkts/s with no fault and no policy: the reference.
    quiet_pps: f64,
    /// Feed-phase pkts/s under `Block` while one shard stalls: the
    /// historical behavior — ingest rides out the whole stall.
    block_pps: f64,
    shed_pps: f64,
    /// Fraction of offered packets that still received an ML verdict
    /// under `Shed` (count-based, so it gates in smoke mode too).
    shed_goodput: f64,
    degrade_pps: f64,
    /// Fraction of offered packets handed the line-rate default under
    /// `Degrade`.
    degraded_fraction: f64,
}

/// Prices the overload policies against an oversubscribed fleet: the
/// same trace through a 2-shard streaming threshold roster with shallow
/// lanes (`queue_depth(2)`), shard 0 stalled at its first packet. Only
/// the *feed phase* is timed — that is the ingest thread's experience,
/// the thing a policy exists to protect (the drain always waits out the
/// stall's remainder). `Block` eats the stall. The two non-blocking
/// policies run with the patience their contract implies: `Shed` is
/// goodput-first, so it waits a small bounded patience before dropping
/// a staged batch (a healthy engine drains one in microseconds; only
/// the wedged lane times out), while `Degrade` is line-rate-first and
/// waits for nothing — one send attempt, then the line-rate default.
/// Every run asserts conservation: admitted + refused == offered.
fn measure_overload(
    syn: &SynFloodDetector,
    trace: &PacketTrace,
    stall: Duration,
) -> OverloadScenario {
    let offered = trace.packets.len() as u64;
    // No warm-up pass: the stall fault fires once per runtime, so a
    // warm-up would consume it. All four runs are equally cold, and the
    // gates are ratios between them.
    let run = |policy: OverloadPolicy, plan: FaultPlan| {
        let mut rt = RuntimeBuilder::new()
            .shards(2)
            .batch_size(64)
            .queue_depth(2)
            .overload_policy(policy)
            .fault_plan(plan)
            .register_on(syn, EngineBackend::Threshold)
            .build();
        let t0 = Instant::now();
        rt.feed(&trace.packets);
        let feed_secs = t0.elapsed().as_secs_f64();
        let report = rt.drain();
        assert_eq!(
            report.merged.packets + report.overload.refused(),
            offered,
            "conservation: every offered packet is admitted or refused"
        );
        rt.shutdown();
        (offered as f64 / feed_secs, report)
    };

    let (quiet_pps, quiet) = run(OverloadPolicy::Block, FaultPlan::new());
    assert!(quiet.overload.is_empty(), "a quiet Block run reports no overload section");
    let stall_plan = || FaultPlan::new().stall(0, 0, stall);
    let (block_pps, blocked) = run(OverloadPolicy::Block, stall_plan());
    assert_eq!(blocked.merged.packets, offered, "Block refuses nothing, however long it waits");
    let (shed_pps, shed) =
        run(OverloadPolicy::Shed { patience: Duration::from_millis(2) }, stall_plan());
    let (degrade_pps, degraded) =
        run(OverloadPolicy::Degrade { patience: Duration::ZERO }, stall_plan());
    assert_eq!(degraded.overload.shed_packets, 0, "Degrade never sheds");

    OverloadScenario {
        offered,
        quiet_pps,
        block_pps,
        shed_pps,
        shed_goodput: shed.merged.packets as f64 / offered as f64,
        degrade_pps,
        degraded_fraction: degraded.overload.degraded_verdicts as f64 / offered as f64,
    }
}

fn roster_json(r: &RosterResult, baseline_pps: f64) -> Json {
    Json::Object(vec![
        ("baseline_seq_pps", Json::Float(baseline_pps)),
        ("seq_pps", Json::Float(r.seq_pps)),
        ("speedup_vs_baseline", Json::Float(r.seq_pps / baseline_pps)),
        (
            "shards",
            Json::Array(
                r.shard_pps
                    .iter()
                    .map(|&(shards, pps)| {
                        Json::Object(vec![
                            ("shards", Json::UInt(shards as u64)),
                            ("wall_pps", Json::Float(pps)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn breakdown_json(b: &StageBreakdown) -> Json {
    Json::Object(vec![
        ("ingest_ns", Json::Float(b.ingest_ns)),
        ("parse_ns", Json::Float(b.parse_ns)),
        ("merge_ns", Json::Float(b.merge_ns)),
        ("steer_ns", Json::Float(b.steer_ns)),
        ("formatter_ns", Json::Float(b.formatter_ns)),
        ("engine_ns", Json::Float(b.engine_ns)),
        ("other_ns", Json::Float(b.other_ns)),
        ("seq_total_ns", Json::Float(b.seq_total_ns)),
        ("channel_ns", Json::Float(b.channel_ns)),
    ])
}

/// Indents every line of a pretty-printed JSON value to array-entry
/// depth.
fn indent_entry(pretty: &str) -> String {
    let mut out = String::new();
    for line in pretty.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out.trim_end().to_string()
}

/// Appends `entry` to the trajectory array in `path`, creating the
/// array on first use. The file is JSON text this binary controls
/// end to end, so the append is a text splice: strip the closing
/// bracket, add a comma and the new entry. Entries are never rewritten
/// — the artifact is the *trajectory*, one entry per recorded run. A
/// legacy single-object snapshot (the pre-trajectory format) is
/// migrated by wrapping it as the array's first entry; anything else
/// unrecognized aborts rather than clobbering recorded history.
fn append_trajectory(path: &std::path::Path, entry: &Json) {
    let rendered = indent_entry(&entry.pretty());
    let text = match std::fs::read_to_string(path) {
        Ok(existing) if existing.trim_start().starts_with('[') => {
            let body = existing.trim_end();
            let body = body.strip_suffix(']').expect("trajectory array ends with ]").trim_end();
            let sep = if body.ends_with('[') { "\n" } else { ",\n" };
            format!("{body}{sep}{rendered}\n]\n")
        }
        Ok(existing) if existing.trim_start().starts_with('{') => {
            // Legacy single-run object: it becomes the first entry.
            format!("[\n{},\n{rendered}\n]\n", indent_entry(existing.trim_end()))
        }
        Ok(existing) => panic!(
            "refusing to overwrite {}: unrecognized content (starts {:?}); move the file aside \
             to start a fresh trajectory",
            path.display(),
            existing.trim_start().chars().next()
        ),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("[\n{rendered}\n]\n"),
        Err(e) => panic!("refusing to overwrite {}: read failed ({e})", path.display()),
    };
    std::fs::write(path, text).expect("write trajectory");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (train_n, trace_n) = if smoke { (600, 400) } else { (2_000, 6_000) };

    println!("training the anomaly-detection DNN ({train_n} records)…");
    let detector = AnomalyDetector::train_default(3, train_n);
    let syn = SynFloodDetector::default_deployment();
    let records = KddGenerator::new(42).take(trace_n);
    let trace = PacketTrace::expand(records, &TraceConfig::default());
    println!("default KDD trace: {} packets", trace.packets.len());

    let cgra = measure_roster(
        "cgra",
        &trace,
        256,
        || SwitchBuilder::new().register(&detector).build(),
        |shards, batch| {
            RuntimeBuilder::new().shards(shards).batch_size(batch).register(&detector).build()
        },
    );
    // The cheap engine drains a 256-packet batch in ~30 µs — channel
    // crossings would dominate. 1024-packet batches keep the SPSC cost
    // per packet sub-nanosecond-ish without hurting latency realism for
    // a throughput benchmark.
    let threshold = measure_roster(
        "threshold",
        &trace,
        1024,
        || SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build(),
        |shards, batch| {
            RuntimeBuilder::new()
                .shards(shards)
                .batch_size(batch)
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        },
    );
    // The keyed set-associative table, priced on the cheap roster where
    // table cost is the biggest fraction of the per-packet path. The
    // same measure_roster harness cross-checks keyed-sharded against
    // keyed-sequential at every shard count.
    let keyed_config = PipelineConfig {
        flow_table: FlowTableKind::Keyed { buckets: 1024, ways: 4 },
        ..PipelineConfig::default()
    };
    let keyed = measure_roster(
        "threshold-keyed",
        &trace,
        1024,
        || {
            SwitchBuilder::new()
                .config(keyed_config.clone())
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        },
        |shards, batch| {
            RuntimeBuilder::new()
                .shards(shards)
                .batch_size(batch)
                .config(keyed_config.clone())
                .register_on(&syn, EngineBackend::Threshold)
                .build()
        },
    );
    // The keyed table's own statistics over this workload, for the
    // flow-table rows of the report and the trajectory entry.
    let keyed_report = {
        let mut switch = SwitchBuilder::new()
            .config(keyed_config.clone())
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        for tp in &trace.packets {
            switch.process_trace_verdict(tp);
        }
        switch.report()
    };

    let baseline_cgra = std::env::var("TAURUS_HOTPATH_BASELINE_PPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(PRE_REFACTOR_CGRA_SEQ_PPS);
    let baseline_threshold = PRE_REFACTOR_THRESHOLD_SEQ_PPS;
    let pr4_cgra = std::env::var("TAURUS_HOTPATH_PR4_PPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(PR4_CGRA_SEQ_PPS);

    let mut rows = Vec::new();
    for (r, baseline) in
        [(&cgra, baseline_cgra), (&threshold, baseline_threshold), (&keyed, baseline_threshold)]
    {
        rows.push(vec![
            r.name.to_string(),
            "seq".to_string(),
            f(r.seq_pps, 0),
            f(r.seq_pps / baseline, 2),
        ]);
        for &(shards, pps) in &r.shard_pps {
            rows.push(vec![
                r.name.to_string(),
                format!("{shards} shard(s)"),
                f(pps, 0),
                String::new(),
            ]);
        }
    }
    print_table(
        "Hot-path packet rate (wall clock, determinism-checked)",
        &["roster", "config", "pkts/s", "vs pre-refactor"],
        &rows,
    );

    let breakdown = measure_breakdown(&detector, &trace, cgra.seq_pps, cgra.shard_pps[0].1);
    print_table(
        "CGRA roster per-stage breakdown (ns/packet)",
        &["stage", "ns/pkt"],
        &[
            vec!["ingest: parse (wire+hash+route)".into(), f(breakdown.parse_ns, 1)],
            vec!["ingest: merge (first-seen+windows)".into(), f(breakdown.merge_ns, 1)],
            vec!["ingest: steer (staging copy)".into(), f(breakdown.steer_ns, 1)],
            vec!["formatter (encode+quantize)".into(), f(breakdown.formatter_ns, 1)],
            vec!["engine (compiled MapReduce)".into(), f(breakdown.engine_ns, 1)],
            vec!["other (parse+registers+MATs)".into(), f(breakdown.other_ns, 1)],
            vec!["= sequential total".into(), f(breakdown.seq_total_ns, 1)],
            vec!["channel (1-shard runtime − seq)".into(), f(breakdown.channel_ns, 1)],
        ],
    );

    let interference = measure_update_interference(&syn, &trace, if smoke { 8 } else { 32 });
    print_table(
        "Live update interference (threshold roster, 2 shards, streaming)",
        &["metric", "value"],
        &[
            vec!["installs during stream".into(), interference.installs.to_string()],
            vec!["quiet pkts/s".into(), f(interference.quiet_pps, 0)],
            vec!["busy pkts/s".into(), f(interference.busy_pps, 0)],
            vec!["installs/s sustained".into(), f(interference.installs_per_sec, 1)],
            vec!["throughput retention".into(), f(interference.retention, 2)],
        ],
    );

    let overload = measure_overload(
        &syn,
        &trace,
        if smoke { Duration::from_millis(100) } else { Duration::from_millis(250) },
    );
    print_table(
        "Overload policies (threshold roster, 2 shards, shard 0 stalled, feed-phase wall clock)",
        &["policy", "feed pkts/s", "note"],
        &[
            vec!["quiet (no stall)".into(), f(overload.quiet_pps, 0), String::new()],
            vec!["block".into(), f(overload.block_pps, 0), "rides out the stall".into()],
            vec![
                "shed".into(),
                f(overload.shed_pps, 0),
                format!("goodput {:.2}", overload.shed_goodput),
            ],
            vec![
                "degrade".into(),
                f(overload.degrade_pps, 0),
                format!("line-rate defaults {:.2}", overload.degraded_fraction),
            ],
        ],
    );

    let probe_hist =
        keyed_report.probe_hist.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" / ");
    let keyed_ratio = keyed.seq_pps / threshold.seq_pps;
    print_table(
        "Keyed flow table (threshold roster, 1024 buckets x 4 ways)",
        &["metric", "value"],
        &[
            vec!["occupancy (entries live)".into(), keyed_report.flow_occupancy.to_string()],
            vec!["capacity evictions".into(), keyed_report.capacity_evictions.to_string()],
            vec!["idle evictions".into(), keyed_report.evictions.to_string()],
            vec!["probe histogram (way 0..)".into(), probe_hist],
            vec!["seq rate vs direct-mapped".into(), f(keyed_ratio, 2)],
        ],
    );

    let speedup = cgra.seq_pps / baseline_cgra;
    let speedup_pr4 = cgra.seq_pps / pr4_cgra;
    println!(
        "\nsingle-shard CGRA roster: {:.0} pkts/s — {speedup:.2}x the pre-refactor baseline, \
         {speedup_pr4:.2}x the PR-4 trajectory entry",
        cgra.seq_pps
    );

    // Scaling context: how the 8-shard configuration compares to the
    // single-shard one, and how many cores (and therefore auto-resolved
    // parse workers) the host actually offered.
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let parse_workers_at_8 = RuntimeBuilder::new()
        .shards(8)
        .register_on(&syn, EngineBackend::Threshold)
        .build()
        .parse_worker_count();
    let shard1 = cgra.shard_pps.iter().find(|&&(s, _)| s == 1).expect("1-shard run").1;
    let shard8 = cgra.shard_pps.iter().find(|&&(s, _)| s == 8).expect("8-shard run").1;
    let scaling = shard8 / shard1;
    println!(
        "8-shard vs 1-shard CGRA roster: {scaling:.2}x ({cores} core(s), \
         {parse_workers_at_8} parse worker(s) at 8 shards)"
    );

    if !smoke {
        // Snapshot first, assert second: the tracked artifact must be
        // regenerable on any hardware, and it always records the
        // canonical baseline constants (the env overrides only retarget
        // the asserts, never the recorded baselines).
        if std::env::var("TAURUS_REGEN_GOLDEN").is_ok() {
            let label =
                std::env::var("TAURUS_RUN_LABEL").unwrap_or_else(|_| "unlabeled".to_string());
            let entry = Json::Object(vec![
                ("label", Json::Str(label)),
                ("workload", Json::Str(format!("kdd seed 42, {trace_n} records"))),
                ("packets", Json::UInt(cgra.packets)),
                ("cores", Json::UInt(cores as u64)),
                ("parse_workers_at_8_shards", Json::UInt(parse_workers_at_8 as u64)),
                ("cgra_scaling_8v1", Json::Float(scaling)),
                ("cgra", roster_json(&cgra, PRE_REFACTOR_CGRA_SEQ_PPS)),
                ("threshold", roster_json(&threshold, PRE_REFACTOR_THRESHOLD_SEQ_PPS)),
                ("threshold_keyed", roster_json(&keyed, PRE_REFACTOR_THRESHOLD_SEQ_PPS)),
                ("keyed_vs_direct_ratio", Json::Float(keyed_ratio)),
                (
                    "keyed_table",
                    Json::Object(vec![
                        ("buckets", Json::UInt(1024)),
                        ("ways", Json::UInt(4)),
                        ("occupancy", Json::UInt(keyed_report.flow_occupancy)),
                        ("capacity_evictions", Json::UInt(keyed_report.capacity_evictions)),
                        ("idle_evictions", Json::UInt(keyed_report.evictions)),
                        (
                            "probe_hist",
                            Json::Array(
                                keyed_report.probe_hist.iter().map(|&c| Json::UInt(c)).collect(),
                            ),
                        ),
                    ]),
                ),
                ("breakdown", breakdown_json(&breakdown)),
                (
                    "update_interference",
                    Json::Object(vec![
                        ("installs", Json::UInt(interference.installs)),
                        ("quiet_pps", Json::Float(interference.quiet_pps)),
                        ("busy_pps", Json::Float(interference.busy_pps)),
                        ("installs_per_sec", Json::Float(interference.installs_per_sec)),
                        ("throughput_retention", Json::Float(interference.retention)),
                    ]),
                ),
                (
                    "overload",
                    Json::Object(vec![
                        ("offered", Json::UInt(overload.offered)),
                        ("quiet_pps", Json::Float(overload.quiet_pps)),
                        ("block_pps", Json::Float(overload.block_pps)),
                        ("shed_pps", Json::Float(overload.shed_pps)),
                        ("shed_goodput", Json::Float(overload.shed_goodput)),
                        ("degrade_pps", Json::Float(overload.degrade_pps)),
                        ("degraded_fraction", Json::Float(overload.degraded_fraction)),
                    ]),
                ),
            ]);
            let dir = std::path::Path::new("results");
            let _ = std::fs::create_dir_all(dir);
            append_trajectory(&dir.join("BENCH_hotpath.json"), &entry);
            println!("appended a trajectory entry to results/BENCH_hotpath.json");
        }
        assert!(
            speedup >= 3.0,
            "hot-path regression: single-shard CGRA roster must stay >=3x the pre-refactor \
             baseline (got {speedup:.2}x; re-baseline with TAURUS_HOTPATH_BASELINE_PPS if the \
             hardware class changed)"
        );
        // The PR-5 trajectory entry recorded 1.34x over PR 4; the gate
        // sits below it because single-run wall clock on a shared box
        // swings ~±10% — it exists to catch real regressions (a slide
        // back toward 1.0x), not to re-prove the recorded win.
        assert!(
            speedup_pr4 >= 1.1,
            "hot-path regression: single-shard CGRA roster must stay >=1.1x the PR-4 \
             trajectory entry (got {speedup_pr4:.2}x; re-baseline with TAURUS_HOTPATH_PR4_PPS \
             if the hardware class changed)"
        );
        // The keyed table costs a bounded-state guarantee's worth of
        // probing; it must not cost more. The floor is relative (same
        // run, same machine, same workload), so it is immune to
        // hardware-class drift — 0.5x is far below the recorded ratio
        // and exists to catch a keyed path that quietly went quadratic
        // or started allocating.
        let keyed_min = std::env::var("TAURUS_HOTPATH_KEYED_MIN_RATIO")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.5);
        assert!(
            keyed_ratio >= keyed_min,
            "keyed flow-table regression: the keyed threshold roster runs at {keyed_ratio:.2}x \
             the direct-mapped rate (gate: >={keyed_min:.2}x; retarget with \
             TAURUS_HOTPATH_KEYED_MIN_RATIO if the trade-off is intentional)"
        );
    } else {
        println!("smoke mode: exactness checked at every shard count; no snapshot written");
        // Scaling regression gate: the parallel ingest pipeline must
        // keep the 8-shard CGRA roster ahead of the single-shard one —
        // but only where the host has cores to parallelize across. The
        // default floor is deliberately conservative (wall clock on
        // shared CI swings): ≥2.5x with 12+ cores, ≥1.5x with 6+, and
        // skipped below that (a 1-core container serializes everything,
        // so 8-shard ≈ 1-shard minus channel overhead is *expected*).
        // `TAURUS_HOTPATH_MIN_SCALING` overrides the floor either way.
        let min_scaling = std::env::var("TAURUS_HOTPATH_MIN_SCALING")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .or(match cores {
                c if c >= 12 => Some(2.5),
                c if c >= 6 => Some(1.5),
                _ => None,
            });
        match min_scaling {
            Some(min) => assert!(
                scaling >= min,
                "scaling regression: 8-shard CGRA roster is only {scaling:.2}x the single-shard \
                 rate (gate: >={min:.2}x on {cores} cores; retarget with \
                 TAURUS_HOTPATH_MIN_SCALING if the hardware class changed)"
            ),
            None => println!(
                "scaling gate skipped: {cores} core(s) cannot parallelize 8 shards + parse \
                 workers (set TAURUS_HOTPATH_MIN_SCALING to enforce a floor anyway)"
            ),
        }
    }

    if !smoke {
        // Degrade is the paper-faithful mode: ingest hands over-budget
        // packets the line-rate default and keeps moving, so a stalled
        // shard must cost the feed phase almost nothing. The floor is a
        // same-run ratio (immune to hardware-class drift) and sits at
        // 0.9x quiet — a degrade path that starts waiting on the
        // saturated lane slides toward Block's collapse and trips it.
        let degrade_min = std::env::var("TAURUS_HOTPATH_DEGRADE_MIN_RATIO")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.9);
        let degrade_ratio = overload.degrade_pps / overload.quiet_pps;
        assert!(
            degrade_ratio >= degrade_min,
            "overload regression: Degrade feeds at {degrade_ratio:.2}x the quiet rate under a \
             stalled shard (gate: >={degrade_min:.2}x; retarget with \
             TAURUS_HOTPATH_DEGRADE_MIN_RATIO if the trade-off is intentional)"
        );
    }
    // Shed-goodput gate (both modes): count-based, not wall clock — the
    // healthy shard's traffic plus whatever the stalled lane absorbed
    // must keep receiving ML verdicts while admission control sheds the
    // rest. A goodput sliding toward 0 means shedding went
    // indiscriminate (dropping traffic the fleet could have served).
    let shed_min = std::env::var("TAURUS_HOTPATH_SHED_MIN_GOODPUT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.25);
    assert!(
        overload.shed_goodput >= shed_min,
        "overload regression: Shed goodput fell to {:.2} of offered under a single stalled shard \
         (gate: >={shed_min:.2}; retarget with TAURUS_HOTPATH_SHED_MIN_GOODPUT if the trade-off \
         is intentional)",
        overload.shed_goodput
    );

    // Update-interference gate (both modes): a same-run relative floor,
    // immune to hardware-class drift. An install is a fleet-wide
    // barrier, so dozens of them cost *something*; the floor exists to
    // catch the install path regressing into a stream-stalling wait
    // (retention sliding toward 0), not to price the barrier exactly.
    let update_min = std::env::var("TAURUS_HOTPATH_UPDATE_MIN_RATIO")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.2);
    assert!(
        interference.retention >= update_min,
        "update-interference regression: {} live installs drop streaming throughput to {:.2}x \
         the quiet rate (gate: >={update_min:.2}x; retarget with \
         TAURUS_HOTPATH_UPDATE_MIN_RATIO if the trade-off is intentional)",
        interference.installs,
        interference.retention
    );
}
