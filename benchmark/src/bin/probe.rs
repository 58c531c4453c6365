//! The traced per-layer run: `probe --workload W --seed N --seconds S
//! --trace 1`.
//!
//! Every layer is measured from outside, through its public functions,
//! with a span around every call the harness makes into it; all numbers
//! are derived from those spans and the first pass of every phase is written to
//! `benchmark/out/trace-<workload>.json`. Nothing here gates a PR — a
//! later change that deletes a probed helper deletes its probe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use taurus_benchmark::cli::Args;
use taurus_benchmark::estimator::{median, nearest_rank, quiet, BlockSamples};
use taurus_benchmark::harness::{self, names, Recorder, Untimed};
use taurus_benchmark::host::{self, Host};
use taurus_benchmark::report::{self, Metric};
use taurus_benchmark::spans::{SpanId, SpanLog, NO_PARENT};
use taurus_benchmark::workload::Workload;
use taurus_benchmark::{out_dir, PER_LAYER};
use taurus_cgra::CgraSim;
use taurus_compiler::{compile, CompileOptions, GridConfig};
use taurus_core::ingest::{to_packet_into, IngestValidator, ObsBuilder};
use taurus_core::SwitchReport;
use taurus_ir::kernels::matvec_rows_wide;
use taurus_pisa::registers::{FlowFeatures, PacketObs};
use taurus_pisa::{
    CrossFlowWindows, Field, FlowTable, FlowTracker, InferenceEngine, Packet, Parser, Phv,
    PipelineConfig, TaurusPipeline,
};
use taurus_runtime::{parse_packet, resolve_and_count, spsc, ParsedSlot, PreparedPacket};

/// Packets per ladder tile: small enough that a tile's intermediate
/// arrays (288-byte PHVs above all) stay cache-resident like the fused
/// pipeline's single PHV, large enough that the two clock reads around
/// a layer cost it well under a nanosecond per packet.
const TILE: usize = 256;
/// Room for every span of a run; a phase that would overflow it ends
/// early instead.
const SPAN_CAPACITY: usize = 1 << 20;
/// Times every phase gets its turn.
const ROUNDS: u32 = 4;
/// Trace packets the ingest-helper probes run over, in blocks of 4096.
const HEAD_PACKETS: usize = 8 * 4096;
/// Work per timed block of the kernel and channel probes.
const MATVEC_ROUNDS: usize = 1024;
const SAME_THREAD_ITEMS: u64 = 4096;
const PINGPONG_TRIPS: u64 = 256;
const HANDOFF_BATCHES: usize = 1024;
/// The AD DNN's four layer shapes (rows x cols).
const DNN_SHAPES: [(usize, usize); 4] = [(12, 6), (6, 12), (3, 6), (1, 3)];
/// The ladder's layer spans, in pipeline order (`pisa.mat.apply` runs
/// twice per tile: pre- and post-processing tables).
const LADDER_LAYERS: [&str; 10] = [
    "core.ingest.observe",
    "pisa.flow_table.access",
    "pisa.registers.windows_observe",
    "core.ingest.to_packet",
    "pisa.parser.parse_into",
    "pisa.registers.observe_prepared",
    "pisa.mat.apply",
    "core.apps.formatter",
    "core.engine.infer",
    "pisa.phv.set_ml",
];
/// Ladder passes per round at most: a pass of a cheap workload records
/// 16 spans per 20 µs, and the log has to last for every phase.
const LADDER_PASSES_PER_ROUND: usize = 16;

/// Counts heap allocations while armed (inside traced `feed` calls), on
/// every thread: the service's workers allocate too.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` comes from our caller, who upholds `alloc`'s
        // requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was returned by `System.alloc` with this layout
        // and our caller upholds `realloc`'s requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Records every harness call as a span; nesting follows call order.
struct Traced {
    log: SpanLog,
    open: Vec<SpanId>,
    /// Whether new spans go into the trace file: set for the first pass
    /// of every phase in the first round.
    keep: bool,
}

impl Traced {
    fn parent(&self) -> SpanId {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Times `f` as a child of the innermost open span.
    fn time<R>(&mut self, name: &'static str, block: usize, f: impl FnOnce() -> R) -> R {
        let parent = self.parent();
        self.log.time(parent, name, block, self.keep, f)
    }
}

impl Recorder for Traced {
    type Token = SpanId;

    fn begin(&mut self, name: &'static str, block: usize) -> SpanId {
        // Steady-state feeds are the allocation-free claim; installs
        // and drains build messages and reports by design.
        ARMED.store(name == names::FEED, Ordering::Relaxed);
        let id = self.log.begin(self.parent(), name, block, self.keep);
        self.open.push(id);
        id
    }

    fn end(&mut self, id: SpanId) {
        self.log.end(id);
        ARMED.store(false, Ordering::Relaxed);
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
    }
}

/// The untraced comparator for `trace_overhead_share`: one clock pair
/// per `process_trace_verdict` block, nothing else.
#[derive(Default)]
struct SwitchBlocksOnly(BlockSamples);

impl Recorder for SwitchBlocksOnly {
    type Token = Option<(usize, Instant)>;

    fn begin(&mut self, name: &'static str, block: usize) -> Self::Token {
        (name == names::SWITCH_BLOCK).then(|| (block, Instant::now()))
    }

    fn end(&mut self, token: Self::Token) {
        if let Some((block, start)) = token {
            self.0.push(block, start.elapsed().as_nanos() as u64);
        }
    }
}

/// What the phases hand to the metric table besides spans.
#[derive(Default)]
struct Facts {
    attempted: u64,
    failed: u64,
    untraced_switch: SwitchBlocksOnly,
    block64: Vec<u64>,
    starts: u64,
    stream_packets: u64,
    stream_cpu_s: f64,
    pkts_per_batch: f64,
    balance: f64,
    feature_samples: Vec<FlowFeatures>,
    code_samples: Vec<Vec<i32>>,
}

/// Phase A: the sequential switch exactly as the gate drives it, traced
/// and untraced in alternation on one device (their ratio is the
/// tracing overhead); in the first round also per-64-packet service
/// times and `report()`.
fn switch_phase(
    w: &Workload,
    oracle: &SwitchReport,
    t: &mut Traced,
    f: &mut Facts,
    budget: Duration,
    first: bool,
) {
    let deadline = Instant::now() + budget;
    let packets = w.trace.packets.len() as u64;
    let spans_per_pass = w.trace.packets.len().div_ceil(harness::SWITCH_BLOCK)
        + w.trace.packets.len().div_ceil(w.chunk)
        + 1;
    let mut switch = harness::build_switch(w);
    let mut update = w.update.clone();
    harness::switch_pass(w, &mut switch, &mut update, &mut Untimed);
    t.keep = first;
    while !t.log.lacks_room_for(spans_per_pass) {
        let traced = harness::switch_pass(w, &mut switch, &mut update, t);
        t.keep = false;
        let untraced = harness::switch_pass(w, &mut switch, &mut update, &mut f.untraced_switch);
        f.attempted += 2 * packets;
        f.failed += [traced, untraced].iter().filter(|r| *r != oracle).count() as u64 * packets;
        if Instant::now() >= deadline {
            break;
        }
    }
    if !first {
        return;
    }

    // Per-64-packet service time: the switch's own latency distribution
    // at the finest grain a clock pair resolves.
    f.block64.reserve(w.trace.packets.len() / 64);
    switch.reset();
    for group in w.trace.packets.chunks_exact(64) {
        let start = Instant::now();
        for tp in group {
            std::hint::black_box(switch.process_trace_verdict(tp));
        }
        f.block64.push(start.elapsed().as_nanos() as u64 / 64);
    }
    for _ in 0..64 {
        t.time("core.switch.report", 0, || std::hint::black_box(switch.report()));
    }
}

/// The public pieces `SwitchBuilder` assembles into one pipeline, held
/// apart so each can be driven alone.
struct Ladder {
    keyed: bool,
    feature_count: usize,
    obs_builder: ObsBuilder,
    table: FlowTable,
    windows: CrossFlowWindows,
    parser: Parser,
    pre_tables: Vec<taurus_pisa::MatchTable>,
    tracker: FlowTracker,
    formatter: taurus_pisa::FeatureFormatter,
    engine: taurus_core::BoxedEngine,
    post_tables: Vec<taurus_pisa::MatchTable>,
    // One tile of intermediates.
    obs: Vec<PacketObs>,
    counts: Vec<(u64, u64)>,
    pkts: Vec<Packet>,
    phvs: Vec<Phv>,
    feats: Vec<Option<FlowFeatures>>,
    codes: Vec<Vec<i32>>,
    ml_out: Vec<i64>,
}

impl Ladder {
    fn new(w: &Workload) -> Self {
        let app = w.app();
        let c = &w.config;
        let keyed = w.keyed_buckets().is_some();
        let mut tracker = FlowTracker::with_kind(c.flow_table, c.flow_slots, c.window_ns);
        tracker.set_idle_timeout(c.idle_timeout_ns);
        Self {
            keyed,
            feature_count: app.feature_count(),
            obs_builder: if keyed { ObsBuilder::untracked() } else { ObsBuilder::new() },
            table: FlowTable::with_kind(c.flow_table, c.flow_slots, c.idle_timeout_ns),
            windows: CrossFlowWindows::new(c.flow_slots, c.window_ns),
            parser: Parser::new(),
            pre_tables: app.pre_tables(),
            tracker,
            formatter: app.formatter(),
            engine: app.build_engine(w.backend),
            post_tables: app.post_tables(w.backend),
            obs: vec![PacketObs::default(); TILE],
            counts: vec![(0, 0); TILE],
            pkts: vec![Packet::tcp(0, 0, 0, 0, 0, 0); TILE],
            phvs: vec![Phv::new(); TILE],
            feats: vec![None; TILE],
            codes: (0..TILE).map(|_| Vec::with_capacity(16)).collect(),
            ml_out: vec![0; TILE],
        }
    }

    fn reset(&mut self) {
        self.obs_builder.reset();
        self.table.clear();
        self.windows.clear();
        self.tracker.clear();
    }
}

/// Phase B: the ladder. Every 256-packet tile is a `ladder.block` span
/// whose children are the layers in pipeline order, intermediates
/// handed from layer to layer in tile-sized arrays. The prepared tile
/// then also runs through the assembled paths as siblings of the ladder
/// block — `TaurusPipeline::process_prepared`,
/// `TaurusSwitch::process_prepared_verdict`, and the sequential
/// `process_trace_verdict` the ladder is compared against — tile by
/// tile, so every rung sees the same moments of host noise.
fn ladder_phase(
    w: &Workload,
    oracle: &SwitchReport,
    t: &mut Traced,
    f: &mut Facts,
    budget: Duration,
    first: bool,
) {
    let deadline = Instant::now() + budget;
    let app = w.app();
    let packets = w.trace.packets.len() as u64;
    let mut l = Ladder::new(w);
    let app_config = PipelineConfig { feature_count: app.feature_count(), ..w.config.clone() };
    let mut pipeline =
        TaurusPipeline::new(app_config, app.build_engine(w.backend), app.formatter());
    pipeline.pre_tables = app.pre_tables();
    pipeline.post_tables = app.post_tables(w.backend);
    let mut switch = harness::build_switch(w);
    let mut sequential = harness::build_switch(w);
    let spans_per_pass = w.trace.packets.len().div_ceil(TILE) * 16;

    t.keep = first;
    for _ in 0..LADDER_PASSES_PER_ROUND {
        if t.log.lacks_room_for(spans_per_pass) {
            break;
        }
        l.reset();
        pipeline.reset_state();
        switch.reset();
        sequential.reset();
        let (mut dropped, mut pipeline_dropped, mut starts) = (0u64, 0u64, 0u64);
        for (g, tile) in w.trace.packets.chunks(TILE).enumerate() {
            let n = tile.len();
            let block = t.begin("ladder.block", g);
            t.time("core.ingest.observe", g, || {
                for (tp, obs) in tile.iter().zip(&mut l.obs) {
                    l.obs_builder.observe_into(tp, obs);
                }
            });
            // Keyed mode resolves flow starts by table miss on an
            // ingest-side directory (as the runtime does); direct-mapped
            // mode keeps the seen-set's bit and the access only prices
            // the table.
            t.time("pisa.flow_table.access", g, || {
                for obs in &mut l.obs[..n] {
                    let (_, access) = l.table.access(obs.flow_key, obs.ts_ns);
                    if l.keyed {
                        obs.is_flow_start = access.is_start();
                    }
                }
            });
            t.time("pisa.registers.windows_observe", g, || {
                for (obs, counts) in l.obs[..n].iter().zip(&mut l.counts) {
                    *counts = l.windows.observe(obs);
                }
            });
            t.time("core.ingest.to_packet", g, || {
                for (tp, pkt) in tile.iter().zip(&mut l.pkts) {
                    to_packet_into(tp, pkt);
                }
            });
            t.time("pisa.parser.parse_into", g, || {
                for (pkt, phv) in l.pkts[..n].iter().zip(&mut l.phvs) {
                    l.parser.parse_into(pkt, phv);
                }
            });
            t.time("pisa.registers.observe_prepared", g, || {
                for ((obs, counts), feats) in l.obs[..n].iter().zip(&l.counts).zip(&mut l.feats) {
                    *feats = Some(l.tracker.observe_prepared(obs, counts.0, counts.1));
                }
            });
            t.time("pisa.mat.apply", g, || {
                for phv in &mut l.phvs[..n] {
                    for table in &mut l.pre_tables {
                        table.apply(phv);
                    }
                }
            });
            // Bypassed packets skip the ML block, as in the pipeline.
            for (phv, feats) in l.phvs[..n].iter().zip(&mut l.feats) {
                if phv.get(Field::BypassMl) != 0 {
                    *feats = None;
                }
            }
            t.time("core.apps.formatter", g, || {
                for (feats, codes) in l.feats[..n].iter().zip(&mut l.codes) {
                    if let Some(feats) = feats {
                        codes.clear();
                        (l.formatter)(feats, codes);
                        codes.truncate(l.feature_count);
                    }
                }
            });
            t.time("core.engine.infer", g, || {
                for ((feats, codes), out) in l.feats[..n].iter().zip(&l.codes).zip(&mut l.ml_out) {
                    if feats.is_some() {
                        *out = l.engine.infer(codes);
                    }
                }
            });
            t.time("pisa.phv.set_ml", g, || {
                for (((feats, codes), out), phv) in
                    l.feats[..n].iter().zip(&l.codes).zip(&l.ml_out).zip(&mut l.phvs)
                {
                    if feats.is_some() {
                        phv.set_features(codes);
                        phv.set(Field::MlOut, *out);
                    }
                }
            });
            t.time("pisa.mat.apply", g, || {
                for phv in &mut l.phvs[..n] {
                    for table in &mut l.post_tables {
                        table.apply(phv);
                    }
                }
            });
            t.end(block);
            dropped += l.phvs[..n].iter().filter(|p| p.get(Field::Decision) == 1).count() as u64;
            starts += l.obs[..n].iter().filter(|o| o.is_flow_start).count() as u64;
            if f.code_samples.len() < 4096 {
                for (feats, codes) in l.feats[..n].iter().zip(&l.codes) {
                    if let Some(feats) = feats {
                        f.feature_samples.push(*feats);
                        f.code_samples.push(codes.clone());
                    }
                }
            }

            t.time("pisa.pipeline.process_prepared", g, || {
                for ((pkt, obs), counts) in l.pkts[..n].iter().zip(&l.obs).zip(&l.counts) {
                    let r = pipeline.process_prepared(pkt, *obs, counts.0, counts.1);
                    pipeline_dropped += u64::from(r.verdict == taurus_pisa::Verdict::Drop);
                }
            });
            t.time("core.switch.process_prepared_verdict", g, || {
                for ((pkt, obs), counts) in l.pkts[..n].iter().zip(&l.obs).zip(&l.counts) {
                    std::hint::black_box(
                        switch.process_prepared_verdict(pkt, *obs, counts.0, counts.1),
                    );
                }
            });
            t.time("core.switch.process_trace_verdict", g, || {
                for tp in tile {
                    std::hint::black_box(sequential.process_trace_verdict(tp));
                }
            });
        }
        f.starts = starts;
        f.attempted += packets;
        // The ladder is only a measurement of the pipeline if it *is*
        // the pipeline: every replay must reach the oracle's verdicts.
        if dropped != oracle.dropped
            || pipeline_dropped != oracle.dropped
            || switch.report() != *oracle
            || sequential.report() != *oracle
        {
            f.failed += packets;
            eprintln!(
                "probe: a replay diverged from the oracle's {} drops: ladder {dropped}, pipeline \
                 {pipeline_dropped}, prepared switch {}, sequential switch {}",
                oracle.dropped,
                switch.report().dropped,
                sequential.report().dropped
            );
        }
        t.keep = false;
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Phase C: the resident service, traced: a freshly built runtime (as
/// in every slice of the gate), one untimed warm-up pass, then traced
/// passes with process CPU time read around them.
fn stream_phase(
    w: &Workload,
    oracle: &SwitchReport,
    shards: usize,
    t: &mut Traced,
    f: &mut Facts,
    budget: Duration,
    first: bool,
) {
    let deadline = Instant::now() + budget;
    let packets = w.trace.packets.len() as u64;
    let spans_per_pass = 3 * w.trace.packets.len().div_ceil(w.chunk) + 8;
    t.keep = first;
    let mut runtime = t.time("runtime.service.build", 0, || harness::build_runtime(w, shards));
    let mut update = w.update.clone();
    harness::stream_pass(w, &mut runtime, &mut update, &mut Untimed);
    let cpu_before = host::cpu_seconds();
    while !t.log.lacks_room_for(spans_per_pass) {
        let outcome = harness::stream_pass(w, &mut runtime, &mut update, t);
        t.keep = false;
        f.attempted += packets;
        f.stream_packets += packets;
        f.failed += outcome.failed_packets(w, oracle);
        let batches: u64 = outcome.shard_load.iter().map(|s| s.1).sum();
        let busiest = outcome.shard_load.iter().map(|s| s.0).max().unwrap_or(0);
        f.pkts_per_batch = packets as f64 / batches.max(1) as f64;
        // Mean shard load over the busiest shard's (1.0 = even).
        f.balance = packets as f64 / (outcome.shard_load.len() as u64 * busiest).max(1) as f64;
        if Instant::now() >= deadline {
            break;
        }
    }
    f.stream_cpu_s += host::cpu_seconds() - cpu_before;
    t.keep = first;
    t.time("runtime.service.shutdown", 0, || runtime.shutdown());
}

/// Phase D: the software latency a caller sees for one batch — `feed`
/// of 256 packets + `drain`, cycling through the trace on a warm
/// service; at least 500 round trips per round.
fn burst_phase(w: &Workload, shards: usize, t: &mut Traced, budget: Duration, first: bool) {
    let deadline = Instant::now() + budget;
    let mut runtime = harness::build_runtime(w, shards);
    harness::stream_pass(w, &mut runtime, &mut w.update.clone(), &mut Untimed);
    runtime.reset();
    t.keep = first;
    let mut bursts = 0;
    'bursts: loop {
        for burst in w.trace.packets.chunks(harness::BATCH_SIZE) {
            if t.log.lacks_room_for(1) || (bursts >= 500 && Instant::now() >= deadline) {
                break 'bursts;
            }
            t.time("runtime.service.burst_rtt", 0, || {
                runtime.feed(burst);
                std::hint::black_box(runtime.drain());
            });
            t.keep = false;
            bursts += 1;
        }
        runtime.reset();
    }
    runtime.shutdown();
}

/// Runs `pass` (which records `blocks` spans) until the budget is spent,
/// at least three times; only the first pass's spans go to the file.
fn micro(t: &mut Traced, budget: Duration, blocks: usize, mut pass: impl FnMut(&mut Traced)) {
    let deadline = Instant::now() + budget;
    let keep = std::mem::replace(&mut t.keep, false);
    let mut passes = 0;
    while (passes < 3 || Instant::now() < deadline) && !t.log.lacks_room_for(blocks) {
        t.keep = keep && passes == 0;
        pass(t);
        passes += 1;
    }
    t.keep = keep;
}

/// A tiny deterministic generator for kernel inputs (the kernels are
/// data-independent; this only avoids constant-folding).
fn lcg(state: &mut u64) -> i32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 33) as i32 % 128).abs()
}

/// Phase E: standalone probes of kernels, ingest helpers and the
/// channel. Per-call numbers on sampled or synthetic inputs.
fn micro_phase(w: &Workload, f: &Facts, t: &mut Traced, budget: Duration, first: bool) {
    let each = budget / 11;
    t.keep = first;
    let head = &w.trace.packets[..w.trace.packets.len().min(HEAD_PACKETS)];
    let head_blocks = head.len().div_ceil(4096);

    // Pre-widened weight banks of the AD DNN's layer shapes.
    let mut state = w.seed;
    let banks: Vec<Vec<i32>> = DNN_SHAPES
        .iter()
        .map(|&(r, c)| (0..r * c).map(|_| lcg(&mut state) - 64).collect())
        .collect();
    let x: Vec<i32> = (0..12).map(|_| lcg(&mut state)).collect();
    let mut out = [0i32; 12];
    micro(t, each, 4, |t| {
        for block in 0..4 {
            t.time("ir.kernels.matvec_rows_wide", block, || {
                for _ in 0..MATVEC_ROUNDS {
                    for (bank, &(rows, cols)) in banks.iter().zip(&DNN_SHAPES) {
                        matvec_rows_wide(bank, cols, &x, 3, &mut out[..rows]);
                        std::hint::black_box(&out);
                    }
                }
            });
        }
    });

    let program = w.app().program().expect("both shipped apps carry a compiled program");
    let mut sim = CgraSim::shared(program);
    let mut outputs = Vec::new();
    micro(t, each, 1, |t| {
        t.time("cgra.process_into", 0, || {
            for codes in &f.code_samples {
                std::hint::black_box(sim.process_into(codes, &mut outputs));
            }
        });
    });
    micro(t, each, 1, |t| {
        t.time("pisa.registers.encode_dnn6", 0, || {
            for feats in &f.feature_samples {
                std::hint::black_box(feats.encode_dnn6());
            }
        });
    });

    let mut validator = IngestValidator::new();
    micro(t, each, head_blocks, |t| {
        validator.start_feed();
        for (block, chunk) in head.chunks(4096).enumerate() {
            t.time("core.ingest.admit", block, || {
                for tp in chunk {
                    std::hint::black_box(validator.admit(tp).is_ok());
                }
            });
        }
    });

    // The pipelined-ingest stages (parse workers > 0), which the
    // workloads' inline ingest does not run: parse, merge, steer copy.
    let keyed = w.keyed_buckets().is_some();
    let route_slots = w.keyed_buckets().unwrap_or(w.config.flow_slots);
    const EPOCH: usize = 512;
    let mut slots = vec![ParsedSlot::default(); head.len()];
    let mut epoch_seen = std::collections::HashSet::with_capacity(EPOCH);
    micro(t, each, head_blocks, |t| {
        for (block, (chunk, slots)) in head.chunks(4096).zip(slots.chunks_mut(4096)).enumerate() {
            t.time("runtime.pipeline.parse_packet", block, || {
                for (i, (tp, slot)) in chunk.iter().zip(slots).enumerate() {
                    if i % EPOCH == 0 {
                        epoch_seen.clear();
                    }
                    let candidate = epoch_seen.insert(tp.conn_id);
                    parse_packet(tp, slot, route_slots, 8, candidate);
                }
            });
        }
    });
    let mut seen = if keyed { ObsBuilder::untracked() } else { ObsBuilder::new() };
    let mut windows = CrossFlowWindows::new(w.config.flow_slots, w.config.window_ns);
    let mut directory =
        keyed.then(|| FlowTable::with_kind(w.config.flow_table, w.config.flow_slots, 0));
    micro(t, each, head_blocks, |t| {
        seen.reset();
        windows.clear();
        if let Some(dir) = &mut directory {
            dir.clear();
        }
        for (block, slots) in slots.chunks_mut(4096).enumerate() {
            t.time("runtime.pipeline.resolve_and_count", block, || {
                for slot in slots {
                    resolve_and_count(slot, &mut seen, &mut windows, directory.as_mut());
                }
            });
        }
    });
    let mut staging = vec![PreparedPacket::default(); harness::BATCH_SIZE];
    micro(t, each, head_blocks, |t| {
        for (block, slots) in slots.chunks(4096).enumerate() {
            t.time("runtime.pipeline.steer_copy", block, || {
                for (i, slot) in slots.iter().enumerate() {
                    let j = i % staging.len();
                    staging[j].clone_from(&slot.prepared);
                    std::hint::black_box(&staging[j]);
                }
            });
        }
    });

    // The channel alone: same-thread send+recv, a two-thread round
    // trip, and a one-way hand-off of (empty) batches to a consumer.
    let (tx, rx) = spsc::channel::<u64>(1024);
    micro(t, each, 1, |t| {
        t.time("runtime.spsc.same_thread", 0, || {
            for i in 0..SAME_THREAD_ITEMS {
                tx.send(i).expect("receiver alive");
                std::hint::black_box(rx.recv().expect("sender alive"));
            }
        });
    });
    std::thread::scope(|scope| {
        let (ping_tx, ping_rx) = spsc::channel::<u64>(1);
        let (pong_tx, pong_rx) = spsc::channel::<u64>(1);
        scope.spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        micro(t, each, 1, |t| {
            t.time("runtime.spsc.pingpong", 0, || {
                for i in 0..PINGPONG_TRIPS {
                    ping_tx.send(i).expect("echo thread alive");
                    std::hint::black_box(pong_rx.recv().expect("echo thread alive"));
                }
            });
        });
        drop(ping_tx); // ends the echo thread; the scope joins it
    });
    std::thread::scope(|scope| {
        let (batch_tx, batch_rx) = spsc::channel::<Vec<PreparedPacket>>(4);
        scope.spawn(move || while batch_rx.recv().is_ok() {});
        micro(t, each, 1, |t| {
            t.time("runtime.spsc.handoff", 0, || {
                for _ in 0..HANDOFF_BATCHES {
                    batch_tx.send(Vec::new()).expect("consumer alive");
                }
            });
        });
        drop(batch_tx);
    });

    let graph = &w.app().program().expect("compiled app").graph;
    micro(t, each, 1, |t| {
        t.time("compiler.compile", 0, || {
            std::hint::black_box(
                compile(graph, &GridConfig::default(), &CompileOptions::default())
                    .expect("the shipped program recompiles"),
            );
        });
    });
}

/// Turns spans and facts into the declared per-layer metrics.
fn metrics(w: &Workload, oracle: &SwitchReport, t: &Traced, f: &Facts) -> Vec<Metric> {
    let packets = w.trace.packets.len() as f64;
    let head = w.trace.packets.len().min(HEAD_PACKETS) as f64;
    let matvec_calls = (4 * MATVEC_ROUNDS * DNN_SHAPES.len()) as f64;
    let samples = f.code_samples.len().max(1) as f64;
    // (metric, span, units one pass covers, ns -> unit)
    let composite: [(&str, &str, f64, f64); 26] = [
        ("ir.kernels.matvec_rows_wide_ns", "ir.kernels.matvec_rows_wide", matvec_calls, 1.0),
        ("cgra.process_into_ns", "cgra.process_into", samples, 1.0),
        ("pisa.registers.encode_dnn6_ns", "pisa.registers.encode_dnn6", samples, 1.0),
        ("core.ingest.observe_ns", "core.ingest.observe", packets, 1.0),
        ("pisa.flow_table.access_ns", "pisa.flow_table.access", packets, 1.0),
        ("pisa.registers.windows_observe_ns", "pisa.registers.windows_observe", packets, 1.0),
        ("core.ingest.to_packet_ns", "core.ingest.to_packet", packets, 1.0),
        ("pisa.parser.parse_into_ns", "pisa.parser.parse_into", packets, 1.0),
        ("pisa.mat.apply_ns", "pisa.mat.apply", packets, 1.0),
        ("pisa.registers.observe_prepared_ns", "pisa.registers.observe_prepared", packets, 1.0),
        ("core.apps.formatter_ns", "core.apps.formatter", packets, 1.0),
        ("core.engine.infer_ns", "core.engine.infer", packets, 1.0),
        ("pisa.phv.set_ml_ns", "pisa.phv.set_ml", packets, 1.0),
        ("pisa.pipeline.process_prepared_ns", "pisa.pipeline.process_prepared", packets, 1.0),
        (
            "core.switch.process_prepared_verdict_ns",
            "core.switch.process_prepared_verdict",
            packets,
            1.0,
        ),
        ("core.switch.process_trace_verdict_ns", "core.switch.process_trace_verdict", packets, 1.0),
        ("core.ingest.admit_ns", "core.ingest.admit", head, 1.0),
        ("runtime.pipeline.parse_packet_ns", "runtime.pipeline.parse_packet", head, 1.0),
        ("runtime.pipeline.resolve_and_count_ns", "runtime.pipeline.resolve_and_count", head, 1.0),
        ("runtime.pipeline.steer_copy_ns", "runtime.pipeline.steer_copy", head, 1.0),
        ("runtime.spsc.same_thread_ns", "runtime.spsc.same_thread", SAME_THREAD_ITEMS as f64, 1.0),
        ("runtime.spsc.pingpong_us", "runtime.spsc.pingpong", PINGPONG_TRIPS as f64, 1e-3),
        ("runtime.spsc.handoff_ns_per_batch", "runtime.spsc.handoff", HANDOFF_BATCHES as f64, 1.0),
        ("runtime.service.feed_ns_per_pkt", names::FEED, packets, 1.0),
        ("compiler.compile_ms", "compiler.compile", 1.0, 1e-6),
        ("core.switch.report_us", "core.switch.report", 1.0, 1e-3),
    ];
    // One call per sample, whatever block it ran in.
    let per_call: [(&str, &str, f64); 6] = [
        ("core.switch.install_update_us", names::SWITCH_INSTALL, 1e-3),
        ("runtime.service.install_us", names::INSTALL, 1e-3),
        ("runtime.service.drain_us", names::DRAIN, 1e-3),
        ("runtime.service.reset_us", names::RESET, 1e-3),
        ("runtime.service.build_ms", "runtime.service.build", 1e-6),
        ("runtime.service.shutdown_ms", "runtime.service.shutdown", 1e-6),
    ];

    let mut values: Vec<(String, f64)> = Vec::new();
    for (metric, span, units, scale) in composite {
        let cell = t.log.cell(span);
        values.push((metric.to_string(), cell.quiet_ns() as f64 / units * scale));
        values.push((format!("{metric}_p50"), cell.median_ns() as f64 / units * scale));
    }
    // A statistic of a possibly empty sample (nothing installs on three
    // of the workloads): 0 when there is nothing to read.
    let stat = |sorted: &[u64], pick: &dyn Fn(&[u64]) -> u64| {
        if sorted.is_empty() {
            0.0
        } else {
            pick(sorted) as f64
        }
    };
    for (metric, span, scale) in per_call {
        let sorted = t.log.cell(span).sorted_samples();
        values.push((metric.to_string(), stat(&sorted, &quiet) * scale));
        values.push((format!("{metric}_p50"), stat(&sorted, &median) * scale));
    }
    let quantiles = |sorted: &[u64], q: f64| stat(sorted, &|s| nearest_rank(s, q));
    let installs = t.log.cell(names::INSTALL).sorted_samples();
    let bursts = t.log.cell("runtime.service.burst_rtt").sorted_samples();
    let mut block64 = f.block64.clone();
    block64.sort_unstable();
    let ladder_ns: f64 = LADDER_LAYERS.iter().map(|span| t.log.cell(span).quiet_ns() as f64).sum();
    let sequential_ns = t.log.cell("core.switch.process_trace_verdict").quiet_ns() as f64;
    let traced_switch = t.log.cell(names::SWITCH_BLOCK).quiet_ns() as f64;
    let untraced_switch = f.untraced_switch.0.quiet_ns() as f64;
    let hist_total: u64 = oracle.probe_hist.iter().sum();
    values.extend(
        [
            // Signed, never clamped: negative means the ladder's
            // layer-at-a-time replay costs more than the fused path.
            ("core.switch.unattributed_ns", (sequential_ns - ladder_ns) / packets),
            ("trace_overhead_share", traced_switch / untraced_switch.max(1.0) - 1.0),
            ("core.switch.block_ns_p50", quantiles(&block64, 0.5)),
            ("core.switch.block_ns_p99", quantiles(&block64, 0.99)),
            ("core.switch.block_samples", block64.len() as f64),
            ("core.switch.ml_share", oracle.ml_packets as f64 / oracle.packets.max(1) as f64),
            (
                "pisa.flow_table.way0_share",
                // A direct-mapped table has one way: every access is a
                // way-0 access.
                oracle.probe_hist.first().map_or(1.0, |&w0| w0 as f64 / hist_total.max(1) as f64),
            ),
            ("pisa.flow_table.start_share", f.starts as f64 / packets),
            ("pisa.flow_table.capacity_evictions", oracle.capacity_evictions as f64),
            ("pisa.flow_table.occupancy", oracle.flow_occupancy as f64),
            ("runtime.service.install_us_p99", quantiles(&installs, 0.99) / 1e3),
            ("runtime.service.burst_rtt_us_p50", quantiles(&bursts, 0.5) / 1e3),
            ("runtime.service.burst_rtt_us_p99", quantiles(&bursts, 0.99) / 1e3),
            ("runtime.service.burst_rtt_samples", bursts.len() as f64),
            (
                "runtime.service.cpu_ns_per_pkt",
                f.stream_cpu_s * 1e9 / f.stream_packets.max(1) as f64,
            ),
            (
                "runtime.service.allocs_per_mpkt",
                ALLOCATIONS.load(Ordering::Relaxed) as f64 * 1e6 / f.stream_packets.max(1) as f64,
            ),
            ("runtime.runtime.pkts_per_batch", f.pkts_per_batch),
            ("runtime.runtime.balance", f.balance),
            ("ml.train_s", w.times.train_s),
            ("dataset.expand_s", w.times.expand_s),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );

    // Report in the declared order, with the declared units.
    PER_LAYER
        .iter()
        .flat_map(|m| {
            std::iter::once(m.name.to_string())
                .chain(m.twin.then(|| format!("{}_p50", m.name)))
                .map(move |name| (name, m.unit))
        })
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric `{name}` is declared but not measured"))
                .1;
            Metric::new(name, value, unit)
        })
        .collect()
}

fn run(args: &Args, name: &str) -> Result<bool, String> {
    let host = Host::detect();
    let shards = host.shards();
    println!(
        "# probe {name}: seed {} | host nproc {} `{}` | shards {shards} parse_workers 0 batch {} \
         | ladder tile {TILE}",
        args.seed,
        host.nproc,
        host.cpu_model,
        harness::BATCH_SIZE
    );
    let w = Workload::build(name, args.seed)?;
    let mut switch = harness::build_switch(&w);
    let oracle = harness::switch_pass(&w, &mut switch, &mut w.update.clone(), &mut Untimed);
    drop(switch);

    let mut t =
        Traced { log: SpanLog::with_capacity(SPAN_CAPACITY), open: Vec::new(), keep: false };
    let mut f = Facts::default();
    // Round-robin over the phases, so each samples the whole run rather
    // than one contiguous (and possibly noisy) stretch of it.
    let slice = |share: f64| Duration::from_secs(args.seconds).mul_f64(share / f64::from(ROUNDS));
    for round in 0..ROUNDS {
        let first = round == 0;
        switch_phase(&w, &oracle, &mut t, &mut f, slice(0.10), first);
        ladder_phase(&w, &oracle, &mut t, &mut f, slice(0.40), first);
        stream_phase(&w, &oracle, shards, &mut t, &mut f, slice(0.25), first);
        burst_phase(&w, shards, &mut t, slice(0.05), first);
        micro_phase(&w, &f, &mut t, slice(0.15), first);
    }
    let correct = f.failed == 0;

    let metrics = metrics(&w, &oracle, &t, &f);
    report::print_table(
        &format!("{name}: per layer (quiet composite; _p50 = median composite)"),
        &metrics,
    );
    println!(
        "  spans {}  ladder passes {}  stream passes {}  ops_attempted {}  ops_failed {}",
        t.log.spans().len(),
        t.log.cell("ladder.block").passes(),
        t.log.cell(names::STREAM_BLOCK).passes(),
        f.attempted,
        f.failed
    );

    let trace_path = out_dir().join(format!("trace-{name}.json"));
    report::write_tsv(&out_dir().join(format!("{name}.layers.tsv")), &metrics)
        .and_then(|()| std::fs::write(&trace_path, t.log.to_json()))
        .map_err(|e| format!("cannot write under {}: {e}", out_dir().display()))?;
    println!("  wrote {}", trace_path.display());
    println!("{}", report::result_line(correct, f.attempted, f.failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("probe: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        eprintln!("probe: --workload is required (run the full set through `gate`)");
        return ExitCode::from(2);
    };
    match run(&args, name) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("probe: {e}");
            ExitCode::FAILURE
        }
    }
}
