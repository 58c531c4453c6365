//! Allocation-regression guard for the full sharded hot path: after a
//! warm-up run, a `StreamingRuntime` feed + drain must perform **zero**
//! per-packet and per-batch heap allocations — ingest (observations,
//! cross-flow windows, arena fill), the SPSC channels, the workers'
//! switch loops, and the recycle lanes all run out of memory provisioned
//! up front or recycled from earlier batches.
//!
//! A run still has *fixed* per-run overhead (thread spawns, channel
//! endpoints, the final report), so "zero steady-state allocations" is
//! pinned as scale-invariance: a warmed run over the trace and a warmed
//! run over the trace **concatenated with itself** (twice the packets,
//! twice the batches, identical flow structure) must allocate exactly
//! the same number of times. Any per-packet or per-batch allocation
//! would show up as a difference of thousands.
//!
//! Unlike the per-crate guards (`taurus-core`/`taurus-cgra`), the
//! counting allocator here is process-global — worker threads must be
//! counted too, not just the ingest thread. `cargo test` runs the
//! `#[test]`s of this file on parallel threads, so every measured
//! section (warm-ups included) runs under one file-wide lock: a
//! neighbour's allocations never land in another test's count. A
//! second, per-thread counter tells the feeding thread's allocations
//! from the workers' where a guard needs the split.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::EngineBackend;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_ml::Rows;
use taurus_pisa::{FlowTableKind, PipelineConfig};
use taurus_runtime::{FaultPlan, OverloadPolicy, RuntimeBuilder, StreamingRuntime};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's share of `ALLOCS`. Const-initialized and without a
    /// destructor, so touching it from inside the allocator neither
    /// allocates nor outlives the thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

impl CountingAlloc {
    fn record() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: defers all allocation to `System`; the bookkeeping touches
// only lock-free statics and a const-initialized thread-local cell (no
// lazy init, no recursion into the allocator).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests of this file: the counter is process-global,
/// so a test holds this for its whole body — set-up and warm-up feeds
/// allocate on worker threads too, and would land in a neighbour's
/// measured section. Poison-tolerant — one failed guard must
/// not cascade into every other test of the file.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations `f` performs, on any thread. Call with [`measuring`]
/// held.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations `f` performs, split `(calling thread, every other
/// thread)`. Call with [`measuring`] held.
fn allocations_by_thread(f: impl FnOnce()) -> (u64, u64) {
    THREAD_ALLOCS.with(|n| n.set(0));
    let all = allocations_in(f);
    let here = THREAD_ALLOCS.with(Cell::get);
    (here, all - here)
}

fn trace(n: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

/// `single` replayed back to back: twice the packets and batches with
/// the identical flow population, so steady-state structures (flow
/// registers, seen-flow sets, arena capacities) cannot grow.
fn doubled(single: &PacketTrace) -> Vec<taurus_dataset::trace::TracePacket> {
    let mut d = Vec::with_capacity(single.packets.len() * 2);
    d.extend(single.packets.iter().cloned());
    d.extend(single.packets.iter().cloned());
    d
}

fn assert_scale_invariant(mut rt: StreamingRuntime, single: &PacketTrace, label: &str) {
    let double = doubled(single);
    // Warm-up: provision the batch pool, grow every arena to capacity,
    // populate flow state and fast-path caches on every shard — for
    // both stream lengths, so the measured runs see pure steady state.
    rt.feed(&single.packets);
    rt.drain();
    rt.feed(&double);
    rt.drain();

    let base = allocations_in(|| {
        rt.feed(&single.packets);
        rt.drain();
    });
    let repeat = allocations_in(|| {
        rt.feed(&single.packets);
        rt.drain();
    });
    let scaled = allocations_in(|| {
        rt.feed(&double);
        rt.drain();
    });
    assert_eq!(base, repeat, "{label}: identical warmed runs must allocate identically");
    assert_eq!(
        scaled, base,
        "{label}: a run with 2x the packets/batches allocated {scaled} times vs {base} — \
         some allocation scales with the stream instead of the (fixed) per-run setup"
    );
}

#[test]
fn sharded_threshold_roster_allocates_independent_of_stream_length() {
    let _serial = measuring();
    let syn = SynFloodDetector::default_deployment();
    let single = trace(400, 51);
    let rt = RuntimeBuilder::new()
        .shards(4)
        .batch_size(32)
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    assert_scale_invariant(rt, &single, "threshold x4");
}

#[test]
fn sharded_cgra_roster_allocates_independent_of_stream_length() {
    let _serial = measuring();
    let detector = AnomalyDetector::train_default(9, 400);
    let single = trace(250, 52);
    let rt = RuntimeBuilder::new().shards(2).batch_size(32).register(&detector).build();
    assert_scale_invariant(rt, &single, "cgra x2");
}

#[test]
fn resident_service_feeds_allocate_nothing_after_the_first() {
    let _serial = measuring();
    // The streaming tentpole's allocation story, stated at its
    // strongest: on a resident StreamingRuntime, a warmed `feed`
    // performs ZERO heap allocations — not "a constant amount",
    // literally none. Engine workers are already resident (no
    // thread spawn), arenas are provisioned and grown, the recycle
    // lanes are primed, and the same trace re-observes only known
    // flows. The allocator is process-global, so the resident workers'
    // concurrent batch processing is counted too.
    let syn = SynFloodDetector::default_deployment();
    let single = trace(400, 54);
    let mut service = RuntimeBuilder::new()
        .shards(2)
        .batch_size(32)
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    // Cold feed: grows every arena to capacity, populates flow state.
    service.feed(&single.packets);
    let second = allocations_in(|| {
        service.feed(&single.packets);
    });
    assert_eq!(second, 0, "a warmed feed must be allocation-free, allocated {second} times");
    // And allocation counts must not grow between further feeds.
    let third = allocations_in(|| {
        service.feed(&single.packets);
    });
    assert_eq!(third, 0, "feed three allocated {third} times");
    let report = service.shutdown();
    assert_eq!(report.merged.packets, 3 * single.packets.len() as u64, "every feed processed");
}

#[test]
fn an_install_between_feeds_allocates_a_named_handful_and_compiles_nothing() {
    let _serial = measuring();
    // A live full-program install on the CGRA roster is a handle swap:
    // no plan compilation, no slab, no weight copy — on either side of
    // the lane. Pinned exactly, after one warm-up install of the same
    // shapes, over `feed → install_update → feed` (the worker applies
    // the update while the second feed is already running, hence the
    // per-thread split):
    //
    // - the **feeds** allocate nothing on the feeding thread, installed
    //   model or not;
    // - `install_update` itself allocates twice there — the `Arc` box
    //   the shards share, and the clone's app-name `String` (every
    //   other part of a `ModelUpdate` is a handle);
    // - each **worker** allocates `PER_INSTALL` times per install: the
    //   boxed formatter closure the factory builds for this replica (1)
    //   and its own copy of the verdict MAT (3: the `Vec` of tables,
    //   the table's name and its sorted entry list). Lookups build
    //   nothing.
    const PER_INSTALL: u64 = 4;
    const SHARDS: u64 = 2;
    let detector = AnomalyDetector::train_default(9, 400);
    let single = trace(250, 57);
    let standardized = Rows::new(
        (0..64 * 6).map(|k| ((k / 6 * 7 + k % 6 * 13) % 17) as f32 / 8.0 - 1.0).collect(),
        6,
    );
    let mut update = detector.prepare_update(&detector.float_model, &standardized, 0);
    let mut service =
        RuntimeBuilder::new().shards(SHARDS as usize).batch_size(32).register(&detector).build();
    let mut install = |service: &mut StreamingRuntime| {
        update.version += 1;
        service.install_update(&update).expect("a fresh version of a hosted app");
    };
    // Warm-up: arenas, flow state, and one install of the same shapes.
    service.feed(&single.packets);
    install(&mut service);
    service.feed(&single.packets);
    service.drain();

    // The window closes when the second feed returns. Backpressure
    // makes that late enough for the workers: a lane holds at most
    // `queue_depth` messages, the install went in ahead of ~50 batches
    // per shard, so every worker has applied it by then.
    let here = || THREAD_ALLOCS.with(Cell::get);
    let (mut fed, mut installed) = (0, 0);
    let (feeder, workers) = allocations_by_thread(|| {
        service.feed(&single.packets);
        fed = here();
        install(&mut service);
        installed = here();
        service.feed(&single.packets);
    });
    service.drain();
    let feeder_in_install = installed - fed;
    let feeder_in_feeds = feeder - feeder_in_install;
    assert_eq!(feeder_in_feeds, 0, "feeds around an install must stay allocation-free");
    assert_eq!(feeder_in_install, 2, "install_update: the shared Arc and the app name");
    assert_eq!(workers, SHARDS * PER_INSTALL, "worker-side allocations per install");
}

#[test]
fn keyed_resident_service_feeds_allocate_nothing_after_the_first() {
    let _serial = measuring();
    // The keyed table's bounded-state claim, enforced by the allocator:
    // a warmed keyed-mode feed — directory accesses, miss-driven flow
    // starts, per-entry counter updates, bucket-local replacement under
    // pressure (16 entries vs hundreds of connections) — performs ZERO
    // heap allocations. Nothing in the keyed hot path may grow with the
    // stream; this is exactly what deleting the seen-set bought.
    let syn = SynFloodDetector::default_deployment();
    let single = trace(400, 55);
    let mut service = RuntimeBuilder::new()
        .shards(2)
        .batch_size(32)
        .config(PipelineConfig {
            flow_table: FlowTableKind::Keyed { buckets: 8, ways: 2 },
            ..PipelineConfig::default()
        })
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    service.feed(&single.packets);
    let second = allocations_in(|| {
        service.feed(&single.packets);
    });
    assert_eq!(second, 0, "a warmed keyed feed must be allocation-free, allocated {second}");
    let report = service.shutdown();
    assert_eq!(report.merged.packets, 2 * single.packets.len() as u64);
    assert!(report.capacity_evictions() > 0, "the feed ran under replacement pressure");
}

#[test]
fn a_feed_of_rejected_packets_costs_counters_and_allocates_nothing() {
    let _serial = measuring();
    // "Malformed input costs a counter": a feed made only of packets
    // the ingest frontier rejects touches no flow state, reaches no
    // worker, and allocates nowhere — the first refusal included.
    let syn = SynFloodDetector::default_deployment();
    let single = trace(400, 58);
    let mut garbage = single.packets.clone();
    for (i, tp) in garbage.iter_mut().enumerate() {
        match i % 3 {
            0 => tp.len = 0,                                   // zero-length
            1 => (tp.tuple.proto, tp.tuple.src_port) = (6, 0), // garbage port
            _ => tp.tuple.proto = 250,                         // unknown protocol
        }
    }
    let mut service = RuntimeBuilder::new()
        .shards(2)
        .batch_size(32)
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    service.feed(&single.packets); // warm-up: one clean feed
    let before = service.stream_position();
    let (feeder, workers) = allocations_by_thread(|| {
        service.feed(&garbage);
    });
    assert_eq!((feeder, workers), (0, 0), "a refused packet costs a counter, nothing else");
    assert_eq!(service.stream_position(), before + garbage.len() as u64);
    let report = service.shutdown();
    let quarantine = report.overload.quarantine;
    assert_eq!(quarantine.total(), garbage.len() as u64);
    assert!(quarantine.zero_length > 0 && quarantine.garbage_port > 0);
    assert!(quarantine.unknown_protocol > 0);
    assert_eq!(report.merged.packets, single.packets.len() as u64, "only the clean feed ran");
}

#[test]
fn a_degraded_feed_allocates_nothing_on_the_feeder() {
    let _serial = measuring();
    // Degrading a packet is three counter increments: the overload
    // accounting is sized once at build time and zeroed in place at
    // every drain, so the first degraded packet after a drain grows
    // nothing on the feeding thread — and a lane the window starves
    // costs its worker nothing either.
    let syn = SynFloodDetector::default_deployment();
    let single = trace(400, 59);
    let n = single.packets.len() as u64;
    let mut service = RuntimeBuilder::new()
        .shards(2)
        .batch_size(32)
        // A patience no healthy lane outlasts: only the window degrades.
        .overload_policy(OverloadPolicy::Degrade { patience: Duration::from_secs(5) })
        .fault_plan(FaultPlan::new().saturate_shard(0, n, 2 * n))
        .register_on(&syn, EngineBackend::Threshold)
        .build();
    service.feed(&single.packets); // warm-up: one clean feed
    service.feed(&single.packets); // and one degraded feed
    let warm = service.drain();
    assert!(warm.overload.degraded_verdicts > 0, "the window covers the second feed");
    let (feeder, workers) = allocations_by_thread(|| {
        service.feed(&single.packets);
    });
    assert_eq!((feeder, workers), (0, 0), "a degraded packet costs counters, nothing else");
    let report = service.shutdown();
    assert!(report.overload.degraded_verdicts > 0, "the window covers the measured feed");
    assert_eq!(report.overload.per_shard[1], 0, "only shard 0 is saturated");
}
