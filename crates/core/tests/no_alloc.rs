//! Allocation-regression guard for the per-packet pipeline hot path:
//! after warm-up, `TaurusPipeline::process_prepared` (parse → registers
//! → MATs → formatter → CGRA inference → verdict MATs) and the sharded
//! runtime's switch entry point `TaurusSwitch::process_prepared_verdict`
//! must perform **zero** heap allocations per packet — and building a
//! replica's formatter must not rebuild the model's range tables.
//!
//! Warm-up grows every reusable buffer to steady state (formatter
//! scratch, CGRA output buffers, join-queue capacity, compiled MAT
//! dispatch); the measured loop then replays the same packet set so no
//! new flow state appears, and a thread-local counting global allocator
//! asserts the counter never moved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{CgraEngine, EngineBackend, SwitchBuilder, TaurusApp};
use taurus_pisa::registers::PacketObs;
use taurus_pisa::{Packet, PipelineConfig, TaurusPipeline};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

impl CountingAlloc {
    fn record() {
        COUNTING.with(|c| {
            if c.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
            }
        });
    }
}

// SAFETY: defers all allocation to `System`; the bookkeeping only
// touches const-initialized thread-locals (no lazy init, no recursion
// into the allocator).
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

fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// A small fixed packet set: a handful of TCP flows (ML path) plus an
/// ICMP flow (bypass path), with window counts as a shared ingest stage
/// would provide them. Replaying the same set keeps flow-register
/// structure fixed, so the measured loop sees pure steady state.
fn packet_set() -> Vec<(Packet, PacketObs, u64, u64)> {
    let mut set = Vec::new();
    for i in 0..6u64 {
        let mut pkt = Packet::tcp(
            0x0A00_0001 + i as u32 % 3,
            0xC0A8_0002,
            40_000 + i as u16,
            if i % 2 == 0 { 80 } else { 443 },
            if i == 0 { 0x02 } else { 0x10 },
            200 + 40 * i as u16,
        );
        pkt.ts_ns = 1_000 * (i + 1);
        if i == 5 {
            pkt.proto = 1; // ICMP: exercises the bypass path too
        }
        let obs = PacketObs {
            flow_key: 100 + i % 3,
            dst_key: 7,
            srv_key: 11 + i % 2,
            reverse: i % 4 == 3,
            is_flow_start: false,
            len: pkt.wire_len,
            tcp_flags: pkt.tcp_flags,
            proto: pkt.proto,
            ts_ns: pkt.ts_ns,
        };
        set.push((pkt, obs, 1 + i % 2, 1));
    }
    set
}

#[test]
fn steady_state_pipeline_process_prepared_allocates_nothing() {
    // The full anomaly-detection pipeline on the CGRA engine — the
    // paper's expensive path, built exactly as SwitchBuilder wires it.
    let detector = AnomalyDetector::train_default(7, 400);
    let mut pipeline = TaurusPipeline::new(
        PipelineConfig { feature_count: detector.feature_count(), ..PipelineConfig::default() },
        CgraEngine::new(detector.program.clone()),
        detector.formatter(),
    );
    pipeline.pre_tables = detector.pre_tables();
    pipeline.post_tables = detector.post_tables(EngineBackend::CgraSim);

    let set = packet_set();
    for (pkt, obs, d, s) in &set {
        pipeline.process_prepared(pkt, *obs, *d, *s);
    }

    let n = allocations_in(|| {
        for _ in 0..50 {
            for (pkt, obs, d, s) in &set {
                pipeline.process_prepared(pkt, *obs, *d, *s);
            }
        }
    });
    assert_eq!(n, 0, "steady-state process_prepared allocated {n} times");
}

#[test]
fn steady_state_switch_verdict_path_allocates_nothing() {
    // A two-app switch (CGRA DNN + threshold scorer) through the
    // runtime worker's verdict-only entry point.
    let detector = AnomalyDetector::train_default(8, 400);
    let syn = SynFloodDetector::default_deployment();
    let mut switch = SwitchBuilder::new()
        .register(&detector)
        .register_on(&syn, EngineBackend::Threshold)
        .build();

    let set = packet_set();
    for (pkt, obs, d, s) in &set {
        switch.process_prepared_verdict(pkt, *obs, *d, *s);
    }

    let n = allocations_in(|| {
        for _ in 0..50 {
            for (pkt, obs, d, s) in &set {
                switch.process_prepared_verdict(pkt, *obs, *d, *s);
            }
        }
    });
    assert_eq!(n, 0, "steady-state process_prepared_verdict allocated {n} times");
}

#[test]
fn a_replicas_formatter_is_a_pointer_to_the_models_tables() {
    // The range tables of a model are five vectors plus the protocol
    // table, compiled once in `from_data` / `prepare_update`. Handing a
    // replica its formatter may box a closure (and, for `formatter()`,
    // the factory behind it) — it must never compile a table set again.
    let detector = AnomalyDetector::train_default(9, 400);
    let calibration = vec![vec![-1.0f32; 6], vec![2.0; 6]];
    let update = detector.prepare_update(&detector.float_model, &calibration, 1);
    let from_update = update.formatter.expect("a retrained model carries its formatter");
    let from_app = detector.formatter_factory();

    assert!(allocations_in(|| drop(detector.formatter())) <= 2);
    assert!(allocations_in(|| drop(from_app())) <= 1);
    assert!(allocations_in(|| drop(from_update())) <= 1);
}
