//! Shutdown paths for the parallel ingest pipeline's steering channels,
//! mirroring `spsc.rs`'s endpoint-drop tests one level up: whatever
//! dies first — a parse worker, an engine worker, or the run simply
//! ending — the runtime must neither deadlock nor lose a packet that
//! was already merged.
//!
//! Three families:
//!
//! 1. **Parse-worker drop mid-epoch**: the merge side disappears while
//!    workers still hold arenas / have epochs queued — every worker
//!    must unblock (closed lanes), not spin or park forever.
//! 2. **Engine-worker drop under blocked steer-send**: an engine worker
//!    panics (here: a poisoned live update) while the merge stage may
//!    be parked in a full steer lane — the panic must propagate out of
//!    the drain, with every other thread released.
//! 3. **Drain-on-stop**: a clean end of stream leaves no packet
//!    unmerged and no arena stranded, for geometries that end
//!    mid-epoch, mid-batch, and with more workers than epochs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use taurus_core::apps::SynFloodDetector;
use taurus_core::EngineBackend;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_runtime::RuntimeBuilder;

fn trace(n: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

/// Runs `f` on a watchdog thread so a deadlocked shutdown path fails
/// the test instead of hanging the suite.
fn within(timeout: Duration, f: impl FnOnce() + Send + 'static) {
    let start = Instant::now();
    let handle = std::thread::spawn(f);
    while !handle.is_finished() {
        assert!(start.elapsed() < timeout, "shutdown path deadlocked (> {timeout:?})");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("watchdogged closure panicked");
}

#[test]
fn engine_worker_panic_mid_run_propagates_without_deadlock() {
    // An invalid live update (unknown app) makes every engine worker
    // panic at its install barrier. At that moment the merge stage is
    // still steering packets — its next send hits a dead lane. The
    // panic must surface from the run's drain; parse workers, the merge
    // stage, and the remaining engine workers must all wind down.
    within(Duration::from_secs(60), || {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(400, 81);
        let mut rt = RuntimeBuilder::new()
            .shards(2)
            .batch_size(8)
            .queue_depth(1) // tiny lanes: the steer side is often blocked
            .parse_workers(2)
            .epoch_len(32)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        // Early index: the poison fires while plenty of stream remains.
        rt.schedule_update(40, taurus_core::ModelUpdate::retune_threshold("no-such-app", 1, 40));
        let result = catch_unwind(AssertUnwindSafe(|| rt.run_trace(&t)));
        let payload = result.expect_err("the poisoned update must panic the run");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("live model update failed"), "unexpected panic payload: {msg}");
    });
}

#[test]
fn engine_worker_panic_at_the_first_packet_unblocks_every_parse_worker() {
    // The hardest variant of the blocked-steer-send case: the engines
    // die immediately, so the merge stage's very first flush fails
    // while the parse workers are still racing ahead filling arenas.
    // Every lane teardown (steer lanes, epoch out/recycle lanes) must
    // cascade cleanly.
    within(Duration::from_secs(60), || {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(600, 82);
        let mut rt = RuntimeBuilder::new()
            .shards(4)
            .batch_size(4)
            .queue_depth(1)
            .parse_workers(3)
            .epoch_len(16)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        rt.schedule_update(0, taurus_core::ModelUpdate::retune_threshold("no-such-app", 1, 40));
        let result = catch_unwind(AssertUnwindSafe(|| rt.run_trace(&t)));
        assert!(result.is_err(), "the poisoned update must panic the run");
    });
}

#[test]
fn runtime_survives_a_panicked_run_and_completes_the_next_one() {
    // Parse workers were dropped mid-epoch by the previous run's
    // unwind; the runtime must come back with a coherent (re-provisioned
    // or recovered) arena economy and run a full trace to completion.
    within(Duration::from_secs(60), || {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(300, 83);
        let mut rt = RuntimeBuilder::new()
            .shards(2)
            .batch_size(8)
            .parse_workers(2)
            .epoch_len(32)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        rt.schedule_update(50, taurus_core::ModelUpdate::retune_threshold("no-such-app", 1, 40));
        let poisoned = catch_unwind(AssertUnwindSafe(|| rt.run_trace(&t)));
        assert!(poisoned.is_err());
        // Clean follow-up run on the same runtime.
        rt.reset();
        let report = rt.run_trace(&t);
        assert_eq!(report.merged.packets, t.packets.len() as u64, "no packet lost after recovery");
    });
}

#[test]
fn drain_on_stop_leaves_no_packet_unmerged() {
    // Awkward end-of-stream geometries: trace lengths that end exactly
    // on an epoch boundary, one past it, mid-epoch, and shorter than a
    // single epoch; worker counts exceeding the epoch count. Every
    // packet must be merged, steered, and counted exactly once.
    within(Duration::from_secs(120), || {
        let syn = SynFloodDetector::default_deployment();
        let t = trace(300, 84);
        for (packets, epoch_len, workers) in [
            (256usize, 64usize, 2usize), // exact epoch boundary
            (257, 64, 2),                // one straggler epoch of len 1
            (300, 64, 3),                // mid-epoch tail
            (40, 64, 2),                 // single short epoch
            (10, 4, 4),                  // more workers than epochs busy
            (3, 64, 4),                  // workers with zero epochs
        ] {
            let stream = &t.packets[..packets];
            let n = packets as u64;
            let mut rt = RuntimeBuilder::new()
                .shards(2)
                .batch_size(16)
                .parse_workers(workers)
                .epoch_len(epoch_len)
                .register_on(&syn, EngineBackend::Threshold)
                .build();
            rt.feed(stream);
            let report = rt.drain();
            assert_eq!(report.merged.packets, n, "{packets}p/{epoch_len}e/{workers}w");
            let routed: u64 = report.shards.iter().map(|s| s.packets).sum();
            assert_eq!(routed, n, "{packets}p/{epoch_len}e/{workers}w: steered == merged");
            // And the run is repeatable on the warm runtime (arenas all
            // recovered, lanes rebuilt).
            rt.feed(stream);
            let again = rt.drain();
            assert_eq!(again.merged.packets, 2 * n);
        }
    });
}

#[test]
fn empty_stream_with_parse_workers_spins_up_and_down_cleanly() {
    within(Duration::from_secs(30), || {
        let syn = SynFloodDetector::default_deployment();
        let mut rt = RuntimeBuilder::new()
            .shards(2)
            .parse_workers(3)
            .epoch_len(64)
            .register_on(&syn, EngineBackend::Threshold)
            .build();
        rt.feed(&[]);
        let report = rt.drain();
        assert_eq!(report.merged.packets, 0);
    });
}
