//! The parallel ingest pipeline: epoch-stamped flow steering in front
//! of the sharded engine workers.
//!
//! ```text
//!            ┌──────────────┐  EpochBatch lanes   ┌───────────────┐
//!  trace ──▶ │ parse worker │ ──────────────────▶ │               │   PreparedPacket   ┌───────────────┐
//!  (slices,  │      0..N    │   (epochs in index  │  merge+steer  │ ─────batches─────▶ │ engine worker │
//!   epochs   │  order-free  │    order, one lane  │  order-bound  │   (recycled-arena  │     0..S      │
//!   e%N→w)   │  parse/route │ ◀──────per worker)  │  windows+seen │     SPSC lanes)    │  MATs + CGRA  │
//!            └──────────────┘   arena recycle     └───────────────┘                    └───────────────┘
//! ```
//!
//! The trace is cut into contiguous epochs of `epoch_len` packets;
//! parse worker `w` owns epochs `w, w+N, w+2N, …` and does everything
//! packet-local — wire form, register keys, flow-start flag predicate,
//! home shard, and the epoch-local first-seen *candidate* filter — with
//! no shared state at all. The merge stage consumes epochs strictly in
//! index order (each worker's output lane is itself FIFO, so lane
//! round-robin by `epoch % N` *is* index order), finishes each packet
//! with the only order-bound work left (global first-seen resolution on
//! candidates, the one shared `CrossFlowWindows` walk), and steers it
//! onto its home shard's engine lane. The reassembled stream the
//! engines observe is the global arrival order, so the merged report is
//! bit-identical to the sequential switch — see `steer.rs` for the
//! candidate-resolution argument and `tests/prop_pipeline.rs` for the
//! property pin.
//!
//! # Allocation discipline
//!
//! Epoch arenas follow the same recycled-arena protocol as the
//! steer→engine batches: [`ARENAS_PER_WORKER`] arenas circulate per
//! worker over a dedicated out/recycle lane pair, pre-provisioned from
//! a cross-run pool before any worker spawns, rewritten in place, and
//! deterministically recovered at run end (the merge stage pushes each
//! worker's final arena straight to the pool; the worker drains the
//! rest and returns them through its join value). Steady-state runs
//! allocate no epoch memory; `tests/no_alloc.rs` pins this with the
//! counting allocator.
//!
//! # Update barrier
//!
//! Scheduled updates key on *global packet index*, which every slot
//! carries (`arena.base + i`), so the merge step applies the barrier
//! per slot: flush every staged partial batch, then enqueue the update
//! in-band on every engine lane. Mid-epoch indices need no special
//! case — the check runs per slot, not per epoch.
//!
//! # One merge step
//!
//! Everything order-bound — the update barrier, the ingest frontier,
//! admission, flow-start resolution, the shared windows, steering —
//! is `Ingest::merge_packet` (`service/feed.rs`). This module only
//! drives the *parse* stage: `run` spawns the parse workers and hands
//! their epochs to that merge step in index order; with
//! `parse_workers = 0` there is no stage to hand off to, and the
//! feeding thread parses each packet right before the same step.

pub mod epoch;
pub mod stage;
pub mod steer;

pub use epoch::{epoch_count, EpochBatch, ParsedSlot, ARENAS_PER_WORKER};
pub use stage::parse_packet;
pub use steer::resolve_and_count;

use taurus_dataset::trace::TracePacket;

use crate::pipeline::stage::parse_worker;
use crate::service::feed::Ingest;
use crate::service::worker::Lane;
use crate::spsc;

/// Drives the parse stage of one pipelined feed (`parse_workers > 0`):
/// spawns the scoped parse workers (they borrow the fed slice, which a
/// resident thread could not), receives their epochs in index order,
/// and hands each to [`Ingest::merge_epoch`] — slot by slot, the same
/// merge step inline ingest runs packet by packet. Returns with every
/// parse worker joined and every epoch arena back in the pool; a
/// parse-worker panic is resumed on the calling thread (engine panics
/// surface later, at the runtime's drain).
pub(crate) fn run(ingest: &mut Ingest, lanes: &[Lane], packets: &[TracePacket]) {
    let plan = ingest.plan;
    let workers = plan.workers;
    let epochs = epoch_count(packets.len(), plan.epoch_len);
    // Provision the epoch-arena pool before spawning anything: with
    // every preload drawn from the pool, steady-state runs of a
    // long-lived runtime allocate no epoch memory (first runs still
    // grow each arena's slots to `epoch_len` in place).
    let provision = workers * ARENAS_PER_WORKER;
    while ingest.epoch_pool.len() < provision {
        ingest.epoch_pool.push(EpochBatch::with_capacity(plan.epoch_len));
    }
    std::thread::scope(|scope| {
        let mut out_lanes = Vec::with_capacity(workers);
        let mut return_lanes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            // Out lane: at most the worker's own circulating arenas can
            // be in flight, so `ARENAS_PER_WORKER` deep never blocks a
            // send spuriously. Recycle lane: one slot of slack beyond
            // the arena count so the merge stage's return send can
            // never block — the same no-deadlock argument as the engine
            // batch lanes.
            let (out_tx, out_rx) = spsc::channel::<EpochBatch>(ARENAS_PER_WORKER);
            let (ret_tx, ret_rx) = spsc::channel::<EpochBatch>(ARENAS_PER_WORKER + 1);
            for _ in 0..ARENAS_PER_WORKER {
                let arena = ingest.epoch_pool.pop().expect("pool provisioned above");
                ret_tx.send(arena).expect("preload fits the fresh lane");
            }
            out_lanes.push(out_rx);
            return_lanes.push(ret_tx);
            handles
                .push(scope.spawn(move || parse_worker(worker, plan, packets, &out_tx, &ret_rx)));
        }
        for epoch in 0..epochs {
            let worker = epoch % workers;
            let Ok(mut arena) = out_lanes[worker].recv() else {
                break; // a parse worker died; its panic surfaces at join
            };
            debug_assert_eq!(arena.epoch, epoch as u64, "lanes deliver epochs in index order");
            let merged = ingest.merge_epoch(lanes, packets, &mut arena);
            if merged.is_err() || epoch + workers >= epochs {
                // The worker's final arena (it will never ask for
                // another) or a feed cut short by a dead engine shard:
                // return the arena straight to the pool instead of the
                // lane. This keeps end-of-run arena recovery
                // deterministic: the worker drains exactly the
                // non-final returns (see `parse_worker`), and nothing
                // races a lane teardown.
                ingest.epoch_pool.push(arena);
                if merged.is_err() {
                    break;
                }
            } else if return_lanes[worker].send(arena).is_err() {
                break; // the worker died; surface at join
            }
        }
        // Close both lane directions: a worker blocked on an out-send
        // (the merge bailed early) or a recycle recv wakes up and exits.
        drop(out_lanes);
        drop(return_lanes);
        for handle in handles {
            match handle.join() {
                Ok(kept) => ingest.epoch_pool.extend(kept),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
}
