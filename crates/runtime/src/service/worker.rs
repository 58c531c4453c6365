//! The resident engine worker: one OS thread per shard that *owns* its
//! [`TaurusSwitch`] replica and serves its steer lane until the lane
//! closes, plus the lane bundle ([`Lane`]) the service keeps per shard.
//!
//! # Panic containment
//!
//! A panic inside a worker (an app engine exploding, an in-band update
//! failing to install) must not kill a resident thread, but it must
//! also not be swallowed. Workers catch panics, keep draining their
//! lanes (discarding batches — the run is poisoned anyway) so ingest
//! never deadlocks, and surface the payload at the next drain.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use taurus_core::{ModelUpdate, SwitchReport, SwitchVerdict, TaurusSwitch};
use taurus_ml::BinaryMetrics;
use taurus_pisa::Verdict;

use crate::fault::WorkerFaults;
use crate::pipeline::steer::{Batch, ShardMsg};
use crate::runtime::PreparedPacket;
use crate::spsc;

/// One worker's per-run state at a drain barrier.
pub(crate) struct WorkerSnapshot {
    /// Packets processed since the last drain.
    pub(crate) processed: u64,
    /// Batches received since the last drain.
    pub(crate) batches: u64,
    /// Per-model-segment deployed-verdict confusion since the last
    /// drain (see [`crate::RuntimeReport::segments`]).
    pub(crate) segments: Vec<BinaryMetrics>,
    /// The replica's cumulative report.
    pub(crate) report: SwitchReport,
    /// The replica's installed model versions (registration order).
    pub(crate) versions: Vec<(String, u64)>,
}

/// A worker's answer on its reply lane: to a [`ShardMsg::Drain`] or a
/// [`ShardMsg::Metrics`], the only two messages that have one.
pub(crate) enum WorkerReply {
    /// Drain barrier reached; per-run counters were reset.
    Snapshot(Box<WorkerSnapshot>),
    /// Segment confusions read at a [`ShardMsg::Metrics`] probe:
    /// the segment before the last boundary and the one after it.
    Metrics { previous: BinaryMetrics, current: BinaryMetrics },
    /// The worker caught this panic earlier in the run. Without spare
    /// replicas the drain barrier re-raises it on the caller's thread;
    /// with supervision it becomes a [`crate::FaultRecord`] and the
    /// pre-panic snapshot merges so surviving traffic is still
    /// accounted.
    Panicked {
        payload: Box<dyn Any + Send>,
        snapshot: Box<WorkerSnapshot>,
        /// Batches received and discarded while poisoned.
        dropped_batches: u64,
    },
}

/// The service's ends of one shard's lanes.
pub(crate) struct Lane {
    /// Steer→engine lane: batches and in-band control messages.
    pub(crate) tx: spsc::Sender<ShardMsg>,
    /// Reverse lane returning drained batch arenas to ingest.
    pub(crate) recycle: spsc::Receiver<Batch>,
    /// Reply lane: drain snapshots and canary probation metrics.
    pub(crate) replies: spsc::Receiver<WorkerReply>,
    /// The shard was retired (its worker faulted with no spare left):
    /// ingest refuses its packets and every barrier skips it.
    pub(crate) lost: bool,
}

impl Lane {
    /// The lanes of a retired shard: every end closed, so a stray send
    /// or receive fails fast instead of blocking.
    pub(crate) fn retired() -> Self {
        let (tx, _) = spsc::channel(1);
        let (_, recycle) = spsc::channel(1);
        let (_, replies) = spsc::channel(1);
        Self { tx, recycle, replies, lost: true }
    }
}

/// Per-run counters a worker restarts at every drain barrier (and on
/// reset); the replica's own report and flow state persist.
struct RunCounters {
    processed: u64,
    batches: u64,
    dropped_batches: u64,
    segments: Vec<BinaryMetrics>,
}

impl RunCounters {
    fn new() -> Self {
        Self {
            processed: 0,
            batches: 0,
            dropped_batches: 0,
            segments: vec![BinaryMetrics::default()],
        }
    }

    /// Zeroes the counters and reopens a single empty segment.
    fn restart(&mut self) {
        *self = Self::new();
    }

    fn open_segment(&mut self) {
        self.segments.push(BinaryMetrics::default());
    }
}

/// Applies one in-band model change. It is not traffic: it lands on a
/// poisoned replica too, so a fleet that is reset and keeps serving
/// runs one model on every shard; only the segment boundary belongs to
/// the (dead) run. A change that panics poisons the run.
fn apply_change(
    run: &mut RunCounters,
    poisoned: &mut Option<Box<dyn Any + Send>>,
    open_segment: bool,
    change: impl FnOnce(),
) {
    match catch_unwind(AssertUnwindSafe(change)) {
        Ok(()) if open_segment && poisoned.is_none() => run.open_segment(),
        Ok(()) => {}
        Err(payload) => {
            poisoned.get_or_insert(payload);
        }
    }
}

/// The resident engine-worker loop: owns one [`TaurusSwitch`] replica
/// for the lifetime of the service and serves its steer lane until the
/// sender side is dropped (shutdown). `faults` is this shard's slice of
/// the builder's deterministic [`crate::FaultPlan`]; it is empty in
/// production and checked per packet only while armed.
///
/// Every batch runs through the replica's one packet entry, the group
/// loop ([`TaurusSwitch::process_prepared_batch`]): each engine runs
/// eight packets at a time, whatever the roster.
fn engine_worker(
    mut switch: TaurusSwitch,
    rx: spsc::Receiver<ShardMsg>,
    pool_tx: spsc::Sender<Batch>,
    reply_tx: spsc::Sender<WorkerReply>,
    mut faults: WorkerFaults,
) {
    let mut run = RunCounters::new();
    // First panic caught this run; while set, batches are drained but
    // discarded (the run is poisoned — its report will never be built)
    // so ingest keeps its backpressure guarantees and never deadlocks
    // on a full lane.
    let mut poisoned: Option<Box<dyn Any + Send>> = None;
    // The in-flight canary's rollback point on a canary shard, captured
    // and restored here: it never leaves this thread.
    let mut rollback: Option<ModelUpdate> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(batch) => {
                if poisoned.is_none() {
                    run.batches += 1;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let RunCounters { processed, segments, .. } = &mut run;
                        let segment = segments.last_mut().expect("nonempty");
                        let mut record = |p: &PreparedPacket, r: SwitchVerdict| {
                            segment.record(r.verdict == Verdict::Drop, p.anomalous);
                            *processed += 1;
                        };
                        // An armed fault splits the batch at its packet,
                        // so it fires where a per-packet loop fires it:
                        // before its packet, after every earlier one, at
                        // most one per packet.
                        let (mut start, mut next) = (0, 0);
                        while faults.is_armed() {
                            let Some(at) = batch[next..].iter().position(|p| faults.due(p.index))
                            else {
                                break;
                            };
                            let at = next + at;
                            switch.process_prepared_batch(&batch[start..at], &mut record);
                            faults.check_packet(batch[at].index);
                            (start, next) = (at, at + 1);
                        }
                        switch.process_prepared_batch(&batch[start..], &mut record);
                    }));
                    if let Err(payload) = outcome {
                        poisoned = Some(payload);
                    }
                } else {
                    run.dropped_batches += 1;
                }
                // Hand the drained buffer back for reuse (ingest may
                // already be gone on teardown paths; dropping is fine).
                let _ = pool_tx.send(batch);
            }
            ShardMsg::Update { update, open_segment } => {
                apply_change(&mut run, &mut poisoned, open_segment, || {
                    switch
                        .install_update(&update)
                        .unwrap_or_else(|e| panic!("live model update failed on a shard: {e}"));
                });
            }
            ShardMsg::Canary(update) => {
                // Capture first: a rejected capture leaves the replica
                // untouched and nothing to restore.
                apply_change(&mut run, &mut poisoned, false, || {
                    let point = switch
                        .capture_rollback(&update.app)
                        .unwrap_or_else(|e| panic!("canary capture failed on a shard: {e}"));
                    switch
                        .install_update(&update)
                        .unwrap_or_else(|e| panic!("canary install failed on a shard: {e}"));
                    rollback = Some(point);
                });
            }
            ShardMsg::Conclude { rollback: restore } => {
                let point = rollback.take().filter(|_| restore);
                apply_change(&mut run, &mut poisoned, true, || {
                    if let Some(point) = point {
                        switch
                            .rollback_to(&point)
                            .unwrap_or_else(|e| panic!("canary rollback failed on a shard: {e}"));
                    }
                });
            }
            ShardMsg::MarkSegment => {
                // Segment boundary with no model change: keeps segment
                // lists aligned across shards when only a subset
                // actually swapped models (see the canary protocol).
                if poisoned.is_none() {
                    run.open_segment();
                }
            }
            ShardMsg::Metrics => {
                let current = *run.segments.last().expect("nonempty");
                let previous = if run.segments.len() >= 2 {
                    run.segments[run.segments.len() - 2]
                } else {
                    BinaryMetrics::default()
                };
                let _ = reply_tx.send(WorkerReply::Metrics { previous, current });
            }
            ShardMsg::Drain => {
                let snapshot = Box::new(WorkerSnapshot {
                    processed: run.processed,
                    batches: run.batches,
                    segments: std::mem::take(&mut run.segments),
                    report: switch.report(),
                    versions: switch.app_versions(),
                });
                let reply = match poisoned.take() {
                    Some(payload) => WorkerReply::Panicked {
                        payload,
                        snapshot,
                        dropped_batches: run.dropped_batches,
                    },
                    None => WorkerReply::Snapshot(snapshot),
                };
                run.restart();
                let _ = reply_tx.send(reply);
            }
            ShardMsg::Reset => {
                switch.reset();
                poisoned = None;
                run.restart();
            }
        }
    }
}

/// Spawns one resident engine worker and returns the service's lane
/// ends plus the thread handle. Used both at construction and when the
/// supervisor respawns a replacement for a faulted worker.
pub(crate) fn spawn_worker(
    switch: TaurusSwitch,
    queue_depth: usize,
    faults: WorkerFaults,
) -> (Lane, std::thread::JoinHandle<()>) {
    let (tx, rx) = spsc::channel::<ShardMsg>(queue_depth);
    // Reverse lane carrying drained buffers back to ingest. A shard's
    // cycle holds at most `queue_depth + 3` buffers at once (1 staging
    // + queue_depth in flight + 1 at the worker + 1 freshly taken), so
    // with one extra slot of slack the worker's return send can never
    // block — no deadlock against a blocked forward send.
    let (pool_tx, recycle) = spsc::channel::<Batch>(queue_depth + 4);
    // Reply lane for the two messages that have a reply (drain
    // snapshots, canary probation metrics). The service reads each
    // reply before it asks again, except after a watchdog expiry: the
    // next drain then reads the stale reply first and replaces the
    // shard.
    let (reply_tx, replies) = spsc::channel::<WorkerReply>(2);
    let handle = std::thread::spawn(move || {
        engine_worker(switch, rx, pool_tx, reply_tx, faults);
    });
    (Lane { tx, recycle, replies, lost: false }, handle)
}
