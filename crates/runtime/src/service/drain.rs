//! The drain barrier and the supervisor behind it: quiesce every
//! shard, merge the snapshots, and respawn (or retire) the workers
//! that faulted since the last barrier.

use std::any::Any;
use std::sync::Arc;

use taurus_core::SwitchReport;
use taurus_dataset::trace::PacketTrace;
use taurus_ml::BinaryMetrics;

use super::worker::{spawn_worker, Lane, WorkerReply, WorkerSnapshot};
use super::StreamingRuntime;
use crate::fault::{FaultRecord, FaultRecordKind, ShardError, WorkerFaults};
use crate::pipeline::steer::ShardMsg;
use crate::runtime::{RuntimeReport, ShardStats};

impl StreamingRuntime {
    /// Drains the service deterministically: installs every update
    /// still pending (they were scheduled for this stream, and the
    /// stream is ending), flushes every staged partial batch, then
    /// barriers on all workers for their snapshots and assembles the
    /// merged report. Per-run statistics
    /// ([`ShardStats::packets`]/`batches`, the segment confusions)
    /// restart after a drain; replica reports and flow state persist.
    ///
    /// # Panics
    ///
    /// Without supervision (no spare replicas configured), re-raises
    /// the first panic a worker caught since the last drain (an app
    /// engine panicking, an in-band update failing to install) — after
    /// the barrier completed on every shard, so the service is quiesced
    /// and can be [`StreamingRuntime::reset`] and reused. With spares,
    /// the fault becomes accounting instead: the pre-panic snapshot
    /// merges, the worker is respawned from a rehydrated spare, and
    /// [`RuntimeReport::faults`] records what happened.
    pub fn drain(&mut self) -> RuntimeReport {
        // Leftover updates land after the last fed packet.
        let mut installed = 0usize;
        for (_, update) in &self.ingest.pending {
            if let Err(err) = self.ingest.steer.flush_and_update(&self.lanes, update, true) {
                self.fault_acc.records.push(FaultRecord {
                    shard: err.shard(),
                    kind: FaultRecordKind::InstallFailed,
                    detail: format!(
                        "in-band update `{}` v{} not delivered: {err}",
                        update.app, update.version
                    ),
                });
                break;
            }
            installed += 1;
        }
        // Undelivered leftovers are dropped with the fault record: the
        // stream they were scheduled against has ended.
        for (_, update) in self.ingest.pending.drain(..).take(installed) {
            self.deployed.note_scheduled(&update, self.supervised);
        }
        let _ = self.ingest.steer.flush_partials(&self.lanes);
        for lane in &self.lanes {
            let _ = lane.tx.send(ShardMsg::Drain);
        }
        // Collect every reply before acting on any: the full barrier
        // guarantees all shards are quiesced even if one panicked.
        let raw: Vec<Option<Result<WorkerReply, ShardError>>> = (0..self.lanes.len())
            .map(|shard| (!self.lanes[shard].lost).then(|| self.await_reply(shard)))
            .collect();
        self.ingest.steer.reclaim(&self.lanes);
        // (shard, snapshot, faulted): faulted snapshots carry only the
        // traffic processed before the panic.
        let mut snapshots: Vec<(usize, WorkerSnapshot, bool)> =
            Vec::with_capacity(self.lanes.len());
        let mut to_respawn: Vec<usize> = Vec::new();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        for (shard, entry) in raw.into_iter().enumerate() {
            let Some(result) = entry else { continue };
            let (kind, detail) = match result {
                Ok(WorkerReply::Snapshot(snapshot)) => {
                    snapshots.push((shard, *snapshot, false));
                    continue;
                }
                Ok(WorkerReply::Panicked { payload, snapshot, dropped_batches }) => {
                    if !self.supervised {
                        // Legacy contract: the drain re-raises.
                        panic_payload.get_or_insert(payload);
                        continue;
                    }
                    self.fault_acc.batches_dropped += dropped_batches;
                    snapshots.push((shard, *snapshot, true));
                    (FaultRecordKind::WorkerPanic, panic_detail(payload.as_ref()))
                }
                // A stale control-plane reply at the drain barrier: the
                // shard is out of protocol; replace it.
                Ok(_) => (
                    FaultRecordKind::Unresponsive,
                    "stale control-plane reply at the drain barrier".to_string(),
                ),
                Err(ShardError::Unresponsive { waited, .. }) => (
                    FaultRecordKind::Unresponsive,
                    format!("no drain reply within {} ms", waited.as_millis()),
                ),
                Err(ShardError::Dead { .. }) => {
                    assert!(
                        self.supervised,
                        "engine worker {shard} died outside the panic protocol"
                    );
                    (
                        FaultRecordKind::WorkerPanic,
                        "worker lane closed outside the panic protocol".to_string(),
                    )
                }
            };
            self.fault_acc.records.push(FaultRecord { shard, kind, detail });
            to_respawn.push(shard);
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        let any_faulted = !to_respawn.is_empty();
        for shard in to_respawn {
            if self.respawn(shard) {
                self.fault_acc.worker_restarts += 1;
            } else {
                // Retired for good: closed lanes (a stray send fails
                // fast), refused at ingest, skipped by every barrier.
                self.lanes[shard] = Lane::retired();
                self.fault_acc.records.push(FaultRecord {
                    shard,
                    kind: FaultRecordKind::ShardLost,
                    detail: "no spare replica left; shard retired".into(),
                });
            }
        }
        let mut segments: Vec<BinaryMetrics> = Vec::new();
        let mut versions_seeded = false;
        let shards: Vec<ShardStats> = snapshots
            .into_iter()
            .map(|(shard, snapshot, faulted)| {
                if !faulted && !versions_seeded {
                    self.deployed.versions = snapshot.versions;
                    versions_seeded = true;
                }
                // Absorb segments element-wise as a prefix: a poisoned
                // worker opens no segments, so its list may be shorter
                // than a healthy shard's.
                if !any_faulted && !segments.is_empty() {
                    debug_assert_eq!(segments.len(), snapshot.segments.len());
                }
                if snapshot.segments.len() > segments.len() {
                    segments.resize(snapshot.segments.len(), BinaryMetrics::default());
                }
                for (acc, seg) in segments.iter_mut().zip(&snapshot.segments) {
                    acc.absorb(seg);
                }
                ShardStats {
                    shard,
                    packets: snapshot.processed,
                    batches: snapshot.batches,
                    report: snapshot.report,
                }
            })
            .collect();
        let merged = SwitchReport::merged(shards.iter().map(|s| &s.report)).unwrap_or_default();
        self.fault_acc.lost_shard_packets += std::mem::take(&mut self.ingest.lost_shard_packets);
        let faults = std::mem::take(&mut self.fault_acc);
        let overload = self.ingest.steer.overload.take_report(self.lanes.len());
        RuntimeReport { merged, shards, segments, faults, overload }
    }

    /// Replaces a faulted worker with a spare replica rehydrated to the
    /// fleet's current models (builder roster + the folded update
    /// history). On a canary shard the in-flight candidate is the fresh
    /// lane's first message, so the spare captures its own rollback
    /// point before it installs it. Returns `false` when no spare is
    /// left.
    fn respawn(&mut self, shard: usize) -> bool {
        let Some(mut switch) = self.spares.pop() else {
            return false;
        };
        for update in &self.deployed.history {
            // Every folded field was accepted by identical replicas;
            // replay cannot fail, but a spare must never panic the
            // supervisor.
            let _ = switch.install_update(update);
        }
        let (lane, handle) = spawn_worker(switch, self.queue_depth, WorkerFaults::none());
        if let Some(run) = self.canary.as_ref().filter(|run| shard >= run.first_canary) {
            let _ = lane.tx.send(ShardMsg::Canary(Arc::clone(&run.update)));
        }
        // Dropping the old lane ends the old worker's loop; its handle
        // stays in `handles` and is joined at teardown.
        self.lanes[shard] = lane;
        self.handles.push(handle);
        true
    }

    /// Drains, then tears the service down: closes every lane, joins
    /// every resident worker, and returns the final report.
    pub fn shutdown(mut self) -> RuntimeReport {
        let report = self.drain();
        self.join_workers();
        report
    }

    /// Feeds a whole trace and drains: one replayed trace, one report.
    pub fn run_trace(&mut self, trace: &PacketTrace) -> RuntimeReport {
        self.feed(&trace.packets);
        self.drain()
    }
}

/// Renders a caught panic payload for a [`FaultRecord`].
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}
