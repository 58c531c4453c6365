//! The machinery that routes finished packets onto the engine shards'
//! recycled-arena SPSC lanes, plus a stand-alone form of the
//! order-bound half of ingest.
//!
//! Two things live here:
//!
//! - [`resolve_and_count`]: the merge step's order-bound work over a
//!   caller-held [`ParsedSlot`] and caller-held parts, for callers that
//!   time or test it alone. The runtime's ingest runs
//!   [`taurus_core::ingest::FrontEnd::step`] instead.
//! - `Steer`: the per-shard staging arenas and flush discipline the
//!   one merge step (`service::feed`) writes through. It owns the
//!   recycle cycle (drained buffers return over reverse SPSC lanes;
//!   replacements come lane → cross-run pool → ramp-up allocation) and
//!   the in-band update barrier: flushing every staged partial batch
//!   and then enqueuing the update on each FIFO channel pins the
//!   install to one global packet index on every shard.

use std::sync::Arc;

use taurus_core::ingest::ObsBuilder;
use taurus_core::ModelUpdate;
use taurus_pisa::{CrossFlowWindows, FlowTable};

use crate::fault::ShardError;
use crate::overload::OverloadState;
use crate::pipeline::stage::ParsedSlot;
use crate::runtime::PreparedPacket;
use crate::service::worker::Lane;
use crate::spsc::SendTimeoutError;

/// One ingest→engine batch: a recycled arena of [`PreparedPacket`]
/// slots. The steer stage rewrites the slots of a drained buffer in
/// place, the engine worker indexes them, and the emptied buffer
/// travels back over a reverse SPSC lane — steady-state runs allocate
/// no batch memory at all.
pub(crate) type Batch = Vec<PreparedPacket>;

/// One message on a steer→engine channel. Updates travel *in-band*:
/// because each channel is FIFO and the steer stage flushes every
/// staged batch before enqueuing the update, a worker applies it after
/// every packet with global index < k and before any with index ≥ k —
/// the batch-boundary barrier that makes live updates deterministic.
/// Only [`ShardMsg::Metrics`] and [`ShardMsg::Drain`] get a reply. A
/// model change (`Update`, `Canary`, `Conclude`) lands on a poisoned
/// worker too, but opens a segment only on a healthy one.
pub(crate) enum ShardMsg {
    /// A batch of routed packets (all slots live — truncated at flush).
    Batch(Batch),
    /// Install this model update now (shared: one prepared update, one
    /// compiled program and plan, every shard). In-band, no reply: the
    /// feeder already rendered the verdict, so a replica that refuses
    /// anyway poisons its run and surfaces at the next drain.
    /// `open_segment`: a scheduled update or a canary promote starts a
    /// fresh metrics segment, `StreamingRuntime::install_update` does
    /// not.
    Update { update: Arc<ModelUpdate>, open_segment: bool },
    /// Capture a rollback point for the update's app into the worker's
    /// own slot, then install the update. Opens no segment:
    /// `begin_canary` marks one on every shard right after, and a
    /// respawned spare replaying the canary must not.
    Canary(Arc<ModelUpdate>),
    /// End a canary on a canary shard: restore the worker's rollback
    /// point (`rollback`) or drop it (promote), then open a segment.
    Conclude { rollback: bool },
    /// Start a fresh metrics segment without installing anything, so
    /// every shard's segment list stays element-wise aligned at every
    /// canary barrier.
    MarkSegment,
    /// Reply `WorkerReply::Metrics` with the last two segments'
    /// confusion (previous, current) without resetting anything — the
    /// probation read a canary verdict is computed from.
    Metrics,
    /// Snapshot per-run stats and the replica report, reply, and reset
    /// the per-run counters — the drain barrier. If the worker caught a
    /// panic earlier in the run, the reply carries the payload instead.
    Drain,
    /// Clear the replica's flow state and counters (and any caught
    /// panic) — the resident-worker form of `TaurusSwitch::reset`.
    Reset,
}

/// Finishes one parsed slot as [`taurus_core::ingest::FrontEnd::step`]
/// would, over parts the caller holds: resolves the packet's register
/// slot and its flow-start bit, and stamps the cross-flow window
/// counts. Must be called in arrival order.
///
/// One `directory` access decides the packet's op; with no directory
/// the op stays as parsed. Keyed, the access also decides the flow
/// start (table-miss semantics) and the seen-set is never touched.
/// Otherwise the flow start is the seen-set's: a connection's first
/// packet must be a `candidate`, and `mark_seen` then returns for it
/// what the sequential builder's per-packet insert would have.
/// Non-candidates skip the set, so a caller may clear the bit on any
/// packet it knows is not its connection's first. With identical
/// flow-start bits, feeding the same [`CrossFlowWindows`] in the same
/// order yields identical counts.
pub fn resolve_and_count(
    slot: &mut ParsedSlot,
    seen: &mut ObsBuilder,
    windows: &mut CrossFlowWindows,
    directory: Option<&mut FlowTable>,
) {
    let keyed = directory.as_ref().is_some_and(|dir| dir.is_keyed());
    if let Some(dir) = directory {
        slot.prepared.op = dir.op(slot.obs.flow_key, slot.obs.ts_ns);
    }
    slot.obs.is_flow_start = if keyed {
        slot.prepared.op.access.is_start()
    } else {
        slot.candidate && seen.mark_seen(slot.conn_id) && slot.start_flags_ok
    };
    (slot.prepared.dst_count, slot.prepared.srv_count) = windows.observe(&slot.obs);
}

/// The steer stage: per-shard staging arenas plus the
/// flush/update/recycle discipline — the writing end of the
/// steer→engine lanes. Resident on the runtime (the arenas and the
/// batch pool outlive any single feed); the lanes are passed in per
/// call because the supervisor swaps them when it respawns or retires a
/// worker.
pub(crate) struct Steer {
    staging: Vec<Batch>,
    /// Live slots per staging arena (slots beyond the fill are stale
    /// leftovers from the buffer's previous trip).
    fills: Vec<usize>,
    batch_size: usize,
    /// Cross-feed pool of batch arenas, provisioned once at
    /// construction so steady-state feeds allocate no batch memory.
    pool: Vec<Batch>,
    /// The admission layer: policy, injected saturation windows, and
    /// the degrade/quarantine accounting. Ingest-side by design — a
    /// shard that degrades and then panics recovers with its counters
    /// intact, because they were never inside the worker.
    pub(crate) overload: OverloadState,
}

impl Steer {
    /// One staging arena per shard over a fully provisioned pool: a
    /// shard's buffer cycle peaks at `queue_depth + 3` buffers (one
    /// staging, `queue_depth` in flight, one at the worker, one freshly
    /// taken), so with that many pooled per shard [`Steer::take_buf`]
    /// never allocates — every feed past the first is allocation-free
    /// (the first still grows each arena's slots to `batch_size` in
    /// place).
    pub fn new(
        shards: usize,
        batch_size: usize,
        queue_depth: usize,
        overload: OverloadState,
    ) -> Self {
        let mut pool: Vec<Batch> =
            (0..shards * (queue_depth + 3)).map(|_| Vec::with_capacity(batch_size)).collect();
        let staging = (0..shards).map(|_| pool.pop().unwrap_or_default()).collect();
        Self { staging, fills: vec![0; shards], batch_size, pool, overload }
    }

    /// Packets per steer→engine batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The next writable slot on `shard`'s staging arena, growing the
    /// arena only while it is still ramping up toward `batch_size`.
    /// Write the packet in place, then [`Steer::commit`] it.
    pub fn slot(&mut self, shard: usize) -> &mut PreparedPacket {
        let buf = &mut self.staging[shard];
        let fill = self.fills[shard];
        if fill == buf.len() {
            buf.push(PreparedPacket::default());
        }
        &mut buf[fill]
    }

    /// Commits the slot written via [`Steer::slot`], flushing the arena
    /// when it reaches `batch_size`.
    ///
    /// # Errors
    ///
    /// [`ShardError::Dead`] once the shard's engine worker is gone.
    pub fn commit(&mut self, lanes: &[Lane], shard: usize) -> Result<(), ShardError> {
        self.fills[shard] += 1;
        if self.fills[shard] == self.batch_size {
            self.flush(lanes, shard)
        } else {
            Ok(())
        }
    }

    /// A replacement staging buffer: the shard's own recycle lane first
    /// (cheapest, keeps the cycle closed), then the cross-run pool,
    /// then — ramp-up only — a fresh allocation.
    fn take_buf(&mut self, lanes: &[Lane], shard: usize) -> Batch {
        lanes[shard]
            .recycle
            .try_recv()
            .ok()
            .or_else(|| self.pool.pop())
            .unwrap_or_else(|| Vec::with_capacity(self.batch_size))
    }

    /// Moves every buffer parked in the recycle lanes back to the pool,
    /// so the next feed starts fully provisioned.
    pub fn reclaim(&mut self, lanes: &[Lane]) {
        for lane in lanes {
            while let Ok(buf) = lane.recycle.try_recv() {
                self.pool.push(buf);
            }
        }
    }

    /// Swaps `shard`'s staging arena out (truncating to its live slots)
    /// and sends it; the replacement comes from the recycle cycle.
    ///
    /// Under [`crate::OverloadPolicy::Block`] (the default) the send
    /// blocks until the lane has room — the historical backpressure.
    /// Under `Degrade` it waits at most the configured patience: a lane
    /// still full past the deadline means *organic* saturation, and the
    /// whole staged batch is degraded at once — every packet accounted
    /// through [`OverloadState::record_bypass`], the arena
    /// recycled, and the flush reported as success (the fleet rode the
    /// overload out instead of stalling on it).
    ///
    /// # Errors
    ///
    /// [`ShardError::Dead`] when the shard's worker is gone (its lane
    /// closed).
    fn flush(&mut self, lanes: &[Lane], shard: usize) -> Result<(), ShardError> {
        let replacement = self.take_buf(lanes, shard);
        let mut batch = std::mem::replace(&mut self.staging[shard], replacement);
        batch.truncate(self.fills[shard]);
        self.fills[shard] = 0;
        let tx = &lanes[shard].tx;
        let dead = match self.overload.policy().patience() {
            None => tx.send(ShardMsg::Batch(batch)).is_err(),
            Some(patience) => match tx.send_timeout(ShardMsg::Batch(batch), patience) {
                Ok(()) => false,
                Err(SendTimeoutError::Timeout(msg)) => {
                    if let ShardMsg::Batch(degraded) = msg {
                        for p in &degraded {
                            self.overload.record_bypass(shard, p.anomalous);
                        }
                        self.pool.push(degraded);
                    }
                    false
                }
                Err(SendTimeoutError::Disconnected(_)) => true,
            },
        };
        if dead {
            return Err(ShardError::Dead { shard });
        }
        Ok(())
    }

    /// Flushes every staged partial batch, then enqueues the update
    /// in-band on every live lane: the FIFO order guarantees each
    /// worker applies it at exactly this global packet boundary, and
    /// nobody waits for it — a full lane's backpressure is the only
    /// delay. Lost shards are skipped — they serve no traffic to decide.
    ///
    /// # Errors
    ///
    /// [`ShardError::Dead`] — without enqueuing the update anywhere
    /// further — as soon as a flush or an update send hits a dead
    /// shard: a partial install would leave the fleet inconsistent, so
    /// the caller must stop feeding and let the runtime diagnose the
    /// worker's fate at the next barrier instead.
    pub fn flush_and_update(
        &mut self,
        lanes: &[Lane],
        update: &Arc<ModelUpdate>,
        open_segment: bool,
    ) -> Result<(), ShardError> {
        self.flush_partials(lanes)?;
        for (shard, lane) in lanes.iter().enumerate().filter(|(_, lane)| !lane.lost) {
            let msg = ShardMsg::Update { update: Arc::clone(update), open_segment };
            if lane.tx.send(msg).is_err() {
                return Err(ShardError::Dead { shard });
            }
        }
        Ok(())
    }

    /// Flushes every non-empty staged partial batch (a barrier point:
    /// feed boundaries, update installs, drains), keeping the staging
    /// arenas resident for the next packets. A dead shard never keeps
    /// the healthy shards' staged packets from being delivered.
    ///
    /// # Errors
    ///
    /// [`ShardError::Dead`] naming the first dead shard these flushes
    /// discovered.
    pub fn flush_partials(&mut self, lanes: &[Lane]) -> Result<(), ShardError> {
        let mut first_dead = Ok(());
        for shard in 0..lanes.len() {
            if self.fills[shard] > 0 {
                let flushed = self.flush(lanes, shard);
                first_dead = first_dead.and(flushed);
            }
        }
        first_dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_core::ingest::ObsBuilder;
    use taurus_dataset::kdd::KddGenerator;
    use taurus_dataset::trace::{PacketTrace, TraceConfig};
    use taurus_pisa::registers::PacketObs;
    use taurus_pisa::PreparedInput;
    use taurus_pisa::{FlowTableKind, PipelineConfig};

    use crate::pipeline::stage::parse_packet;

    #[test]
    fn candidate_resolution_reproduces_sequential_flow_starts_and_counts() {
        // Drive resolve_and_count the way a pre-filtering caller does
        // (epoch partition + per-epoch candidates) and pin it against the
        // classic sequential ObsBuilder + CrossFlowWindows fold.
        let records = KddGenerator::new(73).take(150);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let cfg = PipelineConfig::default();

        let mut seq_builder = ObsBuilder::new();
        let mut seq_windows = CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns);

        let mut merge_builder = ObsBuilder::new();
        let mut merge_windows = CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns);
        // Direct-mapped with the idle timer off: the op is the key's slot.
        let mut directory = FlowTable::with_kind(cfg.flow_table, cfg.flow_slots, 0);

        for epoch_len in [1usize, 7, 64] {
            seq_builder.reset();
            seq_windows.clear();
            merge_builder.reset();
            merge_windows.clear();
            let mut epoch_seen = taurus_core::ingest::ConnSet::default();
            let mut slot = ParsedSlot::default();
            for chunk in trace.packets.chunks(epoch_len) {
                epoch_seen.clear(); // epoch boundary
                for tp in chunk {
                    let golden_obs = seq_builder.observe(tp);
                    let (gd, gs) = seq_windows.observe(&golden_obs);

                    let candidate = epoch_seen.insert(tp.conn_id);
                    parse_packet(tp, &mut slot, cfg.flow_slots, 4, candidate);
                    resolve_and_count(
                        &mut slot,
                        &mut merge_builder,
                        &mut merge_windows,
                        Some(&mut directory),
                    );
                    assert_eq!(slot.obs, golden_obs, "epoch_len={epoch_len}");
                    let wire = PacketObs { flow_key: 0, is_flow_start: false, ..golden_obs };
                    assert_eq!(slot.prepared.obs(), wire, "epoch_len={epoch_len}");
                    assert_eq!((slot.prepared.dst_count, slot.prepared.srv_count), (gd, gs));
                    let op = slot.prepared.op;
                    assert_eq!(u64::from(op.slot), golden_obs.flow_key % cfg.flow_slots as u64);
                    assert_eq!(op.access, taurus_pisa::Access::Hit);
                }
            }
        }
    }

    #[test]
    fn non_candidates_never_touch_the_global_seen_set() {
        let records = KddGenerator::new(74).take(30);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let tp = &trace.packets[0];
        let cfg = PipelineConfig::default();
        let mut builder = ObsBuilder::new();
        let mut windows = CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns);
        let mut slot = ParsedSlot::default();
        // Not a candidate: even a never-seen connection must not be
        // marked seen (its candidate packet comes earlier in the epoch).
        parse_packet(tp, &mut slot, cfg.flow_slots, 1, false);
        resolve_and_count(&mut slot, &mut builder, &mut windows, None);
        assert!(!slot.obs.is_flow_start);
        // The connection is still unseen: its real candidate resolves.
        assert!(builder.mark_seen(tp.conn_id), "set untouched by the non-candidate");
    }

    #[test]
    fn keyed_resolution_is_table_miss_semantics_and_ignores_candidates() {
        let records = KddGenerator::new(75).take(60);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let cfg = PipelineConfig::default();
        let mut builder = ObsBuilder::untracked();
        let mut windows = CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns);
        let geometry = FlowTableKind::Keyed { buckets: 64, ways: 4 };
        let mut directory = FlowTable::with_kind(geometry, 0, 0);
        let mut oracle = FlowTable::with_kind(geometry, 0, 0);
        let mut slot = ParsedSlot::default();
        let mut starts = 0;
        for tp in &trace.packets {
            // Candidate bit deliberately false for every packet: the
            // keyed path must not consult it.
            parse_packet(tp, &mut slot, cfg.flow_slots, 2, false);
            resolve_and_count(&mut slot, &mut builder, &mut windows, Some(&mut directory));
            let op = oracle.op(slot.obs.flow_key, tp.ts_ns);
            assert_eq!(slot.prepared.op, op, "the prepared packet carries the op");
            assert_eq!(slot.obs.is_flow_start, op.access.is_start());
            starts += u64::from(op.access.is_start());
        }
        assert!(starts > 0, "the directory tracked the feed");
        assert_eq!(directory, oracle, "one access per packet, same order");
    }
}
