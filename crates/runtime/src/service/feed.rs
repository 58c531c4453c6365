//! The one ingest loop: everything between a fed slice of the stream
//! and the engine lanes, on the thread that called `feed`.
//!
//! Every packet is *parsed* (order-free: wire form, keys, home shard)
//! and then *merged* (order-bound: update barrier, ingest frontier,
//! admission, the front end's step — slot, flow start and cross-flow
//! windows — and steering) by [`Ingest::merge_packet`], in global
//! arrival order —
//! the single driver every geometry runs, so the engines observe the
//! same stream by construction.

use std::sync::Arc;

use taurus_core::ingest::{FrontEnd, IngestValidator};
use taurus_core::ModelUpdate;
use taurus_dataset::trace::TracePacket;
use taurus_pisa::registers::PacketObs;

use super::worker::Lane;
use super::StreamingRuntime;
use crate::fault::ShardError;
use crate::pipeline::stage::parse_obs;
use crate::pipeline::steer::Steer;
use crate::runtime::Route;

/// The order-bound ingest state of a resident service: one instance,
/// touched only by the feeding thread, in global arrival order.
pub(crate) struct Ingest {
    /// Flow key → home shard: [`crate::runtime::shard_of`] over the
    /// register-slot count (keyed: the bucket count) and the engine
    /// shard count.
    route: Route,
    /// The register stage's front end, run in global arrival order: the
    /// one flow directory (every packet's register slot), flow starts
    /// and the one shared cross-flow window instance.
    front: FrontEnd,
    /// Staging arenas, batch pool, and the admission layer.
    pub(super) steer: Steer,
    /// The ingest frontier; its monotonicity clock restarts every feed.
    validator: IngestValidator,
    /// Updates awaiting their global stream index, sorted by it (stable
    /// for equal indices: scheduling order is install order).
    pub(super) pending: Vec<(u64, Arc<ModelUpdate>)>,
    /// How many of `pending` (a prefix) the current feed has installed.
    installed: usize,
    /// Global stream position: packets offered across all feeds.
    pub(super) position: u64,
    /// Packets refused since the last drain because their home shard
    /// was lost.
    pub(super) lost_shard_packets: u64,
}

impl Ingest {
    pub(crate) fn new(route: Route, steer: Steer, front: FrontEnd) -> Self {
        Self {
            route,
            front,
            steer,
            validator: IngestValidator::new(),
            pending: Vec::new(),
            installed: 0,
            position: 0,
            lost_shard_packets: 0,
        }
    }

    /// Clears the front end's flows; the stream clock and the pending
    /// updates survive.
    pub(super) fn reset(&mut self) {
        self.front.reset();
    }

    /// Pushes `packets` through parse → merge → steer and flushes every
    /// partial batch, so the engines observe the whole feed. Returns
    /// how many pending updates the feed installed (a prefix of
    /// `pending`). The stream clock advances by `packets.len()`
    /// whatever happens: every offered packet holds its index.
    pub(super) fn feed(&mut self, lanes: &[Lane], packets: &[TracePacket]) -> usize {
        // The ingest frontier is scoped to the feed: a feed is the
        // replay unit, and operators legitimately re-feed a capture
        // whose timestamps restart.
        self.validator.start_feed();
        self.installed = 0;
        for (i, tp) in packets.iter().enumerate() {
            if self.merge_packet(lanes, tp, self.position + i as u64).is_err() {
                break;
            }
        }
        // A dead shard here is diagnosed (and possibly recovered) at
        // the next drain barrier, not mid-feed.
        let _ = self.steer.flush_partials(lanes);
        self.position += packets.len() as u64;
        self.installed
    }

    /// One packet of the feed, `index` its global stream index: the
    /// order-free parse, then everything order-bound, in global arrival
    /// order — update barrier → ingest frontier → admission → the front
    /// end's step (slot, flow start, shared windows) → steer. The
    /// staging slot is only ever written, last: its cache lines were the
    /// engine worker's a moment ago, and reading them back would stall
    /// ingest on the other core.
    ///
    /// # Errors
    ///
    /// [`ShardError::Dead`] when an engine lane closed under a flush:
    /// the caller stops feeding and the next drain diagnoses the shard.
    #[inline]
    fn merge_packet(
        &mut self,
        lanes: &[Lane],
        tp: &TracePacket,
        index: u64,
    ) -> Result<(), ShardError> {
        // `<=`: an update whose index an earlier feed already passed
        // installs before this packet rather than never.
        while let Some((_, update)) =
            self.pending.get(self.installed).filter(|(at, _)| *at <= index)
        {
            self.steer.flush_and_update(lanes, update, true)?;
            self.installed += 1;
        }
        let mut obs = PacketObs::default();
        let shard = parse_obs(tp, &mut obs, self.route);
        // Refusals come before any stateful ingest: a refused packet
        // costs one counter, still occupies its global stream index,
        // and leaves the front end exactly as a stream without it would.
        if let Err(err) = self.validator.admit(tp) {
            self.steer.overload.record_quarantine(err);
            return Ok(());
        }
        if lanes[shard].lost {
            self.lost_shard_packets += 1;
            return Ok(());
        }
        if self.steer.overload.saturated(shard, index) {
            self.steer.overload.record_bypass(shard, tp.anomalous);
            return Ok(());
        }
        let (op, counts) = self.front.step(&mut obs, tp.conn_id);
        // Rewrite a recycled staging slot in place.
        self.steer.slot(shard).fill(tp, op, counts, index);
        self.steer.commit(lanes, shard)
    }
}

impl StreamingRuntime {
    /// Pushes a slice of the stream through the resident service:
    /// parsing, the shared cross-flow windows, flow-consistent routing,
    /// and batching run on the calling thread, while the resident
    /// engine workers consume over the bounded SPSC lanes — the lanes'
    /// backpressure is the feed's backpressure. Partial batches are
    /// flushed before returning, so the engines observe the whole feed
    /// without waiting for the next one.
    ///
    /// Packets must be in arrival order; timestamps should be monotone
    /// across feeds (the stream is one logical trace). Returns the
    /// number of scheduled updates consumed by this feed.
    pub fn feed(&mut self, packets: &[TracePacket]) -> usize {
        let consumed = self.ingest.feed(&self.lanes, packets);
        for (_, update) in self.ingest.pending.drain(..consumed) {
            self.deployed.note_scheduled(&update, self.supervised);
        }
        consumed
    }

    /// Schedules a live update for **global stream index**
    /// `at_stream_index` ([`StreamingRuntime::stream_position`] is the
    /// index the next fed packet will get): it is applied on every
    /// shard at that barrier — packets with a smaller stream index are
    /// decided by the old model, later ones by the new, exactly as if a
    /// sequential switch had had the update installed between those two
    /// packets — whichever future feed contains the index. Ingest
    /// realizes the barrier by flushing every staged partial batch and
    /// then enqueuing the update in-band on each shard's FIFO lane; no
    /// worker ever pauses. Indices at or before the current position
    /// install at the next feed's first packet; indices past the
    /// stream's end install at the drain.
    ///
    /// Invalid updates (unknown app, stale version, wrong backend)
    /// surface as a re-raised panic at the next drain — scheduling
    /// cannot check them against the future stream — and leave
    /// [`StreamingRuntime::app_versions`] where it was.
    pub fn schedule_update(&mut self, at_stream_index: u64, update: ModelUpdate) {
        self.ingest.pending.push((at_stream_index, Arc::new(update)));
        self.ingest.pending.sort_by_key(|&(at, _)| at);
    }

    /// Updates still awaiting their stream index (index, app, version).
    pub fn scheduled_updates(&self) -> Vec<(u64, String, u64)> {
        self.ingest.pending.iter().map(|(at, u)| (*at, u.app.clone(), u.version)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::IngestFaults;
    use crate::overload::{OverloadPolicy, OverloadState};
    use crate::pipeline::steer::ShardMsg;
    use crate::spsc;
    use taurus_core::ingest::{to_packet, wire_obs, ObsBuilder};
    use taurus_dataset::kdd::KddGenerator;
    use taurus_dataset::trace::{PacketTrace, TraceConfig};
    use taurus_pisa::PreparedInput;
    use taurus_pisa::{CrossFlowWindows, FlowTable, FlowTableKind, PipelineConfig};

    #[test]
    fn the_worker_rebuilds_the_feeders_packet_and_observation_bit_for_bit() {
        let records = KddGenerator::new(76).take(300);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let cfg = PipelineConfig::default();
        let batch_size = 64;
        for kind in [FlowTableKind::DirectMapped, FlowTableKind::Keyed { buckets: 64, ways: 4 }] {
            let keyed = matches!(kind, FlowTableKind::Keyed { .. });
            let route_slots = if keyed { 64 } else { cfg.flow_slots };
            // Every batch stays queued until the feed returns.
            let depth = trace.packets.len() / batch_size + 1;
            let (tx, rx) = spsc::channel(depth);
            let (_recycle_tx, recycle) = spsc::channel(depth);
            let (_reply_tx, replies) = spsc::channel(1);
            let lanes = [Lane { tx, recycle, replies, lost: false }];
            let overload = OverloadState::new(OverloadPolicy::Block, IngestFaults::default(), 1);
            let mut ingest = Ingest::new(
                Route::new(route_slots, 1),
                Steer::new(1, batch_size, depth, overload),
                FrontEnd::new(&PipelineConfig { flow_table: kind, ..cfg.clone() }),
            );
            ingest.feed(&lanes, &trace.packets);
            drop(lanes);

            // The feeder's observation and op, derived independently:
            // the sequential builder, or table-miss starts when keyed.
            let mut builder = ObsBuilder::new();
            let mut oracle = FlowTable::with_kind(kind, cfg.flow_slots, 0);
            let mut windows = CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns);
            let mut feeder = trace.packets.iter().enumerate().map(|(i, tp)| {
                let mut obs = PacketObs::default();
                wire_obs(tp, &mut obs);
                let op = oracle.op(obs.flow_key, obs.ts_ns);
                if keyed {
                    obs.is_flow_start = op.access.is_start();
                } else {
                    obs = builder.observe(tp);
                }
                (i as u64, to_packet(tp), obs, op, windows.observe(&obs), tp.anomalous)
            });
            let mut received = 0;
            while let Ok(msg) = rx.recv() {
                let ShardMsg::Batch(batch) = msg else { panic!("only batches were sent") };
                for (p, (index, pkt, obs, op, counts, anomalous)) in batch.iter().zip(&mut feeder) {
                    assert_eq!(p.index, index, "{kind:?}");
                    assert_eq!(p.pkt, pkt, "{kind:?} packet {index}");
                    assert_eq!(p.op, op, "{kind:?} packet {index}");
                    // The key and the start bit stay behind: the op
                    // and the window counts travel instead.
                    let wire = PacketObs { flow_key: 0, is_flow_start: false, ..obs };
                    assert_eq!(p.obs(), wire, "{kind:?} packet {index}");
                    assert_eq!(
                        (p.dst_count, p.srv_count, p.anomalous),
                        (counts.0, counts.1, anomalous)
                    );
                    received += 1;
                }
            }
            assert_eq!(received, trace.packets.len(), "{kind:?}: every packet crossed the lane");
        }
    }
}
