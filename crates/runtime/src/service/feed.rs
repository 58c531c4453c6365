//! The one ingest loop: everything order-bound between a fed slice of
//! the stream and the engine lanes.
//!
//! Every packet is *parsed* (order-free: wire form, keys, home shard,
//! flow-start candidacy) and then *merged* (order-bound: update
//! barrier, ingest frontier, admission, flow-start resolution, the
//! shared cross-flow windows, steering). `parse_workers` only chooses
//! where the parse runs — epoch by epoch on scoped worker threads
//! ([`crate::pipeline::run`]) or, at `0`, packet by packet on the
//! feeding thread — and [`Ingest::merge_packet`] is the single merge
//! step both reach, so every geometry produces the same stream by
//! construction.

use std::sync::Arc;

use taurus_core::ingest::{to_packet_into, ConnSet, IngestValidator, ObsBuilder};
use taurus_core::ModelUpdate;
use taurus_dataset::trace::TracePacket;
use taurus_pisa::registers::PacketObs;
use taurus_pisa::{CrossFlowWindows, FlowTable, Packet};

use super::worker::Lane;
use super::StreamingRuntime;
use crate::fault::ShardError;
use crate::pipeline;
use crate::pipeline::epoch::{EpochBatch, FlowHint};
use crate::pipeline::stage::{parse_obs, ParsePlan};
use crate::pipeline::steer::{resolve, Steer};

/// The order-bound ingest state of a resident service: one instance,
/// touched only by the feeding thread, in global arrival order.
pub(crate) struct Ingest {
    /// Epoch/routing geometry, shared with the parse stage.
    pub(crate) plan: ParsePlan,
    /// Global first-seen bookkeeping (direct-mapped flow starts);
    /// untracked in keyed mode.
    seen: ObsBuilder,
    /// The one shared cross-flow window instance.
    windows: CrossFlowWindows,
    /// Keyed mode's shared ingest-side flow directory: the same
    /// set-associative [`FlowTable`] geometry as every replica, run in
    /// global arrival order so flow starts resolve by table-miss
    /// semantics with bounded state (`None` direct-mapped).
    directory: Option<FlowTable>,
    /// Staging arenas, batch pool, and the admission layer.
    pub(super) steer: Steer,
    /// The ingest frontier; its monotonicity clock restarts every feed.
    validator: IngestValidator,
    /// Per-epoch candidate requeue: when an epoch's first-seen
    /// candidate for a connection is refused, the next surviving packet
    /// of that connection *in the same epoch* inherits the candidate
    /// bit — so the first admitted packet of every connection still
    /// probes the global seen-set, exactly as a sequential switch would
    /// on the filtered stream. Cleared at each epoch boundary
    /// (candidates are epoch-local); empty on every clean run, so the
    /// steady state allocates nothing.
    requeue: ConnSet,
    /// Cross-feed pool of epoch arenas.
    pub(crate) epoch_pool: Vec<EpochBatch>,
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
    pub(crate) fn new(
        plan: ParsePlan,
        steer: Steer,
        windows: CrossFlowWindows,
        directory: Option<FlowTable>,
    ) -> Self {
        Self {
            plan,
            // With a keyed directory, flow starts are table-miss
            // semantics: the builder keeps no seen-set at all.
            seen: if directory.is_some() { ObsBuilder::untracked() } else { ObsBuilder::new() },
            windows,
            directory,
            steer,
            validator: IngestValidator::new(),
            requeue: ConnSet::default(),
            epoch_pool: Vec::new(),
            pending: Vec::new(),
            installed: 0,
            position: 0,
            lost_shard_packets: 0,
        }
    }

    /// Clears the flow-start bookkeeping, the windows, and the keyed
    /// directory; the stream clock and the pending updates survive.
    pub(super) fn reset(&mut self) {
        self.seen.reset();
        self.windows.clear();
        if let Some(dir) = &mut self.directory {
            dir.clear();
        }
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
        if self.plan.workers == 0 {
            // No parse stage to hand off to: parse each packet right
            // before its merge step, which writes the wire form
            // straight into the steer slot. Nothing pre-filtered the
            // flow-start candidates, so (direct-mapped) every packet is
            // one — the merge step probes the seen-set per packet, the
            // same one hash the epoch filter would have cost on this
            // thread.
            let ParsePlan { route, keyed, .. } = self.plan;
            self.requeue.clear();
            for (i, tp) in packets.iter().enumerate() {
                let mut obs = PacketObs::default();
                let hint = parse_obs(tp, &mut obs, route, !keyed);
                let index = self.position + i as u64;
                let merged = self
                    .merge_packet(lanes, tp, hint, &mut obs, index, |pkt| to_packet_into(tp, pkt));
                if merged.is_err() {
                    break;
                }
            }
        } else {
            pipeline::run(self, lanes, packets);
        }
        // A dead shard here is diagnosed (and possibly recovered) at
        // the next drain barrier, not mid-feed.
        let _ = self.steer.flush_partials(lanes);
        self.position += packets.len() as u64;
        self.installed
    }

    /// Merges one parsed epoch of the current feed (`packets`) in slot
    /// order.
    ///
    /// # Errors
    ///
    /// See [`Ingest::merge_packet`].
    pub(crate) fn merge_epoch(
        &mut self,
        lanes: &[Lane],
        packets: &[TracePacket],
        arena: &mut EpochBatch,
    ) -> Result<(), ShardError> {
        self.requeue.clear(); // candidates are epoch-local
        let base = arena.base as usize;
        for (i, slot) in arena.slots[..arena.len].iter_mut().enumerate() {
            // Arena bases are feed-relative; updates, saturation
            // windows, and fault plans key on the global stream index.
            let index = self.position + (base + i) as u64;
            let (hint, wire) = (slot.hint(), &slot.prepared.pkt);
            let obs = &mut slot.prepared.obs;
            self.merge_packet(lanes, &packets[base + i], hint, obs, index, |pkt| {
                pkt.clone_from(wire)
            })?;
        }
        Ok(())
    }

    /// The merge step — everything order-bound about one packet, in
    /// global arrival order: update barrier → ingest frontier →
    /// admission → flow-start resolution → shared windows → steer.
    /// `hint` and `obs` are the parse stage's output for `tp`, `index`
    /// its global stream index; `wire` writes the packet's wire form
    /// into its steer slot once it is admitted. The staging slot is
    /// only ever written, last: its cache lines were the engine
    /// worker's a moment ago, and reading them back would stall ingest
    /// on the other core.
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
        mut hint: FlowHint,
        obs: &mut PacketObs,
        index: u64,
        wire: impl FnOnce(&mut Packet),
    ) -> Result<(), ShardError> {
        // `<=`: an update whose index an earlier feed already passed
        // installs before this packet rather than never.
        while let Some((_, update)) =
            self.pending.get(self.installed).filter(|(at, _)| *at <= index)
        {
            self.steer.flush_and_update(lanes, update, true)?;
            self.installed += 1;
        }
        let shard = hint.shard as usize;
        // Refusals come before any stateful ingest: a refused packet
        // costs one counter, still occupies its global stream index,
        // and leaves the seen-set, directory, and windows exactly as a
        // stream without it would.
        let refused = if let Err(err) = self.validator.admit(tp) {
            self.steer.overload.record_quarantine(err);
            true
        } else if lanes[shard].lost {
            self.lost_shard_packets += 1;
            true
        } else if self.steer.overload.saturated(shard, index) {
            self.steer.overload.record_bypass(shard, obs.flow_key, tp.anomalous);
            true
        } else {
            false
        };
        if refused {
            if hint.candidate {
                self.requeue.insert(hint.conn_id);
            }
            return Ok(());
        }
        if !self.requeue.is_empty() && !hint.candidate && self.requeue.remove(&hint.conn_id) {
            hint.candidate = true;
        }
        let (dst_count, srv_count) =
            resolve(obs, hint, &mut self.seen, &mut self.windows, self.directory.as_mut());
        // Rewrite a recycled staging slot in place.
        let out = self.steer.slot(shard);
        wire(&mut out.pkt);
        out.obs = *obs;
        out.dst_count = dst_count;
        out.srv_count = srv_count;
        out.anomalous = tp.anomalous;
        out.index = index;
        self.steer.commit(lanes, shard)
    }
}

impl StreamingRuntime {
    /// Pushes a slice of the stream through the resident service:
    /// parsing, the shared cross-flow windows, flow-consistent routing,
    /// and batching run on the calling thread (with
    /// `parse_workers > 0` the parse half moves onto scoped worker
    /// threads), while the resident engine workers consume over the
    /// bounded SPSC lanes — the lanes' backpressure is the feed's
    /// backpressure. Partial batches are flushed before returning, so
    /// the engines observe the whole feed without waiting for the next
    /// one.
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
