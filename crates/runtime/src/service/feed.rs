//! The one ingest loop: everything between a fed slice of the stream
//! and the engine lanes, on the thread that called `feed`.
//!
//! Every packet is *parsed* (order-free: wire form, keys, home shard)
//! and then *merged* (order-bound: update barrier, ingest frontier,
//! admission, flow-start resolution, the shared cross-flow windows,
//! steering) by [`Ingest::merge_packet`], in global arrival order —
//! the single driver every geometry runs, so the engines observe the
//! same stream by construction.

use std::sync::Arc;

use taurus_core::ingest::{flow_start_flags_ok, to_packet_into, IngestValidator, ObsBuilder};
use taurus_core::ModelUpdate;
use taurus_dataset::trace::TracePacket;
use taurus_pisa::registers::PacketObs;
use taurus_pisa::{CrossFlowWindows, FlowTable};

use super::worker::Lane;
use super::StreamingRuntime;
use crate::fault::ShardError;
use crate::pipeline::stage::parse_obs;
use crate::pipeline::steer::{resolve, Steer};
use crate::runtime::Route;

/// The order-bound ingest state of a resident service: one instance,
/// touched only by the feeding thread, in global arrival order.
pub(crate) struct Ingest {
    /// Flow key → home shard: [`crate::runtime::shard_of`] over the
    /// register-slot count (keyed: the bucket count) and the engine
    /// shard count.
    route: Route,
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
        route: Route,
        steer: Steer,
        windows: CrossFlowWindows,
        directory: Option<FlowTable>,
    ) -> Self {
        Self {
            route,
            // With a keyed directory, flow starts are table-miss
            // semantics: the builder keeps no seen-set at all.
            seen: if directory.is_some() { ObsBuilder::untracked() } else { ObsBuilder::new() },
            windows,
            directory,
            steer,
            validator: IngestValidator::new(),
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
    /// order — update barrier → ingest frontier → admission →
    /// flow-start resolution → shared windows → steer. The staging slot
    /// is only ever written, last: its cache lines were the engine
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
        // and leaves the seen-set, directory, and windows exactly as a
        // stream without it would.
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
        // Nothing pre-filtered the first-seen probes, so (direct-mapped)
        // every packet is a flow-start candidate.
        let (dst_count, srv_count) = resolve(
            &mut obs,
            tp.conn_id,
            true,
            flow_start_flags_ok(tp),
            &mut self.seen,
            &mut self.windows,
            self.directory.as_mut(),
        );
        // Rewrite a recycled staging slot in place.
        let out = self.steer.slot(shard);
        to_packet_into(tp, &mut out.pkt);
        out.obs = obs;
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
