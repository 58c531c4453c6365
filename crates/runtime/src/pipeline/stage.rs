//! The parse/flow-steer stage: N workers that each parse a slice of
//! the trace in parallel.
//!
//! A parse worker owns epochs `w, w+N, w+2N, …` of the stream. For each
//! epoch it pulls a recycled [`EpochBatch`] arena off its recycle lane,
//! rewrites the slots in place — wire form, keyed observation,
//! epoch-local first-seen candidates, home shard — and ships the epoch
//! to the merge stage over its output lane. Everything here is
//! **order-free**: no worker reads or writes any cross-packet state
//! that another worker could observe, which is why the stage scales
//! with cores while the merged result stays bit-identical.
//!
//! Shutdown mirrors the engine lanes: a closed output lane (the merge
//! stage died or stopped consuming) or a closed recycle lane ends the
//! worker's loop; whatever arenas it still holds are returned through
//! the thread's join value so the cross-run pool stays provisioned.

use taurus_core::ingest::{flow_start_flags_ok, to_packet_into, wire_obs, ConnSet};
use taurus_dataset::trace::TracePacket;
use taurus_pisa::registers::PacketObs;

use crate::pipeline::epoch::{epoch_count, EpochBatch, FlowHint, ParsedSlot, ARENAS_PER_WORKER};
use crate::runtime::Route;
use crate::spsc;

/// The order-free parse of one packet, minus its wire form: fills
/// `obs` (first-seen bit left unresolved) and returns what the merge
/// step needs besides — connection, home shard, flow-start flag
/// predicate. The caller supplies `candidate` (whether the packet can
/// be its connection's global first).
#[inline]
pub(crate) fn parse_obs(
    tp: &TracePacket,
    obs: &mut PacketObs,
    route: Route,
    candidate: bool,
) -> FlowHint {
    wire_obs(tp, obs);
    FlowHint {
        conn_id: tp.conn_id,
        shard: route.shard_of(obs.flow_key) as u32,
        candidate,
        start_flags_ok: flow_start_flags_ok(tp),
    }
}

/// Fills one slot with everything derivable from the packet alone:
/// wire form, keyed observation (first-seen bit left unresolved),
/// flow-start flag predicate, and home shard
/// ([`crate::runtime::shard_of`] over `route_slots` and `shards`). The
/// caller supplies `candidate` (epoch-local first-seen — per-epoch
/// state the worker owns).
pub fn parse_packet(
    tp: &TracePacket,
    slot: &mut ParsedSlot,
    route_slots: usize,
    shards: usize,
    candidate: bool,
) {
    parse_slot(tp, slot, Route::new(route_slots, shards), candidate);
}

/// [`parse_packet`] over a prebuilt [`Route`]: the parse workers' form.
#[inline]
fn parse_slot(tp: &TracePacket, slot: &mut ParsedSlot, route: Route, candidate: bool) {
    let hint = parse_obs(tp, &mut slot.prepared.obs, route, candidate);
    to_packet_into(tp, &mut slot.prepared.pkt);
    slot.prepared.dst_count = 0;
    slot.prepared.srv_count = 0;
    slot.prepared.anomalous = tp.anomalous;
    slot.conn_id = hint.conn_id;
    slot.candidate = hint.candidate;
    slot.start_flags_ok = hint.start_flags_ok;
    slot.shard = hint.shard;
}

/// The ingest geometry: what the parse stage needs to cut the stream
/// into epochs and route each packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParsePlan {
    /// Parse worker threads (worker `w` owns epochs `w, w+workers, …`);
    /// `0` parses each packet on the feeding thread, right before its
    /// merge step.
    pub workers: usize,
    /// Packets per epoch.
    pub epoch_len: usize,
    /// Flow key → home shard: [`crate::runtime::shard_of`] over the
    /// register-slot count (keyed: the bucket count) and the engine
    /// shard count.
    pub route: Route,
    /// Keyed flow table active: flow starts resolve by table miss on
    /// the merge stage, so the epoch-local candidate filter is dead
    /// weight — workers skip it entirely.
    pub keyed: bool,
}

/// The parse-worker loop: parse epochs `worker, worker+workers, …` of
/// `packets`, recycling arenas through `recycle` and shipping finished
/// epochs over `out`. Returns the arenas the worker still holds when
/// the run winds down, so the caller can repool them.
///
/// On a clean run the worker ends holding a deterministic share of the
/// `ARENAS_PER_WORKER` arenas preloaded on its recycle lane: if it
/// parsed at least one epoch, the merge stage keeps the final arena
/// (pushing it straight to the pool) and returns every other one here,
/// so exactly `ARENAS_PER_WORKER - 1` remain to drain; a worker with no
/// epochs at all (more workers than epochs) drains all
/// `ARENAS_PER_WORKER` untouched preloads. Either way a blocking recv
/// terminates, and every arena is recovered — which is what keeps the
/// counting-allocator guard's run-to-run equality exact. On shutdown
/// paths (a dropped output or recycle lane) the worker returns
/// immediately with whatever it has.
pub(crate) fn parse_worker(
    worker: usize,
    plan: ParsePlan,
    packets: &[TracePacket],
    out: &spsc::Sender<EpochBatch>,
    recycle: &spsc::Receiver<EpochBatch>,
) -> Vec<EpochBatch> {
    let ParsePlan { workers, epoch_len, route, keyed } = plan;
    let epochs = epoch_count(packets.len(), epoch_len);
    // Epoch-local first-seen: cleared per epoch, capacity provisioned
    // once so steady-state epochs never reallocate it (an epoch holds
    // at most `epoch_len` distinct connections).
    let mut epoch_seen = ConnSet::with_capacity_and_hasher(epoch_len, Default::default());
    let mut kept = Vec::with_capacity(ARENAS_PER_WORKER);
    let mut mine = 0usize;
    for epoch in (worker..epochs).step_by(workers) {
        let Ok(mut arena) = recycle.recv() else {
            return kept; // the merge stage is gone
        };
        let base = epoch * epoch_len;
        let end = (base + epoch_len).min(packets.len());
        epoch_seen.clear();
        for (i, tp) in packets[base..end].iter().enumerate() {
            if arena.slots.len() == i {
                arena.slots.push(ParsedSlot::default()); // first-run growth
            }
            let candidate = !keyed && epoch_seen.insert(tp.conn_id);
            parse_slot(tp, &mut arena.slots[i], route, candidate);
        }
        arena.epoch = epoch as u64;
        arena.base = base as u64;
        arena.len = end - base;
        mine += 1;
        if out.send(arena).is_err() {
            return kept; // downstream died; surface at join
        }
    }
    let reclaim = if mine > 0 { ARENAS_PER_WORKER - 1 } else { ARENAS_PER_WORKER };
    for _ in 0..reclaim {
        match recycle.recv() {
            Ok(arena) => kept.push(arena),
            Err(_) => break, // shutdown race: merge stage bailed early
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::shard_of;
    use taurus_core::ingest::ObsBuilder;
    use taurus_dataset::kdd::KddGenerator;
    use taurus_dataset::trace::{PacketTrace, TraceConfig};

    #[test]
    fn parse_packet_matches_the_sequential_observation_modulo_flow_start() {
        let records = KddGenerator::new(71).take(80);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let mut builder = ObsBuilder::new();
        let mut slot = ParsedSlot::default();
        for tp in &trace.packets {
            let golden = builder.observe(tp);
            parse_packet(tp, &mut slot, 4096, 4, true);
            let mut wire = golden;
            wire.is_flow_start = false;
            assert_eq!(slot.prepared.obs, wire, "order-free fields agree");
            assert_eq!(slot.prepared.dst_count, 0, "window counts await the merge stage");
            assert_eq!(slot.conn_id, tp.conn_id);
            assert_eq!(slot.shard as usize, shard_of(golden.flow_key, 4096, 4));
            assert_eq!(slot.start_flags_ok, flow_start_flags_ok(tp));
        }
    }

    #[test]
    fn candidates_mark_exactly_the_first_in_epoch_occurrence() {
        let records = KddGenerator::new(72).take(40);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let epoch_len = 16;
        let mut seen = ConnSet::default();
        for chunk in trace.packets.chunks(epoch_len) {
            seen.clear();
            let mut slot = ParsedSlot::default();
            for tp in chunk {
                let candidate = seen.insert(tp.conn_id);
                parse_packet(tp, &mut slot, 4096, 2, candidate);
                assert_eq!(slot.candidate, candidate);
            }
        }
    }
}
