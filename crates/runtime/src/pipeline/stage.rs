//! The order-free half of ingest: everything a packet says about
//! itself — wire form, register keys, flow-start flag predicate, home
//! shard — derived with no cross-packet state at all. The order-bound
//! half (`steer.rs`) finishes the packet.

use taurus_core::ingest::{flow_start_flags_ok, to_packet_into, wire_obs};
use taurus_dataset::trace::TracePacket;
use taurus_pisa::registers::PacketObs;

use crate::runtime::{PreparedPacket, Route};

/// One packet after [`parse_packet`]: the fully prepared form (window
/// counts still zero — [`crate::resolve_and_count`] fills them) plus
/// the inputs that resolution needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedSlot {
    /// The packet as it will cross the steer→engine channel. Its
    /// `obs.is_flow_start`, `dst_count`, and `srv_count` are finalized
    /// by [`crate::resolve_and_count`]; everything else is parse output.
    pub prepared: PreparedPacket,
    /// Originating connection, for global first-seen resolution.
    pub conn_id: u32,
    /// Home shard (`shard_of` over the precomputed flow key), so
    /// steering routes without rehashing.
    pub shard: u32,
    /// Whether the packet can be its connection's global first. A
    /// caller that pre-filters (say, marking only the first packet of a
    /// connection within a block) saves the seen-set probe on the rest;
    /// the runtime's own ingest does not filter and treats every packet
    /// as a candidate.
    pub candidate: bool,
    /// Whether the packet's flags qualify it as a flow start if it is
    /// the global first ([`taurus_core::ingest::flow_start_flags_ok`]).
    pub start_flags_ok: bool,
}

/// The order-free parse of one packet, minus its wire form: fills
/// `obs` (first-seen bit left unresolved) and returns the home shard.
#[inline]
pub(crate) fn parse_obs(tp: &TracePacket, obs: &mut PacketObs, route: Route) -> usize {
    wire_obs(tp, obs);
    route.shard_of(obs.flow_key)
}

/// Fills one slot with everything derivable from the packet alone:
/// wire form, keyed observation (first-seen bit left unresolved),
/// flow-start flag predicate, and home shard
/// ([`crate::runtime::shard_of`] over `route_slots` and `shards`) — the
/// same `parse_obs` the runtime's ingest loop runs per packet. The
/// caller supplies `candidate` (see [`ParsedSlot::candidate`]).
pub fn parse_packet(
    tp: &TracePacket,
    slot: &mut ParsedSlot,
    route_slots: usize,
    shards: usize,
    candidate: bool,
) {
    let shard = parse_obs(tp, &mut slot.prepared.obs, Route::new(route_slots, shards));
    to_packet_into(tp, &mut slot.prepared.pkt);
    slot.prepared.dst_count = 0;
    slot.prepared.srv_count = 0;
    slot.prepared.anomalous = tp.anomalous;
    slot.conn_id = tp.conn_id;
    slot.shard = shard as u32;
    slot.candidate = candidate;
    slot.start_flags_ok = flow_start_flags_ok(tp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::shard_of;
    use taurus_core::ingest::{ConnSet, ObsBuilder};
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
