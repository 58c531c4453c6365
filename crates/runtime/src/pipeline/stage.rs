//! The order-free half of ingest: everything a packet says about
//! itself — wire form, register keys, flow-start flag predicate, home
//! shard — derived with no cross-packet state at all. The order-bound
//! half (`steer.rs`) finishes the packet.

use taurus_core::ingest::{flow_start_flags_ok, wire_obs};
use taurus_dataset::trace::TracePacket;
use taurus_pisa::registers::PacketObs;
use taurus_pisa::SlotOp;

use crate::runtime::{PreparedPacket, Route};

/// One packet after [`parse_packet`]: the fully prepared form (op and
/// window counts still zero — [`crate::resolve_and_count`] fills them), its
/// register-stage observation, and the inputs that resolution needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedSlot {
    /// The packet as it will cross the steer→engine channel. Its slot
    /// op, `dst_count`, and `srv_count` are finalized by
    /// [`crate::resolve_and_count`]; everything else is parse output.
    pub prepared: PreparedPacket,
    /// The packet's register-stage observation, which resolution reads
    /// (keys, timestamp) and whose `is_flow_start` it finalizes.
    pub obs: PacketObs,
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
    let shard = parse_obs(tp, &mut slot.obs, Route::new(route_slots, shards));
    slot.prepared.fill(tp, SlotOp::default(), (0, 0), 0);
    slot.conn_id = tp.conn_id;
    slot.shard = shard as u32;
    slot.candidate = candidate;
    slot.start_flags_ok = flow_start_flags_ok(&slot.obs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::shard_of;
    use taurus_core::ingest::{ConnSet, ObsBuilder};
    use taurus_dataset::kdd::KddGenerator;
    use taurus_dataset::trace::{PacketTrace, TraceConfig};
    use taurus_pisa::PreparedInput;

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
            assert_eq!(slot.obs, wire, "order-free fields agree");
            let keyless = PacketObs { flow_key: 0, ..wire };
            assert!(!keyless.is_flow_start);
            assert_eq!(slot.prepared.obs(), keyless, "the slot rebuilds the observation");
            assert_eq!(slot.prepared.dst_count, 0, "window counts await the merge stage");
            assert_eq!(slot.conn_id, tp.conn_id);
            assert_eq!(slot.shard as usize, shard_of(golden.flow_key, 4096, 4));
            assert_eq!(slot.start_flags_ok, flow_start_flags_ok(&golden));
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
