//! Trace → data-plane ingest: the parser-adjacent bookkeeping a switch
//! front end performs before packets enter any pipeline.
//!
//! Two things live here, shared by the sequential switch
//! ([`crate::switch::TaurusSwitch`]), the e2e harness
//! ([`crate::e2e::extract_stream_features`]), and the sharded runtime
//! (`taurus-runtime`):
//!
//! - [`to_packet`]: a [`TracePacket`] rendered as the on-the-wire
//!   [`Packet`] the parser consumes.
//! - [`ObsBuilder`]: the register-stage observation builder — direction
//!   from SYN-side bookkeeping, flow start from first-seen, and the
//!   three register keys (flow / destination-host / destination-service).
//!
//! Keeping this logic in one place is what makes "training and the data
//! plane see identical features" (§5.2.2) checkable: every consumer of a
//! trace derives [`PacketObs`] the same way.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use taurus_dataset::trace::{TracePacket, TCP_ACK, TCP_SYN};
use taurus_pisa::registers::PacketObs;
use taurus_pisa::Packet;

/// Smallest wire length the frontier admits (the Ethernet minimum frame
/// size the trace generator also clamps to). Anything shorter is a
/// truncated capture, not a packet.
pub const MIN_WIRE_LEN: u16 = 64;

/// Largest wire length the frontier admits (standard MTU-sized frames,
/// the trace generator's upper clamp). Anything longer overflowed a
/// field somewhere upstream.
pub const MAX_WIRE_LEN: u16 = 1500;

/// Why the ingest frontier refused a [`TracePacket`].
///
/// These are *quarantine* reasons, not panics: a malformed record in a
/// replayed capture (truncated length, a port field that was never
/// populated, a timestamp that runs backwards) must cost exactly one
/// counter increment and zero state mutations — the hardened analogue
/// of a switch parser dropping a malformed frame at the MAC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IngestError {
    /// `len == 0`: a zero-length flow record, no payload to observe.
    ZeroLength,
    /// `0 < len <` [`MIN_WIRE_LEN`]: a truncated capture.
    Truncated {
        /// The offending wire length.
        len: u16,
    },
    /// `len >` [`MAX_WIRE_LEN`]: an overflowed length field.
    Oversized {
        /// The offending wire length.
        len: u16,
    },
    /// A TCP/UDP packet with a zero source or destination port — the
    /// classic garbage-field signature of an uninitialized record.
    GarbagePort,
    /// An IP protocol number outside the trace vocabulary
    /// (TCP 6 / UDP 17 / ICMP 1).
    UnknownProtocol {
        /// The offending protocol number.
        proto: u8,
    },
    /// The timestamp runs backwards relative to the last *admitted*
    /// packet of the same feed — into the middle of the range already
    /// observed, so it is a corrupt record, not a capture replay
    /// (regressions to at-or-before the feed's opening timestamp are
    /// restarts; operators legitimately loop a trace, and the
    /// validator's clock rewinds with it). Detected only by the
    /// stateful [`IngestValidator`]; the pure [`validate_wire`] check
    /// cannot see it.
    NonMonotonicTimestamp,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::ZeroLength => write!(f, "zero-length flow record"),
            IngestError::Truncated { len } => {
                write!(f, "truncated wire length {len} (minimum {MIN_WIRE_LEN})")
            }
            IngestError::Oversized { len } => {
                write!(f, "oversized wire length {len} (maximum {MAX_WIRE_LEN})")
            }
            IngestError::GarbagePort => write!(f, "TCP/UDP packet with a zero port"),
            IngestError::UnknownProtocol { proto } => {
                write!(f, "unknown IP protocol {proto} (expected 6, 17, or 1)")
            }
            IngestError::NonMonotonicTimestamp => {
                write!(f, "timestamp runs backwards within a feed")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The order-free validity checks: everything [`IngestValidator`]
/// enforces except timestamp monotonicity, derived from the packet
/// alone. [`IngestValidator::admit`] runs them first, then the
/// monotonicity check, in arrival order.
#[inline]
pub fn validate_wire(tp: &TracePacket) -> Result<(), IngestError> {
    if tp.len == 0 {
        return Err(IngestError::ZeroLength);
    }
    if tp.len < MIN_WIRE_LEN {
        return Err(IngestError::Truncated { len: tp.len });
    }
    if tp.len > MAX_WIRE_LEN {
        return Err(IngestError::Oversized { len: tp.len });
    }
    match tp.tuple.proto {
        6 | 17 => {
            if tp.tuple.src_port == 0 || tp.tuple.dst_port == 0 {
                return Err(IngestError::GarbagePort);
            }
        }
        1 => {} // ICMP carries no ports; zeros are legitimate.
        proto => return Err(IngestError::UnknownProtocol { proto }),
    }
    Ok(())
}

/// The stateful ingest frontier: wire validity plus per-feed timestamp
/// monotonicity with capture-replay tolerance.
///
/// One validator guards one packet stream. Quarantined packets leave
/// *no* trace in it — in particular, a garbage `u64::MAX` timestamp
/// does not poison the frontier for every packet after it; only
/// *admitted* packets advance the clock. The clock rewinds in two
/// legitimate cases:
///
/// - at each feed boundary ([`IngestValidator::start_feed`]) — a feed
///   is the replay unit;
/// - on a **restart**: a regression to at-or-before the feed's opening
///   timestamp. Operators loop a capture back to back *within* one
///   feed (the runtime's own tests replay concatenated traces), and a
///   restarted trace by construction begins where the feed began. A
///   regression into the *middle* of the observed range matches no
///   replay pattern and quarantines as
///   [`IngestError::NonMonotonicTimestamp`].
#[derive(Debug, Clone, Default)]
pub struct IngestValidator {
    /// Timestamp of the first admitted packet of the current feed — the
    /// restart watermark.
    feed_start_ts: Option<u64>,
    /// Timestamp of the last admitted packet of the current feed.
    last_ts_ns: Option<u64>,
}

impl IngestValidator {
    /// A fresh validator with no admitted packets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the monotonicity clock for a new feed (timestamps may
    /// legitimately restart when a capture is replayed).
    pub fn start_feed(&mut self) {
        self.feed_start_ts = None;
        self.last_ts_ns = None;
    }

    /// Admits or quarantines one packet: the [`validate_wire`] checks,
    /// then monotonicity against the last admitted packet (with the
    /// restart tolerance described on the type). On `Ok` the clock
    /// advances; on `Err` the validator is untouched.
    #[inline]
    pub fn admit(&mut self, tp: &TracePacket) -> Result<(), IngestError> {
        validate_wire(tp)?;
        if let (Some(start), Some(last)) = (self.feed_start_ts, self.last_ts_ns) {
            if tp.ts_ns < last && tp.ts_ns > start {
                return Err(IngestError::NonMonotonicTimestamp);
            }
            // A regression to at-or-before the opening timestamp is a
            // capture replay: rewind the watermark with the restart so
            // later copies (or an earlier-starting capture) are judged
            // against their own origin.
            if tp.ts_ns < start {
                self.feed_start_ts = Some(tp.ts_ns);
            }
        } else {
            self.feed_start_ts = Some(tp.ts_ns);
        }
        self.last_ts_ns = Some(tp.ts_ns);
        Ok(())
    }
}

/// Renders a trace packet as the wire packet the parser consumes: its
/// five-tuple, flags and timestamp, with the wire length clamped up to
/// [`Packet::MIN_LEN`] as [`Packet::tcp`] clamps it. The value is built
/// once, field by field, so a caller's slot is written and never read
/// back.
#[inline]
pub fn to_packet(tp: &TracePacket) -> Packet {
    Packet {
        src_ip: tp.tuple.src_ip,
        dst_ip: tp.tuple.dst_ip,
        proto: tp.tuple.proto,
        src_port: tp.tuple.src_port,
        dst_port: tp.tuple.dst_port,
        tcp_flags: tp.tcp_flags,
        wire_len: tp.len.max(Packet::MIN_LEN),
        ts_ns: tp.ts_ns,
    }
}

/// In-place variant of [`to_packet`]: overwrites a resident [`Packet`]
/// with the trace packet's wire form. Hot ingest loops (the sharded
/// runtime's batch arena) rewrite recycled slots with this instead of
/// constructing and copying a fresh value per packet.
#[inline]
pub fn to_packet_into(tp: &TracePacket, p: &mut Packet) {
    *p = to_packet(tp);
}

/// The order-free half of an observation: everything [`PacketObs`]
/// carries except `is_flow_start`, derived from the packet alone (keys
/// from the canonical tuple and responder endpoint, direction, wire
/// fields). It needs no cross-packet state — only the first-seen bit
/// (see [`ObsBuilder::mark_seen`]) is order-bound — so the runtime can
/// parse a packet and then refuse it with no flow state touched.
/// `obs.is_flow_start` is left `false`.
#[inline]
pub fn wire_obs(tp: &TracePacket, obs: &mut PacketObs) {
    // Hash first: the wire fields are read after it, not held in
    // registers across it.
    let flow_key = tp.tuple.canonical().hash();
    *obs = packet_obs(&to_packet(tp), flow_key, tp.len, tp.reverse, false);
}

/// The observation of a wire packet, given what its header fields do
/// not say: the canonical flow key, the unclamped wire length, the
/// direction, and the resolved first-seen bit. The destination-host and
/// destination-service keys are the responder endpoint's (the
/// destination of forward packets) times one odd constant each, so a
/// packet that crossed a lane without them gets them back for two
/// multiplies, never a second five-tuple hash. [`wire_obs`] derives
/// every observation through this, so the keys live in one place.
#[inline]
pub fn packet_obs(
    pkt: &Packet,
    flow_key: u64,
    len: u16,
    reverse: bool,
    is_flow_start: bool,
) -> PacketObs {
    let (resp_ip, resp_port) =
        if reverse { (pkt.src_ip, pkt.src_port) } else { (pkt.dst_ip, pkt.dst_port) };
    PacketObs {
        flow_key,
        dst_key: u64::from(resp_ip).wrapping_mul(0x9E3779B97F4A7C15),
        srv_key: (u64::from(resp_ip) << 16 | u64::from(resp_port)).wrapping_mul(0x9E3779B97F4A7C15),
        reverse,
        is_flow_start,
        len,
        tcp_flags: pkt.tcp_flags,
        proto: pkt.proto,
        ts_ns: pkt.ts_ns,
    }
}

/// Whether a packet's flags qualify it as a flow start *if* it is the
/// connection's first packet: non-TCP always does, TCP requires a bare
/// SYN (SYN set, ACK clear). Packet-local; the order-bound first-seen
/// bit is resolved separately ([`ObsBuilder::mark_seen`]).
#[inline]
pub fn flow_start_flags_ok(tp: &TracePacket) -> bool {
    tp.tuple.proto != 6 || tp.tcp_flags & TCP_SYN != 0 && tp.tcp_flags & TCP_ACK == 0
}

/// A set of connection ids — the first-seen probe every flow start goes
/// through ([`ObsBuilder`]'s seen-set).
///
/// Connection ids are dense counters handed out by the trace front end,
/// not wire fields a sender chooses, so the set trades the default
/// hasher's collision-attack resistance for a fixed-key integer mix: a
/// probe is two multiplies, not a SipHash round trip.
pub type ConnSet = HashSet<u32, BuildHasherDefault<ConnIdHasher>>;

/// The [`ConnSet`] hasher: splitmix64's finalizer over the keyed id.
///
/// The table behind `HashSet` indexes with a hash's low bits and tags
/// entries with its top seven; the finalizer is a bijection on `u64`
/// whose every output bit depends on every input bit, so consecutive
/// ids spread over both.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnIdHasher(u64);

impl ConnIdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let mut z = (self.0 ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

impl Hasher for ConnIdHasher {
    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.mix(u64::from(id));
    }

    /// Not reached by `u32` keys; any other key type still hashes all
    /// of its input, a byte per mix.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds register-stage observations the way hardware would, tracking
/// first-seen connections to mark flow starts. Must observe packets in
/// arrival order; one builder per packet stream.
///
/// The *untracked* variant ([`ObsBuilder::untracked`]) keeps no
/// first-seen set at all: it leaves `is_flow_start` false and expects a
/// keyed flow table (or flow directory) downstream to resolve starts by
/// table-miss semantics — the configuration that deletes the unbounded
/// per-connection `HashSet` from long-lived keyed-mode streams.
#[derive(Debug, Clone)]
pub struct ObsBuilder {
    /// `Some`: the classic tracked builder. `None`: untracked — flow
    /// starts are somebody else's (the keyed table's) problem.
    seen_flows: Option<ConnSet>,
}

impl Default for ObsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsBuilder {
    /// A fresh tracked builder with no flows seen.
    pub fn new() -> Self {
        Self { seen_flows: Some(ConnSet::default()) }
    }

    /// A builder that never tracks connections and never marks a flow
    /// start, for keyed-mode streams where a miss in the keyed flow
    /// table *is* the flow start. Holds no per-connection state, so its
    /// memory is O(1) regardless of stream length.
    pub fn untracked() -> Self {
        Self { seen_flows: None }
    }

    /// Whether this builder tracks first-seen connections.
    pub fn is_tracked(&self) -> bool {
        self.seen_flows.is_some()
    }

    /// Builds the observation for one packet: direction from SYN-side
    /// bookkeeping, flow start from first-seen (TCP flows additionally
    /// require a bare SYN), keys from the canonical tuple and responder
    /// endpoint.
    #[inline]
    pub fn observe(&mut self, tp: &TracePacket) -> PacketObs {
        let mut obs = PacketObs::default();
        self.observe_into(tp, &mut obs);
        obs
    }

    /// In-place variant of [`ObsBuilder::observe`]: overwrites a
    /// resident [`PacketObs`] (a recycled batch-arena slot) instead of
    /// returning a fresh value.
    #[inline]
    pub fn observe_into(&mut self, tp: &TracePacket, obs: &mut PacketObs) {
        wire_obs(tp, obs);
        obs.is_flow_start = self.mark_seen(tp.conn_id) && flow_start_flags_ok(tp);
    }

    /// Records that `conn_id` has been observed, returning whether this
    /// is its first sighting (always `false` untracked). This is the
    /// *only* order-bound piece of observation building: the runtime's
    /// ingest loop calls it per admitted packet, in global arrival
    /// order, after [`wire_obs`].
    #[inline]
    pub fn mark_seen(&mut self, conn_id: u32) -> bool {
        match &mut self.seen_flows {
            Some(seen) => seen.insert(conn_id),
            None => false,
        }
    }

    /// Forgets all seen flows (between experiment phases).
    pub fn reset(&mut self) {
        if let Some(seen) = &mut self.seen_flows {
            seen.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_dataset::kdd::KddGenerator;
    use taurus_dataset::trace::{PacketTrace, TraceConfig};

    fn conn_hash(id: u32) -> u64 {
        let mut h = ConnIdHasher::default();
        h.write_u32(id);
        h.finish()
    }

    #[test]
    fn conn_hash_spreads_every_id_bit_over_index_and_tag_bits() {
        // hashbrown indexes with the low bits and tags with the top
        // seven: flipping any one id bit must flip each of those output
        // bits about half the time, dense counter ids included.
        const WATCHED: [u32; 14] = [0, 1, 2, 3, 4, 5, 6, 57, 58, 59, 60, 61, 62, 63];
        let ids = 0..1024u32;
        for in_bit in 0..32 {
            let mut flips = [0usize; WATCHED.len()];
            for id in ids.clone() {
                let diff = conn_hash(id) ^ conn_hash(id ^ 1 << in_bit);
                for (n, out_bit) in flips.iter_mut().zip(WATCHED) {
                    *n += (diff >> out_bit & 1) as usize;
                }
            }
            for (n, out_bit) in flips.into_iter().zip(WATCHED) {
                assert!(
                    (ids.len() * 3 / 8..=ids.len() * 5 / 8).contains(&n),
                    "id bit {in_bit} flips hash bit {out_bit} in {n} of {} ids",
                    ids.len()
                );
            }
        }
    }

    #[test]
    fn conn_set_keeps_set_semantics() {
        let mut fast = ConnSet::default();
        let mut reference = HashSet::<u32>::new();
        let mut state = 0x5EED_u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            // Ids cluster low (dense counters) with the odd far outlier.
            let id =
                if state >> 60 == 0 { (state >> 8) as u32 } else { (state >> 40) as u32 % 4096 };
            match state >> 32 & 3 {
                0 => assert_eq!(fast.remove(&id), reference.remove(&id)),
                1 => assert_eq!(fast.contains(&id), reference.contains(&id)),
                _ => assert_eq!(fast.insert(id), reference.insert(id)),
            }
        }
        assert_eq!(fast.len(), reference.len());
        assert!(fast.iter().all(|id| reference.contains(id)));
    }

    #[test]
    fn flow_start_marked_once_per_connection() {
        let records = KddGenerator::new(91).take(60);
        let trace = PacketTrace::expand(records.clone(), &TraceConfig::default());
        let mut b = ObsBuilder::new();
        let mut starts = 0usize;
        for tp in &trace.packets {
            if b.observe(tp).is_flow_start {
                starts += 1;
            }
        }
        assert!(starts > 0);
        assert!(starts <= records.len(), "at most one start per connection");
        // A second pass over the same stream marks no starts at all.
        assert!(trace.packets.iter().all(|tp| !b.observe(tp).is_flow_start));
        b.reset();
        assert!(b.observe(&trace.packets[0]).is_flow_start || trace.packets[0].tuple.proto == 6);
    }

    #[test]
    fn both_directions_share_flow_key_but_not_direction() {
        let records = KddGenerator::new(92).take(120);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let mut b = ObsBuilder::new();
        let obs: Vec<_> = trace.packets.iter().map(|tp| (tp, b.observe(tp))).collect();
        let rev = obs.iter().find(|(tp, _)| tp.reverse).expect("has reverse packets");
        let fwd = obs
            .iter()
            .find(|(tp, _)| !tp.reverse && tp.conn_id == rev.0.conn_id)
            .expect("same connection seen forward");
        assert_eq!(fwd.1.flow_key, rev.1.flow_key, "canonical key is direction-free");
        assert_eq!(fwd.1.dst_key, rev.1.dst_key, "responder key is direction-free");
        assert!(!fwd.1.reverse && rev.1.reverse);
    }

    #[test]
    fn wire_obs_plus_mark_seen_reassembles_observe_exactly() {
        // The split the parallel ingest pipeline relies on: the
        // order-free wire observation plus the order-bound first-seen
        // bit, applied in arrival order, must equal the classic
        // sequential builder bit for bit.
        let records = KddGenerator::new(94).take(120);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let mut classic = ObsBuilder::new();
        let mut split = ObsBuilder::new();
        for tp in &trace.packets {
            let golden = classic.observe(tp);
            let mut obs = PacketObs::default();
            wire_obs(tp, &mut obs);
            assert!(!obs.is_flow_start, "wire_obs never claims a flow start");
            obs.is_flow_start = split.mark_seen(tp.conn_id) && flow_start_flags_ok(tp);
            assert_eq!(obs, golden);
        }
    }

    #[test]
    fn untracked_builder_never_marks_starts_but_matches_wire_fields() {
        let records = KddGenerator::new(95).take(60);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let mut tracked = ObsBuilder::new();
        let mut untracked = ObsBuilder::untracked();
        assert!(tracked.is_tracked());
        assert!(!untracked.is_tracked());
        for tp in &trace.packets {
            let golden = tracked.observe(tp);
            let u = untracked.observe(tp);
            assert!(!u.is_flow_start, "untracked never claims a start");
            assert!(!untracked.mark_seen(tp.conn_id), "mark_seen is inert untracked");
            assert_eq!(PacketObs { is_flow_start: false, ..golden }, u, "wire fields agree");
        }
        untracked.reset(); // inert, but must not panic
    }

    #[test]
    fn generated_traces_pass_the_frontier_untouched() {
        // The validating layer must be a strict no-op on every trace the
        // generator can produce — otherwise hardening would change the
        // accounting of all existing experiments.
        let records = KddGenerator::new(96).take(200);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let mut v = IngestValidator::new();
        v.start_feed();
        for tp in &trace.packets {
            assert_eq!(v.admit(tp), Ok(()), "generated packet quarantined: {tp:?}");
        }
        // Replaying the same capture as a *new* feed is legitimate even
        // though its timestamps restart.
        v.start_feed();
        assert_eq!(v.admit(&trace.packets[0]), Ok(()));
    }

    #[test]
    fn wire_checks_catch_each_malformation_with_fixed_priority() {
        let records = KddGenerator::new(97).take(10);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let good = trace.packets.iter().copied().find(|p| p.tuple.proto == 6).unwrap();
        assert_eq!(validate_wire(&good), Ok(()));

        let mut p = good;
        p.len = 0;
        assert_eq!(validate_wire(&p), Err(IngestError::ZeroLength));
        // Zero length outranks the garbage port it may also carry.
        p.tuple.src_port = 0;
        assert_eq!(validate_wire(&p), Err(IngestError::ZeroLength));

        let mut p = good;
        p.len = MIN_WIRE_LEN - 1;
        assert_eq!(validate_wire(&p), Err(IngestError::Truncated { len: 63 }));
        p.len = MAX_WIRE_LEN + 1;
        assert_eq!(validate_wire(&p), Err(IngestError::Oversized { len: 1501 }));
        p.len = u16::MAX;
        assert_eq!(validate_wire(&p), Err(IngestError::Oversized { len: u16::MAX }));

        let mut p = good;
        p.tuple.dst_port = 0;
        assert_eq!(validate_wire(&p), Err(IngestError::GarbagePort));
        // ICMP has no ports: the same zeros are legitimate there.
        p.tuple.proto = 1;
        assert_eq!(validate_wire(&p), Ok(()));
        p.tuple.proto = 99;
        assert_eq!(validate_wire(&p), Err(IngestError::UnknownProtocol { proto: 99 }));
    }

    #[test]
    fn quarantined_timestamps_do_not_poison_the_clock() {
        let records = KddGenerator::new(98).take(10);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let good = trace.packets.iter().copied().find(|p| p.tuple.proto == 6).unwrap();
        let mut v = IngestValidator::new();
        let at = |ts: u64| {
            let mut p = good;
            p.ts_ns = ts;
            p
        };

        assert_eq!(v.admit(&at(1_000)), Ok(()));
        assert_eq!(v.admit(&at(2_000)), Ok(()));

        // A garbage far-future timestamp on a wire-invalid packet must
        // not advance the clock...
        let mut garbage = at(u64::MAX);
        garbage.len = 0;
        assert_eq!(v.admit(&garbage), Err(IngestError::ZeroLength));

        // ...and neither does a quarantined mid-range regression: the
        // next packet is judged against the last *admitted* timestamp.
        assert_eq!(v.admit(&at(1_500)), Err(IngestError::NonMonotonicTimestamp));

        assert_eq!(v.admit(&at(2_000)), Ok(()), "ties are fine; only strict regressions fail");
    }

    #[test]
    fn replay_restarts_rewind_the_clock_but_corrupt_regressions_do_not() {
        let records = KddGenerator::new(99).take(10);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let good = trace.packets.iter().copied().find(|p| p.tuple.proto == 6).unwrap();
        let mut v = IngestValidator::new();
        let at = |ts: u64| {
            let mut p = good;
            p.ts_ns = ts;
            p
        };

        // First copy of the capture: 1000..=3000.
        assert_eq!(v.admit(&at(1_000)), Ok(()));
        assert_eq!(v.admit(&at(3_000)), Ok(()));
        // Looped back to its own start: a restart, not corruption — the
        // clock rewinds and the second copy is judged on its own terms.
        assert_eq!(v.admit(&at(1_000)), Ok(()));
        assert_eq!(v.admit(&at(2_000)), Ok(()));
        // A regression into the middle of the observed range is still a
        // corrupt record.
        assert_eq!(v.admit(&at(1_500)), Err(IngestError::NonMonotonicTimestamp));
        // A restart *below* the original start lowers the watermark...
        assert_eq!(v.admit(&at(500)), Ok(()));
        assert_eq!(v.admit(&at(800)), Ok(()));
        // ...so the old start is now mid-range, and corrupt there.
        assert_eq!(v.admit(&at(700)), Err(IngestError::NonMonotonicTimestamp));
    }

    #[test]
    fn to_packet_preserves_wire_fields() {
        let records = KddGenerator::new(93).take(40);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        for tp in trace.packets.iter().take(64) {
            let p = to_packet(tp);
            assert_eq!(p.src_ip, { tp.tuple.src_ip });
            assert_eq!(p.dst_ip, { tp.tuple.dst_ip });
            assert_eq!(p.proto, tp.tuple.proto);
            assert_eq!(p.wire_len, tp.len);
            assert_eq!(p.ts_ns, tp.ts_ns);
            assert_eq!(p.tcp_flags, tp.tcp_flags);
        }
    }

    #[test]
    fn to_packet_is_the_tcp_packet_with_the_trace_proto_and_clock() {
        let records = KddGenerator::new(94).take(40);
        let trace = PacketTrace::expand(records, &TraceConfig::default());
        let lens =
            [0, 1, Packet::MIN_LEN - 1, Packet::MIN_LEN, Packet::MIN_LEN + 1, 1500, u16::MAX];
        for (tp, len) in trace.packets.iter().zip(lens.iter().cycle()).take(64) {
            let tp = TracePacket { len: *len, ..*tp };
            let mut expected = Packet::tcp(
                tp.tuple.src_ip,
                tp.tuple.dst_ip,
                tp.tuple.src_port,
                tp.tuple.dst_port,
                tp.tcp_flags,
                tp.len,
            );
            expected.proto = tp.tuple.proto;
            expected.ts_ns = tp.ts_ns;
            assert_eq!(to_packet(&tp), expected, "len {len}");
            let mut slot = Packet::tcp(9, 9, 9, 9, 9, 9);
            to_packet_into(&tp, &mut slot);
            assert_eq!(slot, expected, "in place, len {len}");
        }
    }
}
