//! Expansion of connection records into labelled packet traces.
//!
//! §5.2.2: *"We generate labeled packet-level traces from the NSL-KDD
//! dataset by expanding connection-level records to binned packet traces
//! (i.e., each trace element represents a set of packets) and annotating
//! them with their status (anomalous or benign). Flow-size distribution,
//! mixing, and packet fields' rates of change are sampled from the
//! original traces to create a realistic workload."*
//!
//! [`PacketTrace::expand`] reproduces that step: each connection becomes a
//! stream of [`TracePacket`]s with five-tuples, sizes, TCP flags, and
//! timestamps; connections arrive as a Poisson process and interleave
//! (mixing); anomalous connections originate from a bounded attacker-host
//! pool so the baseline's install-a-rule-per-IP strategy has the same
//! semantics as in the paper's testbed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist;
use crate::kdd::{ConnRecord, Protocol};

/// TCP flag bit: SYN.
pub const TCP_SYN: u8 = 0x02;
/// TCP flag bit: ACK.
pub const TCP_ACK: u8 = 0x10;
/// TCP flag bit: FIN.
pub const TCP_FIN: u8 = 0x01;
/// TCP flag bit: URG.
pub const TCP_URG: u8 = 0x20;
/// TCP flag bit: RST.
pub const TCP_RST: u8 = 0x04;

/// The classic five-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, 1 = ICMP).
    pub proto: u8,
}

impl FiveTuple {
    /// The tuple with endpoints swapped (the reverse direction).
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// A direction-independent flow key: both directions of a connection
    /// hash to the same value (how a switch keys bidirectional flow
    /// state).
    pub fn canonical(&self) -> FiveTuple {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            *self
        } else {
            self.reversed()
        }
    }

    /// A stable non-cryptographic hash (FNV-1a), used to index register
    /// arrays the way a switch would.
    pub fn hash(&self) -> u64 {
        // Feed the 13 key bytes straight through FNV-1a — same byte
        // order as the old `concat()` formulation, but allocation-free:
        // this runs once per packet on the ingest hot path.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut step = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        };
        self.src_ip.to_be_bytes().into_iter().for_each(&mut step);
        self.dst_ip.to_be_bytes().into_iter().for_each(&mut step);
        self.src_port.to_be_bytes().into_iter().for_each(&mut step);
        self.dst_port.to_be_bytes().into_iter().for_each(&mut step);
        step(self.proto);
        h
    }
}

/// One trace element — a packet (bin) with its metadata and ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePacket {
    /// Arrival time in nanoseconds from trace start.
    pub ts_ns: u64,
    /// Flow five-tuple (as seen on the wire: reverse-direction packets
    /// carry the swapped tuple).
    pub tuple: FiveTuple,
    /// Wire length in bytes.
    pub len: u16,
    /// TCP flag bits ([`TCP_SYN`] etc.; 0 for non-TCP).
    pub tcp_flags: u8,
    /// Index of the originating connection in [`PacketTrace::records`].
    pub conn_id: u32,
    /// Ground-truth anomaly label (from the connection's class).
    pub anomalous: bool,
    /// Whether this packet travels responder → originator.
    pub reverse: bool,
}

/// Parameters for trace expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// RNG seed.
    pub seed: u64,
    /// Offered load in Gb/s (the paper fixes 5 Gb/s).
    pub rate_gbps: f64,
    /// Number of distinct benign source hosts.
    pub benign_hosts: u32,
    /// Number of distinct attacker source hosts.
    pub attacker_hosts: u32,
    /// Mean packets per connection before scaling by connection bytes.
    pub mean_packets_per_conn: f64,
    /// Maximum packets for a single connection (tail clamp).
    pub max_packets_per_conn: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            seed: 0xBEEF,
            rate_gbps: 5.0,
            benign_hosts: 2_000,
            attacker_hosts: 40,
            mean_packets_per_conn: 12.0,
            max_packets_per_conn: 256,
        }
    }
}

/// A fully expanded, time-sorted packet trace plus its source records.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketTrace {
    /// All packets, sorted by `ts_ns`.
    pub packets: Vec<TracePacket>,
    /// The connection records the packets were expanded from, indexed by
    /// [`TracePacket::conn_id`].
    pub records: Vec<ConnRecord>,
}

impl PacketTrace {
    /// Expands connection records into an interleaved packet trace.
    ///
    /// Connection start times form a Poisson process whose rate is chosen
    /// so the average offered load matches `config.rate_gbps`; each
    /// connection's packets are spread over its duration with sizes
    /// proportioned from its byte counts.
    ///
    /// Packets come out in arrival order (`ts_ns`, ties in generation
    /// order) as they are generated, so the trace is never held twice:
    /// see `ArrivalOrder`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty or `config.rate_gbps` is not positive.
    pub fn expand(records: Vec<ConnRecord>, config: &TraceConfig) -> Self {
        let mut arrivals = ArrivalOrder::default();
        Self::generate(&records, config, &mut arrivals);
        Self { packets: arrivals.finish(), records }
    }

    /// Draws every packet of `records` and hands each to `sink` in
    /// generation order: connection by connection, each connection's
    /// packets in sequence. Before connection `c`'s packets,
    /// [`PacketSink::connection_starts`] announces `⌊t_start(c)·1e9⌋`,
    /// a floor no packet generated from then on falls below.
    fn generate(records: &[ConnRecord], config: &TraceConfig, sink: &mut impl PacketSink) {
        assert!(!records.is_empty(), "cannot expand an empty record set");
        assert!(config.rate_gbps > 0.0, "rate_gbps must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // First pass: decide per-connection packet counts so we can set the
        // arrival rate to hit the target load.
        let pkt_counts: Vec<usize> = records
            .iter()
            .map(|r| {
                let scale = ((r.src_bytes + r.dst_bytes) / 1400.0).max(1.0) as f64;
                let lambda = (config.mean_packets_per_conn * scale.ln().max(1.0)).min(500.0);
                (dist::poisson(&mut rng, lambda) as usize + 1).min(config.max_packets_per_conn)
            })
            .collect();
        let total: usize = pkt_counts.iter().sum();
        sink.reserve(total);

        let mut total_bytes = 0u64;
        let mut sizes: Vec<u16> = Vec::with_capacity(total);
        for (r, &n) in records.iter().zip(&pkt_counts) {
            let mean_size = ((r.src_bytes + r.dst_bytes) / n as f32).clamp(64.0, 1500.0) as f64;
            for _ in 0..n {
                let s = dist::normal(&mut rng, mean_size, mean_size * 0.3).clamp(64.0, 1500.0);
                let s = s as u16;
                total_bytes += u64::from(s);
                sizes.push(s);
            }
        }

        // Duration of the trace at the configured rate, then the Poisson
        // arrival rate that fills it with all connections.
        let total_bits = total_bytes as f64 * 8.0;
        let trace_secs = total_bits / (config.rate_gbps * 1e9);
        let arrival_rate = records.len() as f64 / trace_secs.max(1e-9);
        // Packets spread over the connection duration, clamped to a
        // fraction of the trace length — the binned-trace compression
        // step of §5.2.2 (connection durations are seconds, the trace
        // itself is tens of milliseconds at 5 Gb/s). A trace shorter
        // than 20 µs would put that cap below the 1 µs floor; the floor
        // wins.
        let max_dur = (trace_secs * 0.05).max(1e-6);

        let mut t_start = 0.0f64;
        let mut conn_sizes = sizes.iter().copied();
        for (conn_id, (record, &n)) in records.iter().zip(&pkt_counts).enumerate() {
            t_start += dist::exponential(&mut rng, arrival_rate);
            sink.connection_starts((t_start * 1e9) as u64);
            let tuple = Self::tuple_for(record, conn_id, config, &mut rng);
            // Direction split: the share of reverse-direction packets
            // follows the connection's responder byte share.
            let total_conn = (record.src_bytes + record.dst_bytes).max(1.0);
            let rev_frac = f64::from(record.dst_bytes / total_conn);
            let dur = f64::from(record.duration).clamp(1e-6, max_dur);
            let urgent_budget = record.urgent as usize;
            for (i, len) in conn_sizes.by_ref().take(n).enumerate() {
                let frac = if n == 1 { 0.0 } else { i as f64 / (n - 1) as f64 };
                let jitter = dist::exponential(&mut rng, 1.0 / (dur / n as f64 + 1e-9)) * 0.1;
                let ts = t_start + frac * dur + jitter;
                let tcp_flags = if record.protocol == Protocol::Tcp {
                    Self::flags_for(record, i, n, urgent_budget)
                } else {
                    0
                };
                // First packet always travels forward (SYN direction).
                let reverse = i > 0 && rng.gen_bool(rev_frac);
                sink.push(TracePacket {
                    ts_ns: (ts * 1e9) as u64,
                    tuple: if reverse { tuple.reversed() } else { tuple },
                    len,
                    tcp_flags,
                    conn_id: conn_id as u32,
                    anomalous: record.is_anomalous(),
                    reverse,
                });
            }
        }
    }

    fn tuple_for(
        record: &ConnRecord,
        conn_id: usize,
        config: &TraceConfig,
        rng: &mut StdRng,
    ) -> FiveTuple {
        // Benign sources: 10.0.0.0/16 pool; attackers: 172.16.0.0/16 pool.
        let src_ip = if record.is_anomalous() {
            0xAC10_0000 | rng.gen_range(0..config.attacker_hosts.max(1))
        } else {
            0x0A00_0000 | rng.gen_range(0..config.benign_hosts.max(1))
        };
        let dst_ip = 0xC0A8_0000 | (conn_id as u32 % 512);
        let dst_port = match record.service {
            crate::kdd::Service::Http => 80,
            crate::kdd::Service::Dns => 53,
            crate::kdd::Service::Smtp => 25,
            crate::kdd::Service::Ftp => 21,
            crate::kdd::Service::Telnet => 23,
            crate::kdd::Service::Other => rng.gen_range(1024..65535),
        };
        let proto = match record.protocol {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
        };
        FiveTuple { src_ip, dst_ip, src_port: rng.gen_range(32768..61000), dst_port, proto }
    }

    fn flags_for(record: &ConnRecord, i: usize, n: usize, urgent_budget: usize) -> u8 {
        use crate::kdd::ConnFlag;
        let mut flags = 0u8;
        if i == 0 {
            flags |= TCP_SYN;
        } else {
            flags |= TCP_ACK;
        }
        // S0 connections never complete the handshake: every packet is a
        // bare SYN (retries), the classic SYN-flood shape.
        if record.flag == ConnFlag::S0 {
            flags = TCP_SYN;
        }
        if record.flag == ConnFlag::Rej && i == n - 1 {
            flags |= TCP_RST;
        }
        if i > 0 && i <= urgent_budget {
            flags |= TCP_URG;
        }
        if i == n - 1 && record.flag == ConnFlag::Sf {
            flags |= TCP_FIN;
        }
        flags
    }

    /// Iterates the trace in arrival order as fixed-size packet batches
    /// (the last batch may be short) — the ingest granularity of batched
    /// runtimes, so drivers never materialize a second copy of the
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn batches(&self, batch_size: usize) -> core::slice::Chunks<'_, TracePacket> {
        assert!(batch_size > 0, "batch_size must be positive");
        self.packets.chunks(batch_size)
    }

    /// Total trace duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.packets.last().map_or(0, |p| p.ts_ns)
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| u64::from(p.len)).sum()
    }

    /// Achieved average offered load in Gb/s.
    pub fn rate_gbps(&self) -> f64 {
        let d = self.duration_ns();
        if d == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / d as f64
    }

    /// Fraction of packets labelled anomalous.
    pub fn anomalous_fraction(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        self.packets.iter().filter(|p| p.anomalous).count() as f64 / self.packets.len() as f64
    }
}

/// Where [`PacketTrace::generate`] puts the packets it draws.
trait PacketSink {
    /// Room for `total` packets, all told.
    fn reserve(&mut self, total: usize);
    /// A connection starts: no packet pushed from now on has a
    /// `ts_ns` below `floor_ns`.
    fn connection_starts(&mut self, floor_ns: u64);
    /// The next packet in generation order.
    fn push(&mut self, packet: TracePacket);
}

/// Arrival-order emission without a second copy of the trace.
///
/// The order is that of a stable sort of the generated packets by
/// `ts_ns`. Connection start times never decrease and every packet of a
/// connection lands at or after its start, so once connection `c`
/// starts, a pending packet at or below `⌊t_start(c)·1e9⌋` precedes
/// every packet still to come (on a tie, by generation order) and is
/// final. Final packets move from `pending` to `packets`, which is
/// sized for the whole trace up front. `pending` holds only the packets
/// still in flight; it is sorted stably, so ties keep generation order,
/// and released only once it has doubled since the last release, which
/// keeps the sorting amortized `O(log n)` per packet.
#[derive(Default)]
struct ArrivalOrder {
    packets: Vec<TracePacket>,
    pending: Vec<TracePacket>,
    /// `pending.len()` after the last release.
    kept: usize,
}

impl ArrivalOrder {
    /// The smallest pending buffer worth a sort.
    const MIN_RELEASE: usize = 256;

    /// Moves every pending packet at or below `floor_ns` to `packets`,
    /// in order.
    fn release_through(&mut self, floor_ns: u64) {
        self.pending.sort_by_key(|p| p.ts_ns);
        let n = self.pending.partition_point(|p| p.ts_ns <= floor_ns);
        self.packets.extend(self.pending.drain(..n));
        self.kept = self.pending.len();
    }

    /// The whole trace in arrival order.
    fn finish(mut self) -> Vec<TracePacket> {
        self.release_through(u64::MAX);
        self.packets
    }
}

impl PacketSink for ArrivalOrder {
    fn reserve(&mut self, total: usize) {
        self.packets.reserve_exact(total);
    }

    fn connection_starts(&mut self, floor_ns: u64) {
        if self.pending.len() >= (2 * self.kept).max(Self::MIN_RELEASE) {
            self.release_through(floor_ns);
        }
    }

    fn push(&mut self, packet: TracePacket) {
        self.pending.push(packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdd::KddGenerator;
    use proptest::prelude::*;

    /// The reference order: every packet in generation order, then one
    /// stable sort by `ts_ns` over the whole trace.
    #[derive(Default)]
    struct SortAtEnd(Vec<TracePacket>);

    impl PacketSink for SortAtEnd {
        fn reserve(&mut self, total: usize) {
            self.0.reserve_exact(total);
        }

        fn connection_starts(&mut self, _floor_ns: u64) {}

        fn push(&mut self, packet: TracePacket) {
            self.0.push(packet);
        }
    }

    fn expand_by_sorting(records: Vec<ConnRecord>, config: &TraceConfig) -> PacketTrace {
        let mut all = SortAtEnd::default();
        PacketTrace::generate(&records, config, &mut all);
        all.0.sort_by_key(|p| p.ts_ns);
        PacketTrace { packets: all.0, records }
    }

    /// Neighbours that share a timestamp: the ties whose order only
    /// generation order decides.
    fn ties(t: &PacketTrace) -> usize {
        t.packets.windows(2).filter(|w| w[0].ts_ns == w[1].ts_ns).count()
    }

    fn trace(n: usize, seed: u64) -> PacketTrace {
        let records = KddGenerator::new(seed).take(n);
        PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
    }

    #[test]
    fn packets_are_time_sorted() {
        let t = trace(300, 11);
        assert!(t.packets.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert!(!t.packets.is_empty());
    }

    #[test]
    fn determinism() {
        let a = trace(200, 12);
        let b = trace(200, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn rate_is_near_target() {
        let t = trace(3_000, 13);
        let rate = t.rate_gbps();
        assert!(rate > 2.0 && rate < 9.0, "rate={rate} Gb/s");
    }

    #[test]
    fn anomalous_packets_come_from_attacker_pool() {
        let t = trace(500, 14);
        for p in t.packets.iter().filter(|p| !p.reverse) {
            if p.anomalous {
                assert_eq!(p.tuple.src_ip >> 16, 0xAC10, "attacker prefix");
            } else {
                assert_eq!(p.tuple.src_ip >> 16, 0x0A00, "benign prefix");
            }
        }
    }

    #[test]
    fn both_directions_share_a_canonical_key() {
        let t = trace(300, 21);
        let fwd = t.packets.iter().find(|p| !p.reverse).expect("has forward");
        let rev = fwd.tuple.reversed();
        assert_eq!(fwd.tuple.canonical(), rev.canonical());
        assert_eq!(rev.reversed(), fwd.tuple);
        let has_reverse = t.packets.iter().any(|p| p.reverse);
        assert!(has_reverse, "traces include responder packets");
    }

    #[test]
    fn labels_match_source_records() {
        let t = trace(400, 15);
        for p in &t.packets {
            assert_eq!(p.anomalous, t.records[p.conn_id as usize].is_anomalous());
        }
    }

    #[test]
    fn tcp_connections_start_with_syn() {
        let t = trace(300, 16);
        let mut seen_first: std::collections::HashSet<u32> = Default::default();
        for p in &t.packets {
            if p.tuple.proto == 6 && seen_first.insert(p.conn_id) {
                // First packet of each TCP conn carries SYN (possibly bare).
                assert!(p.tcp_flags & TCP_SYN != 0, "conn {} flags {:02x}", p.conn_id, p.tcp_flags);
            }
        }
    }

    #[test]
    fn urgent_flags_appear_for_urgent_connections() {
        let records = {
            let mut g = KddGenerator::new(17);
            let mut rs = Vec::new();
            // R2L/U2R records carry urgent packets most often.
            for _ in 0..200 {
                rs.push(g.sample_of_class(crate::kdd::KddClass::R2l));
            }
            rs
        };
        let t = PacketTrace::expand(records, &TraceConfig::default());
        let urg = t.packets.iter().filter(|p| p.tcp_flags & TCP_URG != 0).count();
        assert!(urg > 0, "expected some URG packets");
    }

    #[test]
    fn five_tuple_hash_is_stable_and_spreads() {
        let t = trace(300, 18);
        let h1 = t.packets[0].tuple.hash();
        assert_eq!(h1, t.packets[0].tuple.hash());
        let distinct: std::collections::HashSet<u64> =
            t.packets.iter().map(|p| p.tuple.hash() % 4096).collect();
        assert!(distinct.len() > 50, "hash spreads over register slots");
    }

    #[test]
    #[should_panic(expected = "empty record set")]
    fn rejects_empty_input() {
        let _ = PacketTrace::expand(vec![], &TraceConfig::default());
    }

    #[test]
    fn batches_cover_the_trace_in_order() {
        let t = trace(120, 20);
        for size in [1usize, 7, 64, 100_000] {
            let batches: Vec<_> = t.batches(size).collect();
            let total: usize = batches.iter().map(|b| b.len()).sum();
            assert_eq!(total, t.packets.len());
            // Every batch but the last is exactly `size`.
            for b in &batches[..batches.len() - 1] {
                assert_eq!(b.len(), size);
            }
            assert!(batches.last().unwrap().len() <= size);
            let flat: Vec<TracePacket> = batches.concat();
            assert_eq!(flat, t.packets, "batching preserves arrival order");
        }
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn batches_reject_zero_size() {
        let t = trace(10, 21);
        let _ = t.batches(0);
    }

    #[test]
    fn traces_shorter_than_the_duration_floor_expand() {
        // One connection at 5 Gb/s is a trace of a few µs: 5 % of it is
        // below the 1 µs duration floor.
        let one = PacketTrace::expand(KddGenerator::new(1).take(1), &TraceConfig::default());
        assert!(!one.packets.is_empty());
        assert_eq!(one, expand_by_sorting(KddGenerator::new(1).take(1), &TraceConfig::default()));
        // No packets at all: a trace of length zero.
        let none = TraceConfig { max_packets_per_conn: 0, ..TraceConfig::default() };
        let empty = PacketTrace::expand(KddGenerator::new(2).take(5), &none);
        assert!(empty.packets.is_empty());
        assert_eq!(empty.records.len(), 5);
    }

    #[test]
    fn equal_timestamps_keep_generation_order() {
        // 100 Gb/s and sub-µs durations pack many packets into one ns.
        let mut records = KddGenerator::new(3).take(3_000);
        records.iter_mut().for_each(|r| r.duration *= 1e-7);
        let config = TraceConfig { seed: 4, rate_gbps: 100.0, ..TraceConfig::default() };
        let t = PacketTrace::expand(records.clone(), &config);
        assert!(ties(&t) > 1_000, "only {} equal-timestamp neighbours", ties(&t));
        assert_eq!(t, expand_by_sorting(records, &config));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn arrival_order_emission_is_the_stable_sort(
            conns in 1usize..3_000,
            seed in any::<u64>(),
            rate in 0usize..3,
            short in any::<bool>(),
            mean_packets in 1.0f64..16.0,
            max_packets in 1usize..64,
        ) {
            let mut records = KddGenerator::new(seed).take(conns);
            if short {
                records.iter_mut().for_each(|r| r.duration *= 1e-7);
            }
            let config = TraceConfig {
                seed,
                rate_gbps: [5.0, 100.0, 1_000.0][rate],
                mean_packets_per_conn: mean_packets,
                max_packets_per_conn: max_packets,
                ..TraceConfig::default()
            };
            let t = PacketTrace::expand(records.clone(), &config);
            prop_assert_eq!(t.packets.capacity(), t.packets.len(), "no slack in the trace");
            prop_assert_eq!(t, expand_by_sorting(records, &config));
        }
    }

    #[test]
    fn packet_sizes_within_ethernet_bounds() {
        let t = trace(500, 19);
        assert!(t.packets.iter().all(|p| (64..=1500).contains(&p.len)));
    }
}
