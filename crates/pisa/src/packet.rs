//! Packets as the parser sees them: IPv4/TCP/UDP header fields.

/// A network packet: the parsed header fields plus an opaque payload
/// length (bodies are never materialized — switches forward them from
/// packet buffers, Fig. 6's body bypass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// IP protocol (6 = TCP, 17 = UDP, 1 = ICMP).
    pub proto: u8,
    /// Source port (0 for ICMP).
    pub src_port: u16,
    /// Destination port (0 for ICMP).
    pub dst_port: u16,
    /// TCP flags (0 for non-TCP).
    pub tcp_flags: u8,
    /// Total wire length in bytes.
    pub wire_len: u16,
    /// Arrival timestamp in nanoseconds.
    pub ts_ns: u64,
}

impl Packet {
    /// The shortest wire length a packet reports: its Ethernet, IPv4
    /// and TCP headers (14 + 20 + 20 bytes). Shorter lengths are
    /// clamped up to it.
    pub const MIN_LEN: u16 = 54;

    /// A minimal TCP packet for tests and trace conversion.
    #[inline]
    pub fn tcp(
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        flags: u8,
        len: u16,
    ) -> Self {
        Self {
            src_ip,
            dst_ip,
            proto: 6,
            src_port,
            dst_port,
            tcp_flags: flags,
            wire_len: len.max(Self::MIN_LEN),
            ts_ns: 0,
        }
    }
}
