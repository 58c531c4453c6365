//! Packets with byte-level Ethernet/IPv4/TCP/UDP serialization.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// A network packet: the parsed header fields plus an opaque payload
/// length (bodies are never materialized — switches forward them from
/// packet buffers, Fig. 6's body bypass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Destination MAC.
    pub dst_mac: [u8; 6],
    /// Source MAC.
    pub src_mac: [u8; 6],
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// IP protocol (6 = TCP, 17 = UDP, 1 = ICMP).
    pub proto: u8,
    /// IPv4 TTL.
    pub ttl: u8,
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
    /// A minimal TCP packet for tests and trace conversion.
    pub fn tcp(
        src_ip: u32,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        flags: u8,
        len: u16,
    ) -> Self {
        Self {
            dst_mac: [0x02, 0, 0, 0, 0, 1],
            src_mac: [0x02, 0, 0, 0, 0, 2],
            src_ip,
            dst_ip,
            proto: 6,
            ttl: 64,
            src_port,
            dst_port,
            tcp_flags: flags,
            wire_len: len.max(54),
            ts_ns: 0,
        }
    }

    /// Serializes headers to wire bytes (Ethernet + IPv4 + TCP/UDP; the
    /// payload is represented by its length only).
    pub fn to_bytes(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(54);
        b.put_slice(&self.dst_mac);
        b.put_slice(&self.src_mac);
        b.put_u16(ETHERTYPE_IPV4);
        // IPv4: version/ihl, dscp, total length, id, flags, ttl, proto,
        // checksum (0 — software pipeline), addresses.
        b.put_u8(0x45);
        b.put_u8(0);
        b.put_u16(self.wire_len.saturating_sub(14));
        b.put_u32(0); // id + flags/frag
        b.put_u8(self.ttl);
        b.put_u8(self.proto);
        b.put_u16(0); // checksum
        b.put_u32(self.src_ip);
        b.put_u32(self.dst_ip);
        match self.proto {
            6 => {
                b.put_u16(self.src_port);
                b.put_u16(self.dst_port);
                b.put_u32(0); // seq
                b.put_u32(0); // ack
                b.put_u8(0x50); // data offset
                b.put_u8(self.tcp_flags);
                b.put_u16(0xFFFF); // window
                b.put_u32(0); // checksum + urgent ptr
            }
            17 => {
                b.put_u16(self.src_port);
                b.put_u16(self.dst_port);
                b.put_u16(8);
                b.put_u16(0);
            }
            _ => {}
        }
        b.freeze()
    }

    /// Parses wire bytes back into a packet.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed header.
    pub fn from_bytes(mut data: Bytes, ts_ns: u64) -> Result<Self, String> {
        if data.len() < 34 {
            return Err(format!("truncated frame: {} bytes", data.len()));
        }
        let mut dst_mac = [0u8; 6];
        let mut src_mac = [0u8; 6];
        data.copy_to_slice(&mut dst_mac);
        data.copy_to_slice(&mut src_mac);
        let ethertype = data.get_u16();
        if ethertype != ETHERTYPE_IPV4 {
            return Err(format!("unsupported ethertype {ethertype:#06x}"));
        }
        let ver_ihl = data.get_u8();
        if ver_ihl != 0x45 {
            return Err(format!("unsupported IP version/IHL {ver_ihl:#04x}"));
        }
        let _dscp = data.get_u8();
        let total_len = data.get_u16();
        let _id_flags = data.get_u32();
        let ttl = data.get_u8();
        let proto = data.get_u8();
        let _checksum = data.get_u16();
        let src_ip = data.get_u32();
        let dst_ip = data.get_u32();
        let (src_port, dst_port, tcp_flags) = match proto {
            6 => {
                if data.len() < 20 {
                    return Err("truncated TCP header".into());
                }
                let sp = data.get_u16();
                let dp = data.get_u16();
                let _seq = data.get_u32();
                let _ack = data.get_u32();
                let _off = data.get_u8();
                let flags = data.get_u8();
                (sp, dp, flags)
            }
            17 => {
                if data.len() < 8 {
                    return Err("truncated UDP header".into());
                }
                let sp = data.get_u16();
                let dp = data.get_u16();
                (sp, dp, 0)
            }
            _ => (0, 0, 0),
        };
        Ok(Self {
            dst_mac,
            src_mac,
            src_ip,
            dst_ip,
            proto,
            ttl,
            src_port,
            dst_port,
            tcp_flags,
            wire_len: total_len.saturating_add(14),
            ts_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_round_trip() {
        let mut p = Packet::tcp(0x0A000001, 0xC0A80001, 40000, 80, 0x12, 200);
        p.ts_ns = 42;
        let parsed = Packet::from_bytes(p.to_bytes(), 42).expect("parses");
        assert_eq!(parsed, p);
    }

    #[test]
    fn udp_round_trip() {
        let mut p = Packet::tcp(1, 2, 53, 5353, 0, 100);
        p.proto = 17;
        p.tcp_flags = 0;
        let parsed = Packet::from_bytes(p.to_bytes(), 0).expect("parses");
        assert_eq!(parsed.proto, 17);
        assert_eq!(parsed.src_port, 53);
        assert_eq!(parsed.tcp_flags, 0);
    }

    #[test]
    fn icmp_has_no_ports() {
        let mut p = Packet::tcp(1, 2, 0, 0, 0, 100);
        p.proto = 1;
        let parsed = Packet::from_bytes(p.to_bytes(), 0).expect("parses");
        assert_eq!((parsed.src_port, parsed.dst_port), (0, 0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Packet::from_bytes(Bytes::from_static(&[0u8; 10]), 0).is_err());
        let mut bad = BytesMut::from(&Packet::tcp(1, 2, 3, 4, 0, 60).to_bytes()[..]);
        bad[12] = 0x86; // ethertype → not IPv4
        bad[13] = 0xDD;
        assert!(Packet::from_bytes(bad.freeze(), 0).is_err());
    }
}
