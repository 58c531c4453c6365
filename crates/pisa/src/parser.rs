//! The parser stage: packet header fields → PHV.
//!
//! Real PISA parsers walk a programmable state machine over header bytes
//! (Gibb et al., the paper's \[56\]). Packets here arrive already decoded
//! (the Ethernet → IPv4 → {TCP, UDP, ICMP} fields of [`crate::packet`]),
//! so this stage loads those fields into the PHV and charges a fixed
//! per-packet parse latency.

use crate::packet::Packet;
use crate::phv::{Field, Phv};

/// Parse latency in nanoseconds (a few pipeline stages at 1 GHz).
pub const PARSE_LATENCY_NS: u64 = 5;

/// The parser.
#[derive(Debug, Clone, Default)]
pub struct Parser;

impl Parser {
    /// Creates a parser.
    pub fn new() -> Self {
        Self
    }

    /// Loads a packet into a caller-owned (resident) PHV, resetting it
    /// first — the pipeline's per-packet entry point, which recycles one
    /// PHV instead of constructing a fresh one.
    pub fn parse_into(&mut self, p: &Packet, phv: &mut Phv) {
        phv.reset();
        phv.set(Field::SrcIp, i64::from(p.src_ip));
        phv.set(Field::DstIp, i64::from(p.dst_ip));
        phv.set(Field::SrcPort, i64::from(p.src_port));
        phv.set(Field::DstPort, i64::from(p.dst_port));
        phv.set(Field::Proto, i64::from(p.proto));
        phv.set(Field::TcpFlags, i64::from(p.tcp_flags));
        phv.set(Field::Len, i64::from(p.wire_len));
        phv.set(Field::TsNs, p.ts_ns as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fills_header_fields() {
        let mut parser = Parser::new();
        let mut p = Packet::tcp(0x0A000001, 0xC0A80002, 40000, 443, 0x02, 128);
        p.ts_ns = 77;
        let mut phv = Phv::new();
        phv.set(Field::MlOut, 9);
        parser.parse_into(&p, &mut phv);
        assert_eq!(phv.get(Field::SrcIp), 0x0A000001);
        assert_eq!(phv.get(Field::DstPort), 443);
        assert_eq!(phv.get(Field::TcpFlags), 0x02);
        assert_eq!(phv.get(Field::TsNs), 77);
        assert_eq!(phv.get(Field::MlOut), 0, "a recycled PHV starts clean");
    }
}
