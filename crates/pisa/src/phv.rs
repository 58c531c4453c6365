//! The Packet Header Vector: the fixed-layout field container that flows
//! between pipeline stages (Bosshart et al., the paper's \[15\]).

/// PHV fields. Header fields come from the parser; `Meta*` fields carry
/// intermediate MAT results; `Feature*` fields hold the formatted
/// fixed-point features the MapReduce block consumes; `MlOut` carries the
/// verdict back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// Source IPv4 address.
    SrcIp,
    /// Destination IPv4 address.
    DstIp,
    /// Source L4 port.
    SrcPort,
    /// Destination L4 port.
    DstPort,
    /// IP protocol.
    Proto,
    /// TCP flags.
    TcpFlags,
    /// Wire length.
    Len,
    /// Arrival timestamp (ns).
    TsNs,
    /// Set to 1 by preprocessing when the packet should skip the
    /// MapReduce block (Fig. 6's bypass decision).
    BypassMl,
    /// ML verdict written back by the MapReduce block.
    MlOut,
    /// Final forwarding decision (see `pipeline::Verdict`).
    Decision,
    /// Egress queue selected by postprocessing.
    QueueId,
    /// Scratch metadata register.
    Meta(u8),
    /// Formatted model input feature (int8 code), index 0..16.
    Feature(u8),
}

/// Number of feature slots a PHV carries into the MapReduce block.
pub const MAX_FEATURES: usize = 16;

/// The Packet Header Vector: a small, fixed set of typed fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Phv {
    header: [i64; 8],
    bypass_ml: i64,
    ml_out: i64,
    decision: i64,
    queue_id: i64,
    meta: [i64; 8],
    features: [i64; MAX_FEATURES],
}

impl Phv {
    /// Creates an all-zero PHV.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes every field in place — how a resident PHV is recycled
    /// between packets (the PHV is a fixed-layout value type, so this is
    /// a memset, never an allocation).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Reads a field.
    pub fn get(&self, f: Field) -> i64 {
        match f {
            Field::SrcIp => self.header[0],
            Field::DstIp => self.header[1],
            Field::SrcPort => self.header[2],
            Field::DstPort => self.header[3],
            Field::Proto => self.header[4],
            Field::TcpFlags => self.header[5],
            Field::Len => self.header[6],
            Field::TsNs => self.header[7],
            Field::BypassMl => self.bypass_ml,
            Field::MlOut => self.ml_out,
            Field::Decision => self.decision,
            Field::QueueId => self.queue_id,
            Field::Meta(i) => self.meta[i as usize % 8],
            Field::Feature(i) => self.features[i as usize % MAX_FEATURES],
        }
    }

    /// Writes a field.
    pub fn set(&mut self, f: Field, v: i64) {
        match f {
            Field::SrcIp => self.header[0] = v,
            Field::DstIp => self.header[1] = v,
            Field::SrcPort => self.header[2] = v,
            Field::DstPort => self.header[3] = v,
            Field::Proto => self.header[4] = v,
            Field::TcpFlags => self.header[5] = v,
            Field::Len => self.header[6] = v,
            Field::TsNs => self.header[7] = v,
            Field::BypassMl => self.bypass_ml = v,
            Field::MlOut => self.ml_out = v,
            Field::Decision => self.decision = v,
            Field::QueueId => self.queue_id = v,
            Field::Meta(i) => self.meta[i as usize % 8] = v,
            Field::Feature(i) => self.features[i as usize % MAX_FEATURES] = v,
        }
    }

    /// The dense feature slice handed to the MapReduce block (only the
    /// feature headers enter the fabric — Fig. 7).
    pub fn features(&self, n: usize) -> Vec<i32> {
        self.features[..n.min(MAX_FEATURES)].iter().map(|&v| v as i32).collect()
    }

    /// Writes the model's feature codes.
    pub fn set_features(&mut self, codes: &[i32]) {
        for (slot, &c) in self.features.iter_mut().zip(codes) {
            *slot = i64::from(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip_all_fields() {
        let mut phv = Phv::new();
        let fields = [
            Field::SrcIp,
            Field::DstIp,
            Field::SrcPort,
            Field::DstPort,
            Field::Proto,
            Field::TcpFlags,
            Field::Len,
            Field::TsNs,
            Field::BypassMl,
            Field::MlOut,
            Field::Decision,
            Field::QueueId,
            Field::Meta(3),
            Field::Feature(7),
        ];
        for (i, &f) in fields.iter().enumerate() {
            phv.set(f, i as i64 * 10 + 1);
        }
        for (i, &f) in fields.iter().enumerate() {
            assert_eq!(phv.get(f), i as i64 * 10 + 1, "{f:?}");
        }
    }

    #[test]
    fn features_slice() {
        let mut phv = Phv::new();
        phv.set_features(&[1, -2, 3]);
        assert_eq!(phv.features(3), vec![1, -2, 3]);
        assert_eq!(phv.features(2), vec![1, -2]);
        assert_eq!(phv.get(Field::Feature(1)), -2);
    }
}
