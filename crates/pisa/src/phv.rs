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

/// The first feature cell: after the eight header fields, bypass, ML
/// output, decision, queue and the eight metadata registers.
const FEATURES: usize = 20;

/// The Packet Header Vector: a small, fixed set of typed fields, one
/// `i64` cell each, so that reading or writing a field is one indexed
/// access whichever field it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phv {
    cells: [i64; FEATURES + MAX_FEATURES],
}

impl Default for Phv {
    fn default() -> Self {
        Self { cells: [0; FEATURES + MAX_FEATURES] }
    }
}

impl Field {
    /// The field's PHV cell.
    #[inline]
    fn cell(self) -> usize {
        match self {
            Field::SrcIp => 0,
            Field::DstIp => 1,
            Field::SrcPort => 2,
            Field::DstPort => 3,
            Field::Proto => 4,
            Field::TcpFlags => 5,
            Field::Len => 6,
            Field::TsNs => 7,
            Field::BypassMl => 8,
            Field::MlOut => 9,
            Field::Decision => 10,
            Field::QueueId => 11,
            Field::Meta(i) => 12 + i as usize % 8,
            Field::Feature(i) => FEATURES + i as usize % MAX_FEATURES,
        }
    }
}

impl Phv {
    /// Creates an all-zero PHV.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes every field in place — how a resident PHV is recycled
    /// between packets (the PHV is a fixed-layout value type, so this is
    /// a memset, never an allocation).
    #[inline]
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Reads a field.
    #[inline]
    pub fn get(&self, f: Field) -> i64 {
        self.cells[f.cell()]
    }

    /// Writes a field.
    #[inline]
    pub fn set(&mut self, f: Field, v: i64) {
        self.cells[f.cell()] = v;
    }

    /// Writes the model's feature codes.
    #[inline]
    pub fn set_features(&mut self, codes: &[i32]) {
        for (slot, &c) in self.cells[FEATURES..].iter_mut().zip(codes) {
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
        let codes: Vec<i64> = (0..4).map(|i| phv.get(Field::Feature(i))).collect();
        assert_eq!(codes, vec![1, -2, 3, 0], "codes land in order; the rest stay zero");
    }
}
