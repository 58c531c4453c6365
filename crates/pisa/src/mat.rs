//! Match-action tables, in the one shape the Taurus data plane installs.
//!
//! The MATs around the MapReduce block (§4, Fig. 6) each read one PHV
//! field and write one: the preprocessing table picks which packets
//! visit the model, the postprocessing table turns its output into a
//! forwarding decision. A [`MatchTable`] is exactly that — disjoint
//! exact/range entries over one key field, each carrying the value it
//! writes to one destination field, and a default written on a miss —
//! kept sorted at install so every lookup is one binary search.

use crate::phv::{Field, Phv};

/// Latency charged per MAT stage (1 cycle at 1 GHz).
pub const MAT_LATENCY_NS: u64 = 1;

/// One installed entry: key values `lo..=hi` write `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    lo: i64,
    hi: i64,
    value: i64,
}

/// A match-action table: `dst = value` of the entry whose range holds
/// `key`, or `dst = default` when none does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchTable {
    /// Debug name.
    pub name: String,
    key: Field,
    dst: Field,
    default: i64,
    /// Sorted by `lo`, pairwise disjoint.
    spans: Vec<Span>,
}

impl MatchTable {
    /// Creates an empty table that reads `key` and writes `dst`; every
    /// lookup writes `default` until an entry matches.
    pub fn new(name: impl Into<String>, key: Field, dst: Field, default: i64) -> Self {
        Self { name: name.into(), key, dst, default, spans: Vec::new() }
    }

    /// Installs a range entry (control-plane `table_add`): key values
    /// `lo..=hi` write `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty (`lo > hi`) or overlaps an installed
    /// entry — with disjoint entries no key can hit two, so no entry
    /// needs a priority.
    pub fn add_range(&mut self, lo: i64, hi: i64, value: i64) {
        assert!(lo <= hi, "MAT `{}`: empty range {lo}..={hi}", self.name);
        let at = self.spans.partition_point(|s| s.hi < lo);
        if let Some(next) = self.spans.get(at) {
            assert!(
                next.lo > hi,
                "MAT `{}`: {lo}..={hi} overlaps installed {}..={}",
                self.name,
                next.lo,
                next.hi
            );
        }
        self.spans.insert(at, Span { lo, hi, value });
    }

    /// Installs an exact entry: `key` writes `value`.
    ///
    /// # Panics
    ///
    /// Panics if an installed entry already matches `key`.
    pub fn add_exact(&mut self, key: i64, value: i64) {
        self.add_range(key, key, value);
    }

    /// Applies the table to a PHV: one binary search for the entry
    /// holding the key field's value, whose value (or the default on a
    /// miss) is written to the destination field.
    #[inline]
    pub fn apply(&self, phv: &mut Phv) {
        let v = phv.get(self.key);
        let hit = self.spans.get(self.spans.partition_point(|s| s.hi < v));
        let select = |s: &Span| core::hint::select_unpredictable(s.lo <= v, s.value, self.default);
        phv.set(self.dst, hit.map_or(self.default, select));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lookup(t: &MatchTable, key: i64) -> i64 {
        let mut phv = Phv::new();
        phv.set(Field::DstPort, key);
        t.apply(&mut phv);
        phv.get(Field::Feature(0))
    }

    #[test]
    fn match_kinds() {
        let mut t = MatchTable::new("acl", Field::DstPort, Field::Feature(0), -1);
        t.add_exact(23, 1);
        t.add_range(1024, 49151, 2);
        assert_eq!(lookup(&t, 23), 1, "exact hit");
        assert_eq!(lookup(&t, 22), -1, "exact is one value");
        assert_eq!(lookup(&t, 1024), 2, "range includes lo");
        assert_eq!(lookup(&t, 49151), 2, "range includes hi");
        assert_eq!(lookup(&t, 49152), -1, "default on a miss");
    }

    #[test]
    fn a_table_with_no_entries_writes_its_default() {
        let t = MatchTable::new("empty", Field::DstPort, Field::Feature(0), 7);
        for key in [i64::MIN, -1, 0, 80, i64::MAX] {
            assert_eq!(lookup(&t, key), 7, "key {key}");
        }
    }

    #[test]
    fn range_entries_encode_a_field() {
        let mut t = MatchTable::new("port-likelihood", Field::DstPort, Field::Feature(0), 0);
        // Installed out of order: the table sorts at install.
        t.add_range(49152, 65535, 90);
        t.add_range(0, 1023, 10);
        t.add_range(1024, 49151, 50);
        for (port, code) in [(80, 10), (1023, 10), (1024, 50), (8080, 50), (60000, 90)] {
            assert_eq!(lookup(&t, port), code, "port {port}");
        }
    }

    #[test]
    #[should_panic(expected = "overlaps installed 0..=100")]
    fn an_overlapping_range_panics() {
        let mut t = MatchTable::new("overlap", Field::DstPort, Field::Meta(0), -1);
        t.add_range(0, 100, 1);
        t.add_range(50, 60, 2);
    }

    #[test]
    #[should_panic(expected = "overlaps installed 443..=443")]
    fn a_repeated_exact_key_panics() {
        let mut t = MatchTable::new("dup", Field::DstPort, Field::Meta(0), -1);
        t.add_exact(443, 1);
        t.add_range(400, 500, 2);
    }

    #[test]
    #[should_panic(expected = "empty range 10..=9")]
    fn an_empty_range_panics() {
        let mut t = MatchTable::new("empty", Field::DstPort, Field::Meta(0), -1);
        t.add_range(10, 9, 1);
    }

    /// Deterministic Fisher–Yates (the vendored proptest has no shuffle).
    fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
        for i in (1..items.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            items.swap(i, (seed >> 33) as usize % (i + 1));
        }
        items
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lookups_between_installs_match_a_scan_of_the_installed_ranges(
            cuts in collection::vec(-300i64..300, 2..24),
            keep in collection::vec(any::<bool>(), 24),
            values in collection::vec(-1_000i64..1_000, 24),
            order_seed in any::<u64>(),
        ) {
            // Consecutive distinct cuts bound the candidate entries
            // `cut[i]..=cut[i+1]-1`: disjoint, some touching, some with a
            // gap between them, some a single value (an exact entry). No
            // entry writes the default `i64::MIN`, so it marks a miss.
            let mut cuts = cuts;
            cuts.sort_unstable();
            cuts.dedup();
            let entries: Vec<(i64, i64, i64)> = cuts
                .windows(2)
                .zip(keep.iter().zip(&values))
                .filter(|(_, (&keep, _))| keep)
                .map(|(w, (_, &value))| (w[0], w[1] - 1, value))
                .collect();
            let mut t = MatchTable::new("prop", Field::DstPort, Field::Feature(0), i64::MIN);
            let mut installed: Vec<(i64, i64, i64)> = Vec::new();
            for (lo, hi, value) in shuffled(entries, order_seed) {
                if lo == hi {
                    t.add_exact(lo, value);
                } else {
                    t.add_range(lo, hi, value);
                }
                installed.push((lo, hi, value));
                for key in -310i64..310 {
                    let scan = installed.iter().find(|&&(lo, hi, _)| (lo..=hi).contains(&key));
                    let expected = scan.map_or(i64::MIN, |&(_, _, v)| v);
                    prop_assert_eq!(lookup(&t, key), expected, "key {} after {:?}", key, installed);
                }
            }
        }
    }
}
