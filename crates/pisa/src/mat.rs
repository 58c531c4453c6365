//! Match-action tables with VLIW action budgets.
//!
//! MATs match PHV fields (exact / LPM / ternary / range) and execute a
//! short VLIW action — at most [`MAX_OPS_PER_ACTION`] primitive ops, the
//! budget the paper cites for Tofino-class hardware ("only executes 12
//! operations per stage", §2.1.1). Range-match entries double as the
//! §3.1 preprocessing lookup tables that turn raw header values into
//! feature codes.

use crate::phv::{Field, Phv};

/// Per-action VLIW operation budget (Tofino-class, §2.1.1).
pub const MAX_OPS_PER_ACTION: usize = 12;
/// Latency charged per MAT stage (1 cycle at 1 GHz).
pub const MAT_LATENCY_NS: u64 = 1;

/// How one field is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Field equals the value exactly.
    Exact(i64),
    /// Longest-prefix match on the top `prefix_len` of `width` bits.
    Lpm {
        /// Prefix value (already shifted into field position).
        value: i64,
        /// Bits that must match, from the MSB of the field.
        prefix_len: u8,
        /// Total field width in bits.
        width: u8,
    },
    /// Ternary match: `field & mask == value & mask`.
    Ternary {
        /// Pattern.
        value: i64,
        /// Care bits.
        mask: i64,
    },
    /// Inclusive range match.
    Range {
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
}

impl MatchKind {
    /// Whether a field value satisfies this match.
    pub fn matches(&self, v: i64) -> bool {
        match *self {
            MatchKind::Exact(e) => v == e,
            MatchKind::Lpm { value, prefix_len, width } => {
                if prefix_len == 0 {
                    return true;
                }
                let shift = i64::from(width.saturating_sub(prefix_len));
                (v >> shift) == (value >> shift)
            }
            MatchKind::Ternary { value, mask } => v & mask == value & mask,
            MatchKind::Range { lo, hi } => (lo..=hi).contains(&v),
        }
    }
}

/// A primitive VLIW operation on the PHV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VliwOp {
    /// `dst = value`.
    Set(Field, i64),
    /// `dst += value`.
    AddConst(Field, i64),
    /// `dst = src`.
    Copy(Field, Field),
    /// `dst += src`.
    AddField(Field, Field),
    /// `dst -= src`.
    SubField(Field, Field),
    /// `dst &= mask`.
    And(Field, i64),
    /// `dst >>= shift` (arithmetic).
    Shr(Field, u8),
    /// `dst <<= shift`.
    Shl(Field, u8),
    /// `dst = min(dst, value)`.
    MinConst(Field, i64),
    /// `dst = max(dst, value)`.
    MaxConst(Field, i64),
}

impl VliwOp {
    /// Applies the op to a PHV.
    pub fn apply(&self, phv: &mut Phv) {
        match *self {
            VliwOp::Set(f, v) => phv.set(f, v),
            VliwOp::AddConst(f, v) => phv.set(f, phv.get(f).wrapping_add(v)),
            VliwOp::Copy(dst, src) => phv.set(dst, phv.get(src)),
            VliwOp::AddField(dst, src) => phv.set(dst, phv.get(dst).wrapping_add(phv.get(src))),
            VliwOp::SubField(dst, src) => phv.set(dst, phv.get(dst).wrapping_sub(phv.get(src))),
            VliwOp::And(f, m) => phv.set(f, phv.get(f) & m),
            VliwOp::Shr(f, s) => phv.set(f, phv.get(f) >> s),
            VliwOp::Shl(f, s) => phv.set(f, phv.get(f) << s),
            VliwOp::MinConst(f, v) => phv.set(f, phv.get(f).min(v)),
            VliwOp::MaxConst(f, v) => phv.set(f, phv.get(f).max(v)),
        }
    }
}

/// A compound action: a named, budget-checked op list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Debug name.
    pub name: String,
    /// The ops, executed in order.
    pub ops: Vec<VliwOp>,
}

impl Action {
    /// Creates an action.
    ///
    /// # Panics
    ///
    /// Panics if `ops` exceeds [`MAX_OPS_PER_ACTION`] — the point of the
    /// VLIW budget is that it cannot be exceeded in hardware.
    pub fn new(name: impl Into<String>, ops: Vec<VliwOp>) -> Self {
        assert!(
            ops.len() <= MAX_OPS_PER_ACTION,
            "action exceeds the {MAX_OPS_PER_ACTION}-op VLIW budget"
        );
        Self { name: name.into(), ops }
    }

    /// Applies all ops.
    pub fn apply(&self, phv: &mut Phv) {
        for op in &self.ops {
            op.apply(phv);
        }
    }
}

/// One table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// Per-field match specs (all must match).
    pub matches: Vec<(Field, MatchKind)>,
    /// Higher wins among multiple hits.
    pub priority: i32,
    /// Action on hit.
    pub action: Action,
}

/// The compiled lookup structure behind [`MatchTable::apply`]'s fast
/// path. Every table this repo installs on the per-packet path — range
/// encoders, verdict thresholds, protocol selectors — is a stack of
/// single-field exact/range entries over one field, which compiles to a
/// sorted span list dispatched by binary search instead of a linear
/// scan of nested match vectors.
#[derive(Debug, Clone, Default)]
enum FastPath {
    /// Entries changed since the last analysis; recompile on next apply.
    #[default]
    Stale,
    /// Table shape not compilable (multi-field, LPM/ternary, or
    /// overlapping spans whose outcome depends on priority order); use
    /// the general linear scan.
    Linear,
    /// Disjoint single-field exact/range entries: `(lo, hi, entry
    /// index)` spans sorted by `lo`, resolved by binary search.
    Ranges { field: Field, spans: Vec<(i64, i64, u32)> },
}

/// A match-action table.
#[derive(Debug, Clone)]
pub struct MatchTable {
    /// Debug name.
    pub name: String,
    entries: Vec<TableEntry>,
    default_action: Action,
    hits: u64,
    misses: u64,
    /// Lazily compiled dispatch structure (derived from `entries`;
    /// excluded from equality).
    fast: FastPath,
}

/// Equality ignores the derived `fast` cache: two tables with the same
/// entries and counters are the same table whether or not one has been
/// applied (and thus compiled) yet.
impl PartialEq for MatchTable {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.entries == other.entries
            && self.default_action == other.default_action
            && self.hits == other.hits
            && self.misses == other.misses
    }
}

impl MatchTable {
    /// Creates an empty table with a default (miss) action.
    pub fn new(name: impl Into<String>, default_action: Action) -> Self {
        Self {
            name: name.into(),
            entries: Vec::new(),
            default_action,
            hits: 0,
            misses: 0,
            fast: FastPath::Stale,
        }
    }

    /// Installs an entry (control-plane `table_add`): binary-searches
    /// the insertion point in the priority-sorted entry list (highest
    /// first, stable for equal priorities), so bulk installs from
    /// [`MatchTable::range_encoder`] and control-plane loops cost one
    /// shift each instead of a full re-sort per entry.
    pub fn add_entry(&mut self, entry: TableEntry) {
        let pos = self.entries.partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
        self.fast = FastPath::Stale;
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.fast = FastPath::Stale;
    }

    /// Analyzes the entry list for the compiled dispatch shape: all
    /// entries matching exactly one shared field with exact/range kinds,
    /// spans pairwise disjoint (so priority order cannot change the
    /// outcome and a binary search finds the unique hit).
    fn compile_fast_path(&self) -> FastPath {
        let mut field = None;
        let mut spans: Vec<(i64, i64, u32)> = Vec::with_capacity(self.entries.len());
        for (i, entry) in self.entries.iter().enumerate() {
            let [(f, kind)] = entry.matches.as_slice() else { return FastPath::Linear };
            if *field.get_or_insert(*f) != *f {
                return FastPath::Linear;
            }
            let (lo, hi) = match *kind {
                MatchKind::Exact(v) => (v, v),
                MatchKind::Range { lo, hi } => (lo, hi),
                MatchKind::Lpm { .. } | MatchKind::Ternary { .. } => return FastPath::Linear,
            };
            if lo > hi {
                continue; // empty range: can never match, drop it
            }
            spans.push((lo, hi, i as u32));
        }
        let Some(field) = field else { return FastPath::Linear };
        spans.sort_unstable_by_key(|&(lo, _, _)| lo);
        if spans.windows(2).any(|w| w[0].1 >= w[1].0) {
            return FastPath::Linear; // overlap: priority order matters
        }
        FastPath::Ranges { field, spans }
    }

    /// Applies the table to a PHV: first matching entry's action, or the
    /// default on miss. Returns whether it was a hit.
    ///
    /// Single-field exact/range tables (every table this repo installs
    /// on the per-packet path) dispatch via a compiled binary search;
    /// everything else falls back to the general linear scan. Both paths
    /// are observationally identical — the compiled shape is only used
    /// when entry spans are disjoint, where match order cannot matter.
    pub fn apply(&mut self, phv: &mut Phv) -> bool {
        if matches!(self.fast, FastPath::Stale) {
            self.fast = self.compile_fast_path();
        }
        if let FastPath::Ranges { field, spans } = &self.fast {
            let v = phv.get(*field);
            let i = spans.partition_point(|&(_, hi, _)| hi < v);
            if let Some(&(lo, _, idx)) = spans.get(i) {
                if lo <= v {
                    self.entries[idx as usize].action.apply(phv);
                    self.hits += 1;
                    return true;
                }
            }
            self.default_action.apply(phv);
            self.misses += 1;
            return false;
        }
        for entry in &self.entries {
            if entry.matches.iter().all(|(f, k)| k.matches(phv.get(*f))) {
                entry.action.apply(phv);
                self.hits += 1;
                return true;
            }
        }
        self.default_action.apply(phv);
        self.misses += 1;
        false
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Builds a range-encoder table (the §3.1 preprocessing lookup):
    /// value ranges of `src` map to codes written into `dst`.
    pub fn range_encoder(
        name: impl Into<String>,
        src: Field,
        dst: Field,
        ranges: &[(i64, i64, i64)],
        default_code: i64,
    ) -> Self {
        let mut t =
            Self::new(name, Action::new("default-code", vec![VliwOp::Set(dst, default_code)]));
        for &(lo, hi, code) in ranges {
            t.add_entry(TableEntry {
                matches: vec![(src, MatchKind::Range { lo, hi })],
                priority: 0,
                action: Action::new("encode", vec![VliwOp::Set(dst, code)]),
            });
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_kinds() {
        assert!(MatchKind::Exact(5).matches(5));
        assert!(!MatchKind::Exact(5).matches(6));
        // 10.0.0.0/8 over 32-bit fields.
        let lpm = MatchKind::Lpm { value: 0x0A000000, prefix_len: 8, width: 32 };
        assert!(lpm.matches(0x0A123456));
        assert!(!lpm.matches(0x0B000000));
        let tern = MatchKind::Ternary { value: 0x02, mask: 0x02 };
        assert!(tern.matches(0x12), "SYN bit set");
        assert!(!tern.matches(0x10));
        assert!(MatchKind::Range { lo: 10, hi: 20 }.matches(10));
        assert!(MatchKind::Range { lo: 10, hi: 20 }.matches(20));
        assert!(!MatchKind::Range { lo: 10, hi: 20 }.matches(21));
    }

    #[test]
    fn vliw_ops() {
        let mut phv = Phv::new();
        phv.set(Field::Meta(0), 10);
        VliwOp::AddConst(Field::Meta(0), 5).apply(&mut phv);
        assert_eq!(phv.get(Field::Meta(0)), 15);
        VliwOp::Shl(Field::Meta(0), 2).apply(&mut phv);
        assert_eq!(phv.get(Field::Meta(0)), 60);
        VliwOp::Copy(Field::Meta(1), Field::Meta(0)).apply(&mut phv);
        VliwOp::SubField(Field::Meta(1), Field::Meta(0)).apply(&mut phv);
        assert_eq!(phv.get(Field::Meta(1)), 0);
        VliwOp::MaxConst(Field::Meta(1), 7).apply(&mut phv);
        assert_eq!(phv.get(Field::Meta(1)), 7);
    }

    #[test]
    #[should_panic(expected = "VLIW budget")]
    fn action_budget_enforced() {
        let ops = vec![VliwOp::Set(Field::Meta(0), 0); 13];
        let _ = Action::new("too-big", ops);
    }

    #[test]
    fn table_priority_and_default() {
        let mut t =
            MatchTable::new("acl", Action::new("allow", vec![VliwOp::Set(Field::Decision, 0)]));
        t.add_entry(TableEntry {
            matches: vec![(Field::DstPort, MatchKind::Exact(23))],
            priority: 10,
            action: Action::new("drop-telnet", vec![VliwOp::Set(Field::Decision, 1)]),
        });
        t.add_entry(TableEntry {
            matches: vec![(Field::DstPort, MatchKind::Range { lo: 0, hi: 1023 })],
            priority: 1,
            action: Action::new("flag-low", vec![VliwOp::Set(Field::Decision, 2)]),
        });

        let mut phv = Phv::new();
        phv.set(Field::DstPort, 23);
        assert!(t.apply(&mut phv));
        assert_eq!(phv.get(Field::Decision), 1, "higher priority wins");

        phv.set(Field::DstPort, 80);
        t.apply(&mut phv);
        assert_eq!(phv.get(Field::Decision), 2);

        phv.set(Field::DstPort, 8080);
        assert!(!t.apply(&mut phv));
        assert_eq!(phv.get(Field::Decision), 0, "default on miss");
        assert_eq!(t.stats(), (2, 1));
    }

    /// Forces the linear-scan path for a logically identical table by
    /// duplicating the (single) match spec — two specs per entry are
    /// not compilable, but `A ∧ A ≡ A` leaves semantics untouched.
    fn linear_twin(t: &MatchTable) -> MatchTable {
        let mut twin = MatchTable::new(format!("{}-linear", t.name), t.default_action.clone());
        for e in &t.entries {
            let mut matches = e.matches.clone();
            matches.extend(e.matches.clone());
            twin.add_entry(TableEntry { matches, priority: e.priority, action: e.action.clone() });
        }
        twin
    }

    #[test]
    fn compiled_fast_path_matches_linear_scan_over_a_sweep() {
        let mut fast = MatchTable::range_encoder(
            "len-code",
            Field::Len,
            Field::Feature(2),
            &[(0, 63, 1), (64, 511, 2), (512, 1499, 3), (1500, 1500, 4)],
            -7,
        );
        let mut linear = linear_twin(&fast);
        for v in -5..1_600i64 {
            let mut a = Phv::new();
            let mut b = Phv::new();
            a.set(Field::Len, v);
            b.set(Field::Len, v);
            assert_eq!(fast.apply(&mut a), linear.apply(&mut b), "hit/miss at {v}");
            assert_eq!(a.get(Field::Feature(2)), b.get(Field::Feature(2)), "code at {v}");
        }
        assert_eq!(fast.stats(), linear.stats());
        assert!(matches!(fast.fast, FastPath::Ranges { .. }), "single-field table compiled");
        assert!(matches!(linear.fast, FastPath::Linear), "twin declined compilation");
    }

    #[test]
    fn overlapping_ranges_decline_the_fast_path_and_honor_priority() {
        let mut t =
            MatchTable::new("overlap", Action::new("miss", vec![VliwOp::Set(Field::Meta(0), -1)]));
        t.add_entry(TableEntry {
            matches: vec![(Field::DstPort, MatchKind::Range { lo: 0, hi: 100 })],
            priority: 1,
            action: Action::new("wide", vec![VliwOp::Set(Field::Meta(0), 1)]),
        });
        t.add_entry(TableEntry {
            matches: vec![(Field::DstPort, MatchKind::Range { lo: 50, hi: 60 })],
            priority: 5,
            action: Action::new("narrow", vec![VliwOp::Set(Field::Meta(0), 2)]),
        });
        let mut phv = Phv::new();
        phv.set(Field::DstPort, 55);
        t.apply(&mut phv);
        assert_eq!(phv.get(Field::Meta(0)), 2, "higher priority wins in the overlap");
        assert!(matches!(t.fast, FastPath::Linear), "overlap must decline the compiled path");
    }

    #[test]
    fn add_entry_after_apply_invalidates_the_compiled_path() {
        let mut t = MatchTable::new("grow", Action::new("miss", vec![]));
        t.add_entry(TableEntry {
            matches: vec![(Field::DstPort, MatchKind::Exact(80))],
            priority: 0,
            action: Action::new("web", vec![VliwOp::Set(Field::Meta(1), 1)]),
        });
        let mut phv = Phv::new();
        phv.set(Field::DstPort, 443);
        assert!(!t.apply(&mut phv), "443 misses before the second install");
        t.add_entry(TableEntry {
            matches: vec![(Field::DstPort, MatchKind::Exact(443))],
            priority: 0,
            action: Action::new("tls", vec![VliwOp::Set(Field::Meta(1), 2)]),
        });
        assert!(t.apply(&mut phv), "recompiled path sees the new entry");
        assert_eq!(phv.get(Field::Meta(1)), 2);
    }

    #[test]
    fn add_entry_insertion_keeps_priority_order_stable() {
        let mut t = MatchTable::new("prio", Action::new("miss", vec![]));
        // Equal priorities must stay in insertion order (first match
        // wins), interleaved with higher and lower priorities.
        for (prio, code) in [(1, 10), (5, 20), (1, 30), (9, 40), (5, 50)] {
            t.add_entry(TableEntry {
                matches: vec![(Field::Meta(7), MatchKind::Range { lo: 0, hi: 100 })],
                priority: prio,
                action: Action::new("set", vec![VliwOp::Set(Field::Meta(0), code)]),
            });
        }
        let order: Vec<i32> = t.entries.iter().map(|e| e.priority).collect();
        assert_eq!(order, vec![9, 5, 5, 1, 1], "highest first");
        let mut phv = Phv::new();
        phv.set(Field::Meta(7), 3);
        t.apply(&mut phv);
        assert_eq!(phv.get(Field::Meta(0)), 40, "the priority-9 entry fires");
        // Among the two priority-5 entries, the earlier-installed one
        // (code 20) must precede the later (code 50).
        let fives: Vec<i64> = t
            .entries
            .iter()
            .filter(|e| e.priority == 5)
            .map(|e| match e.action.ops[0] {
                VliwOp::Set(_, v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(fives, vec![20, 50], "stable for equal priorities");
    }

    #[test]
    fn range_encoder_builds_lookup() {
        let t0 = MatchTable::range_encoder(
            "port-likelihood",
            Field::DstPort,
            Field::Feature(0),
            &[(0, 1023, 10), (1024, 49151, 50), (49152, 65535, 90)],
            0,
        );
        let mut t = t0;
        let mut phv = Phv::new();
        for (port, code) in [(80i64, 10i64), (8080, 50), (60000, 90)] {
            phv.set(Field::DstPort, port);
            t.apply(&mut phv);
            assert_eq!(phv.get(Field::Feature(0)), code, "port {port}");
        }
    }
}
