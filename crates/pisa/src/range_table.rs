//! Range tables: a monotone `u64 → code` step function as a MAT.
//!
//! §3.1's preprocessing MATs turn register values into the fixed-point
//! codes the MapReduce block consumes. Whatever arithmetic defines that
//! mapping (log compression, standardization, quantization), per
//! register it is a monotone step function onto at most 256 codes — i.e.
//! a range-match table. [`RangeTable::compile`] derives the table from
//! the defining function by bisection, once; [`RangeTable::lookup`] is
//! then *exactly* that function, at the cost of one bucket read and a
//! fixed run of compares — no search, no floating point.

/// Why a function could not be compiled to a [`RangeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeTableError {
    /// The function decreased somewhere the bisection looked: `at` lies
    /// between two probes whose codes bound it, and its code does not.
    NotMonotone {
        /// The offending input.
        at: u64,
    },
    /// The function takes more than 256 distinct codes.
    TooManyCodes {
        /// `f(u64::MAX) − f(0)`.
        span: i64,
    },
}

impl core::fmt::Display for RangeTableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NotMonotone { at } => write!(f, "source function is not monotone at {at}"),
            Self::TooManyCodes { span } => {
                write!(f, "source function spans {span} codes, a range table holds 255 steps")
            }
        }
    }
}

impl std::error::Error for RangeTableError {}

/// Mantissa bits of a lookup bucket below the leading one: a bucket is
/// a sixteenth of an octave. A log-compressed lane that spends all 255
/// steps on ten octaves puts under two steps in each, so its lookups
/// take one [`SPAN`]-wide trip; the AD-DNN's five lanes peak at three.
/// (Measured on the formatter: 3 bits need a second trip on the duration
/// lane, 5 bits and a 2-wide span gain 1 ns for twice the index.)
const MANTISSA_BITS: u32 = 4;

/// Buckets over all of `u64`: the values below `2^(MANTISSA_BITS + 1)`
/// one each, then `2^MANTISSA_BITS` per remaining bit length.
const BUCKETS: usize = ((65 - MANTISSA_BITS) << MANTISSA_BITS) as usize;

/// Thresholds one lookup trip compares, all of them, whatever `v` is.
/// Four compiles to a compare/add-with-carry chain at the baseline x86-64
/// target; eight gets vectorized through an emulated unsigned 64-bit
/// compare and took the AD-DNN formatter from 17 to 46 ns.
const SPAN: usize = 4;

/// The bucket of `v`: its bit length and the [`MANTISSA_BITS`] bits
/// after the leading one (the value itself while it has no more bits
/// than that). Non-decreasing in `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    // Bits dropped below the mantissa; 0 for the small values.
    let e = 63 - (v | 1 << MANTISSA_BITS).leading_zeros() - MANTISSA_BITS;
    ((e << MANTISSA_BITS) as u64 + (v >> e)) as usize
}

/// The smallest `v` with `bucket_of(v) == b`.
fn bucket_start(b: usize) -> u64 {
    let e = (b >> MANTISSA_BITS).saturating_sub(1);
    ((b - (e << MANTISSA_BITS)) as u64) << e
}

/// A non-decreasing step function from `u64` to at most 256 consecutive
/// `i32` codes: `lookup(v) = base + #{thresholds ≤ v}`.
///
/// The count is taken without a search. `below[bucket_of(v)]` is the
/// number of thresholds at or under the bucket's first value — all of
/// them `≤ v` — and the thresholds above that, being sorted, start at
/// that index: comparing the next `trips · SPAN` of them with `v` counts
/// the rest, because `trips · SPAN` is at least the number of thresholds
/// inside any one bucket and every later one exceeds the bucket, hence
/// `v`. The trip count is a property of the table, not of `v`, so the
/// loop runs the same way for every packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTable {
    /// `thresholds[k]`, `k < steps`, is the smallest input whose code is
    /// at least `base + k + 1`; sorted, repeated where the function
    /// skips codes. Then `trips · SPAN` sentinels (`u64::MAX`) so every
    /// compare window is in bounds.
    thresholds: Vec<u64>,
    /// Real thresholds in `thresholds`.
    steps: usize,
    /// The code of input 0.
    base: i32,
    /// `below[b] = #{thresholds ≤ bucket_start(b)}`.
    below: Box<[u8; BUCKETS]>,
    /// Compare windows per lookup: `⌈widest bucket / SPAN⌉`.
    trips: usize,
}

impl RangeTable {
    /// Most steps a table holds (256 codes).
    pub const MAX_STEPS: usize = 255;

    /// Compiles `f` by bisection: for every step of `f` the smallest
    /// input that reaches it.
    ///
    /// Every threshold `t` is emitted with `f(t − 1) < f(t)` observed,
    /// the last one reaches `f(u64::MAX)`, and every probe must lie
    /// between the codes of the probes around it.
    ///
    /// # Errors
    ///
    /// [`RangeTableError::NotMonotone`] if a probe breaks that order,
    /// [`RangeTableError::TooManyCodes`] if `f` spans more than 256
    /// codes.
    pub fn compile(f: impl Fn(u64) -> i32) -> Result<Self, RangeTableError> {
        let (base, top) = (f(0), f(u64::MAX));
        if top < base {
            return Err(RangeTableError::NotMonotone { at: u64::MAX });
        }
        let span = i64::from(top) - i64::from(base);
        if span > Self::MAX_STEPS as i64 {
            return Err(RangeTableError::TooManyCodes { span });
        }
        let mut thresholds = Vec::with_capacity(span as usize);
        let (mut lo, mut code_lo) = (0u64, base);
        while code_lo < top {
            // Invariant: f(lo) == code_lo < code_hi == f(hi).
            let (mut hi, mut code_hi) = (u64::MAX, top);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let code = f(mid);
                if code < code_lo || code > code_hi {
                    return Err(RangeTableError::NotMonotone { at: mid });
                }
                if code > code_lo {
                    (hi, code_hi) = (mid, code);
                } else {
                    lo = mid;
                }
            }
            thresholds.extend((code_lo..code_hi).map(|_| hi));
            (lo, code_lo) = (hi, code_hi);
        }
        Ok(Self::index(thresholds, base))
    }

    /// Builds the bucket index over sorted `thresholds`.
    fn index(mut thresholds: Vec<u64>, base: i32) -> Self {
        let steps = thresholds.len();
        let mut below = Box::new([0u8; BUCKETS]);
        let (mut k, mut widest) = (0, 0);
        for (b, below) in below.iter_mut().enumerate() {
            while k < steps && thresholds[k] <= bucket_start(b) {
                k += 1;
            }
            *below = k as u8; // k ≤ MAX_STEPS
            let last = if b + 1 < BUCKETS { bucket_start(b + 1) - 1 } else { u64::MAX };
            widest = widest.max(thresholds[k..].iter().take_while(|&&t| t <= last).count());
        }
        let trips = widest.div_ceil(SPAN);
        thresholds.resize(steps + trips * SPAN, u64::MAX);
        Self { thresholds, steps, base, below, trips }
    }

    /// The code of `v`.
    #[inline]
    pub fn lookup(&self, v: u64) -> i32 {
        let mut at = usize::from(self.below[bucket_of(v)]);
        let mut count = at;
        for _ in 0..self.trips {
            let window: &[u64; SPAN] =
                self.thresholds[at..].first_chunk().expect("padded by trips * SPAN");
            count += window.iter().filter(|&&t| t <= v).count();
            at += SPAN;
        }
        // Only `v == u64::MAX` can count a sentinel, and then every real
        // threshold counted too.
        self.base + count.min(self.steps) as i32
    }

    /// The step positions, ascending.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds[..self.steps]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs where a table can differ from its source: the ends and
    /// both sides of every step.
    fn edges(t: &RangeTable) -> Vec<u64> {
        let mut v = vec![0, 1, u64::MAX - 1, u64::MAX];
        for &th in t.thresholds() {
            v.extend([th.saturating_sub(2), th.saturating_sub(1), th, th.saturating_add(1)]);
        }
        v
    }

    /// `lookup` as a binary search over the sorted thresholds: the
    /// reference the bucket-indexed count is pinned against.
    fn lookup_by_search(t: &RangeTable, v: u64) -> i32 {
        t.base + t.thresholds().partition_point(|&th| th <= v) as i32
    }

    /// The table whose steps sit exactly at `thresholds`.
    fn table_of(thresholds: &[u64]) -> RangeTable {
        let t = RangeTable::compile(|v| thresholds.partition_point(|&th| th <= v) as i32 - 100)
            .expect("monotone");
        assert_eq!(t.thresholds(), thresholds);
        t
    }

    fn assert_lookup_is_the_search(t: &RangeTable) {
        for v in edges(t).into_iter().chain(0..1 << 20) {
            assert_eq!(t.lookup(v), lookup_by_search(t, v), "v={v}");
        }
    }

    #[test]
    fn buckets_tile_u64_in_order() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for b in 0..BUCKETS {
            let start = bucket_start(b);
            assert_eq!(bucket_of(start), b, "a bucket holds its own start");
            if b > 0 {
                assert_eq!(bucket_of(start - 1), b - 1, "and nothing of the one before");
            }
        }
    }

    #[test]
    fn lookup_equals_the_search_on_sparse_dense_and_empty_tables() {
        // Steps of every magnitude, some repeated, some adjacent, one at
        // each end of a bucket and one at the very top.
        let spread: Vec<u64> = (0..64)
            .flat_map(|bit| [1u64 << bit, (1 << bit) + 1, (1 << bit) + 1, (3 << bit) >> 1])
            .filter(|&t| t > 0)
            .chain([u64::MAX - 1, u64::MAX])
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .take(RangeTable::MAX_STEPS)
            .collect();
        let t = table_of(&spread);
        assert!(t.trips >= 1);
        assert_lookup_is_the_search(&t);

        let empty = table_of(&[]);
        assert_eq!(empty.trips, 0, "nothing to compare");
        assert_lookup_is_the_search(&empty);

        // The widest window a table can need: all 255 steps on
        // consecutive inputs inside one bucket (and inside the sweep).
        let packed: Vec<u64> = (1 << 12..).take(RangeTable::MAX_STEPS).collect();
        assert_eq!(bucket_of(packed[0]), bucket_of(packed[RangeTable::MAX_STEPS - 1]));
        let t = table_of(&packed);
        assert_eq!(t.trips, RangeTable::MAX_STEPS.div_ceil(SPAN));
        assert_lookup_is_the_search(&t);

        // Every step at the last input: the one lookup that reaches the
        // sentinels.
        let t = table_of(&[u64::MAX; 7]);
        assert_lookup_is_the_search(&t);
        assert_eq!(t.lookup(u64::MAX), -93);
    }

    #[test]
    fn log_steps_match_their_source_at_every_edge() {
        let f = |v: u64| (v as f32).ln_1p().round() as i32 - 7;
        let t = RangeTable::compile(f).expect("monotone");
        assert_eq!(t.thresholds().len(), (f(u64::MAX) - f(0)) as usize);
        for v in edges(&t) {
            assert_eq!(t.lookup(v), f(v), "v={v}");
        }
        for v in 0..100_000u64 {
            assert_eq!(t.lookup(v), f(v), "v={v}");
        }
        assert_lookup_is_the_search(&t);
    }

    #[test]
    fn skipped_codes_repeat_the_threshold() {
        // 0 → 3 → 10: two steps, ten codes.
        const SECOND: u64 = 1 << 32;
        let f = |v: u64| match v {
            0..=99 => 0,
            100..SECOND => 3,
            _ => 10,
        };
        let t = RangeTable::compile(f).expect("monotone");
        assert_eq!(t.thresholds().len(), 10);
        assert_eq!(t.thresholds()[..3], [100; 3]);
        assert_eq!(t.thresholds()[3..], [SECOND; 7]);
        for v in edges(&t) {
            assert_eq!(t.lookup(v), f(v), "v={v}");
        }
    }

    #[test]
    fn constant_function_is_an_empty_table() {
        let t = RangeTable::compile(|_| -5).expect("monotone");
        assert!(t.thresholds().is_empty());
        assert_eq!(t.lookup(0), -5);
        assert_eq!(t.lookup(u64::MAX), -5);
    }

    #[test]
    fn a_step_at_the_last_input_is_found() {
        let f = |v: u64| i32::from(v == u64::MAX);
        let t = RangeTable::compile(f).expect("monotone");
        assert_eq!(t.thresholds(), [u64::MAX]);
        assert_eq!(t.lookup(u64::MAX - 1), 0);
        assert_eq!(t.lookup(u64::MAX), 1);
    }

    #[test]
    fn non_monotone_sources_are_rejected() {
        // Decreasing end to end.
        assert_eq!(
            RangeTable::compile(|v| -i32::from(v > 10)),
            Err(RangeTableError::NotMonotone { at: u64::MAX })
        );
        // A dip the bisection walks into: rises at 2^40, falls back
        // between 2^62 and 2^63.
        let dip = |v: u64| match v {
            v if v < 1 << 40 => 0,
            v if v < 1 << 62 => 2,
            v if v < 1 << 63 => 1,
            _ => 2,
        };
        assert!(matches!(RangeTable::compile(dip), Err(RangeTableError::NotMonotone { .. })));
    }

    #[test]
    fn more_than_256_codes_are_rejected() {
        assert_eq!(
            RangeTable::compile(|v| v.min(256) as i32),
            Err(RangeTableError::TooManyCodes { span: 256 })
        );
        assert!(RangeTable::compile(|v| v.min(255) as i32).is_ok());
    }
}
