//! Range tables: a monotone `u64 → code` step function as a MAT.
//!
//! §3.1's preprocessing MATs turn register values into the fixed-point
//! codes the MapReduce block consumes. Whatever arithmetic defines that
//! mapping (log compression, standardization, quantization), per
//! register it is a monotone step function onto at most 256 codes — i.e.
//! a range-match table. [`RangeTable::compile`] derives the table from
//! the defining function by bisection, once; [`RangeTable::lookup`] is
//! then *exactly* that function, at the cost of one short search and no
//! floating point.

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

/// A non-decreasing step function from `u64` to at most 256 consecutive
/// `i32` codes: `lookup(v) = base + #{thresholds ≤ v}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTable {
    /// `thresholds[k]` is the smallest input whose code is at least
    /// `base + k + 1`; sorted, repeated where the function skips codes.
    thresholds: Vec<u64>,
    /// The code of input 0.
    base: i32,
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
        Ok(Self { thresholds, base })
    }

    /// The code of `v`.
    #[inline]
    pub fn lookup(&self, v: u64) -> i32 {
        self.base + self.thresholds.partition_point(|&t| t <= v) as i32
    }

    /// The step positions, ascending.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
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
