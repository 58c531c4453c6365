//! The threshold engines' batch kernels against their per-row form:
//! [`InferenceEngine::infer_batch`] on a [`CodeGroup`] gives, row by
//! row, what [`InferenceEngine::infer`] gives on that row — for groups
//! of one to eight rows, negative weights and the cutoffs a retune
//! installs (`i64::MIN`, `i64::MAX`), with the lanes past the group's
//! rows holding an earlier group's codes.
//!
//! A weighted sum that overflows `i64` wraps in a release build and
//! panics in a debug one; the batch kernel wraps in both, so weights
//! whose products overflow are drawn only in release, where the two
//! forms must still agree bit for bit.

use proptest::prelude::*;
use taurus_pisa::{
    CodeGroup, InferenceEngine, LinearThresholdEngine, ThresholdEngine, BATCH_PACKETS,
};

/// The widest row drawn.
const WIDTH: usize = 16;

/// `pick` chooses a cutoff: the two a retune can install at the ends of
/// the range, a small one near the sums, or any.
fn threshold(pick: u8, small: i64, any: i64) -> i64 {
    [i64::MIN, i64::MAX, small, any][usize::from(pick)]
}

/// `rows` rows of `width` codes cut from `codes`.
fn rows(codes: &[i32], width: usize, rows: usize) -> Vec<&[i32]> {
    codes.chunks(WIDTH).take(rows).map(|row| &row[..width]).collect()
}

/// Pushes a full group of `stale` rows, clears it, pushes `rows`, then
/// runs `engine`'s batch kernel and returns its verdicts for `rows`.
fn batch(engine: &mut impl InferenceEngine, stale: &[&[i32]], rows: &[&[i32]]) -> Vec<i64> {
    let mut group = CodeGroup::new(rows[0].len());
    for row in stale {
        group.push(row);
    }
    group.clear();
    for row in rows {
        group.push(row);
    }
    let mut out = [0; BATCH_PACKETS];
    engine.infer_batch(&mut group, &mut out);
    out[..rows.len()].to_vec()
}

proptest! {
    #[test]
    fn threshold_batch_equals_infer_row_by_row(
        width in 1usize..WIDTH + 1,
        count in 1usize..BATCH_PACKETS + 1,
        codes in proptest::collection::vec(any::<i32>(), BATCH_PACKETS * WIDTH),
        stale in proptest::collection::vec(any::<i32>(), BATCH_PACKETS * WIDTH),
        pick in 0u8..4,
        small in -2_000i64..2_000,
        far in any::<i64>(),
    ) {
        let mut engine = ThresholdEngine { threshold: threshold(pick, small, far) };
        let (rows, stale) = (rows(&codes, width, count), rows(&stale, width, BATCH_PACKETS));
        let want: Vec<i64> = rows.iter().map(|row| engine.infer(row)).collect();
        prop_assert_eq!(batch(&mut engine, &stale, &rows), want);
    }

    #[test]
    fn linear_threshold_batch_equals_infer_row_by_row(
        width in 1usize..WIDTH + 1,
        count in 1usize..BATCH_PACKETS + 1,
        codes in proptest::collection::vec(any::<i32>(), BATCH_PACKETS * WIDTH),
        stale in proptest::collection::vec(any::<i32>(), BATCH_PACKETS * WIDTH),
        weights in proptest::collection::vec(-(1i64 << 24)..1 << 24, 0..WIDTH + 4),
        wide in proptest::collection::vec(any::<i64>(), WIDTH + 4),
        overflow in any::<bool>(),
        pick in 0u8..4,
        small in -2_000i64..2_000,
        far in any::<i64>(),
    ) {
        // Fewer weights than codes count the rest 0; more go unread.
        let weights = if overflow && !cfg!(debug_assertions) {
            wide[..weights.len()].to_vec()
        } else {
            weights
        };
        let mut engine = LinearThresholdEngine { weights, threshold: threshold(pick, small, far) };
        let (rows, stale) = (rows(&codes, width, count), rows(&stale, width, BATCH_PACKETS));
        let want: Vec<i64> = rows.iter().map(|row| engine.infer(row)).collect();
        prop_assert_eq!(batch(&mut engine, &stale, &rows), want);
    }
}
