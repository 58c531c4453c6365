//! Property tests pinning the vectorized kernels to the scalar
//! references.
//!
//! The chunked multi-accumulator [`taurus_ir::kernels`] forms must be
//! **bit-identical** to the sequential folds for every input: wrapping
//! `i32` addition is associative/commutative, so reassociating the
//! accumulation cannot change the result — these tests make that claim
//! executable over adversarial lengths (empty rows, non-multiples of
//! the lane width) and operands steered to overflow `i32` repeatedly.

use proptest::prelude::*;
use taurus_ir::kernels::{
    matvec_row, matvec_row_scalar, matvec_rows_wide, sqdist_row, sqdist_row_scalar, LANES,
    ROW_BLOCK,
};

/// Maps a selector to a length straddling every chunking boundary:
/// empty, partial chunk, exact chunks, chunks + remainder.
fn adversarial_len(sel: usize, extra: usize) -> usize {
    match sel % 7 {
        0 => 0,
        1 => 1 + extra % (LANES - 1),
        2 => LANES,
        3 => LANES + 1,
        4 => 2 * LANES - 1,
        5 => 2 * LANES,
        _ => extra % 64,
    }
}

/// Salts a lane vector with extreme operands (`i32::MIN`/`i32::MAX`)
/// so partial products and accumulators wrap many times.
fn salt_extremes(x: &mut [i32], mask: u64) {
    for (i, v) in x.iter_mut().enumerate() {
        match (mask >> (i % 32)) & 3 {
            1 => *v = i32::MAX,
            2 => *v = i32::MIN,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matvec_vector_equals_scalar(
        sel in 0usize..7,
        extra in 0usize..64,
        seed in any::<u64>(),
        mask in any::<u64>(),
        zero_point in any::<i32>(),
    ) {
        let n = adversarial_len(sel, extra);
        let row: Vec<i8> = (0..n).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as i8).collect();
        let mut x: Vec<i32> =
            (0..n).map(|i| (seed.wrapping_mul(0x9E37 + i as u64) >> 7) as i32).collect();
        salt_extremes(&mut x, mask);
        prop_assert_eq!(matvec_row(&row, &x, zero_point), matvec_row_scalar(&row, &x, zero_point));
    }

    #[test]
    fn sqdist_vector_equals_scalar(
        sel in 0usize..7,
        extra in 0usize..64,
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let n = adversarial_len(sel, extra);
        let row: Vec<i8> = (0..n).map(|i| (seed.wrapping_mul(i as u64 + 5) >> 9) as i8).collect();
        let mut x: Vec<i32> =
            (0..n).map(|i| (seed.wrapping_mul(0xABCD + i as u64) >> 3) as i32).collect();
        salt_extremes(&mut x, mask);
        prop_assert_eq!(sqdist_row(&row, &x), sqdist_row_scalar(&row, &x));
    }

    #[test]
    fn widened_row_groups_equal_per_row_scalar(
        rows in 0usize..3 * ROW_BLOCK + 2,
        cols in 1usize..24,
        seed in any::<u64>(),
        mask in any::<u64>(),
        zero_point in -128i32..128,
    ) {
        let bank: Vec<i8> =
            (0..rows * cols).map(|i| (seed.wrapping_mul(i as u64 + 3) >> 11) as i8).collect();
        let wide: Vec<i32> = bank.iter().map(|&w| i32::from(w)).collect();
        let mut x: Vec<i32> =
            (0..cols).map(|j| (seed.wrapping_mul(0x5DEECE + j as u64) >> 5) as i32).collect();
        salt_extremes(&mut x, mask);

        let mut got = vec![0i32; rows];
        matvec_rows_wide(&wide, cols, &x, zero_point, &mut got);
        for r in 0..rows {
            let want = matvec_row_scalar(&bank[r * cols..(r + 1) * cols], &x, zero_point);
            prop_assert_eq!(got[r], want, "matvec row {}", r);
        }
    }

    /// Mismatched row/x lengths follow the scalar zip semantics (sum
    /// over the shorter of the two).
    #[test]
    fn length_mismatch_follows_zip_semantics(
        row in collection::vec(any::<i8>(), 0..40),
        x in collection::vec(any::<i32>(), 0..40),
        zero_point in -8i32..8,
    ) {
        prop_assert_eq!(matvec_row(&row, &x, zero_point), matvec_row_scalar(&row, &x, zero_point));
        prop_assert_eq!(sqdist_row(&row, &x), sqdist_row_scalar(&row, &x));
    }
}
