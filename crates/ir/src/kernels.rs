//! Vectorizable fixed-point inner-loop kernels.
//!
//! These are the MapReduce block's arithmetic workhorses: the per-row
//! dot product behind [`crate::graph::Op::MatVec`] and the per-row
//! squared distance behind [`crate::graph::Op::SqDist`]. The paper's
//! CGRA executes them as wide SIMD lanes (§5.1.3's compute grid); the
//! software model gets the same effect by writing them as chunked loops
//! over independent wrapping accumulators that the compiler
//! autovectorizes.
//!
//! # Why reassociation is bit-exact
//!
//! All accumulation is wrapping `i32` arithmetic — addition modulo 2³²,
//! which is associative and commutative — so splitting the sum across
//! `LANES` independent accumulators and folding them at the end
//! produces *bit-identical* results to the sequential fold for every
//! input, including deliberate overflow. The scalar references
//! ([`matvec_row_scalar`], [`sqdist_row_scalar`]) are kept as the
//! executable semantics; `tests/prop_kernels.rs` pins the vectorized
//! forms against them over adversarial lengths and operands.
//!
//! Two layouts are served:
//!
//! - **int8 banks** ([`matvec_row`], [`sqdist_row`]): weights as stored
//!   in MUs; each element is widened in-loop. What the interpreter
//!   runs.
//! - **pre-widened row groups** ([`matvec_rows_wide`]): row-contiguous
//!   `i32` weights, processed `ROW_BLOCK` rows at a time so the
//!   `x − zero_point` widening is shared across rows. The row-major
//!   reference for small dense layers; the CGRA simulator's `ExecPlan`
//!   runs the same reduction over `i16` column pairs inside its fused
//!   dense op.

/// Accumulator lanes in the chunked single-row kernels.
pub const LANES: usize = 8;

/// Rows processed together by the widened row-group kernels.
pub const ROW_BLOCK: usize = 4;

/// Scalar reference for [`matvec_row`]: the sequential fold that
/// defines the semantics (`Σ_j W[r,j]·(x[j] − zero_point)`, wrapping).
#[inline]
pub fn matvec_row_scalar(row: &[i8], x: &[i32], zero_point: i32) -> i32 {
    row.iter().zip(x).fold(0i32, |acc, (&w, &xv)| {
        acc.wrapping_add(i32::from(w).wrapping_mul(xv.wrapping_sub(zero_point)))
    })
}

/// Scalar reference for [`sqdist_row`] (`Σ_j (x[j] − W[r,j])²`,
/// wrapping).
#[inline]
pub fn sqdist_row_scalar(row: &[i8], x: &[i32]) -> i32 {
    row.iter().zip(x).fold(0i32, |acc, (&w, &xv)| {
        let d = xv.wrapping_sub(i32::from(w));
        acc.wrapping_add(d.wrapping_mul(d))
    })
}

/// One MatVec row over an int8 bank row: chunked over [`LANES`]
/// independent accumulators, bit-exact with [`matvec_row_scalar`].
/// Like the scalar fold, the sum runs over `min(row.len(), x.len())`
/// elements.
#[inline]
pub fn matvec_row(row: &[i8], x: &[i32], zero_point: i32) -> i32 {
    let n = row.len().min(x.len());
    let (row, x) = (&row[..n], &x[..n]);
    let mut acc = [0i32; LANES];
    let mut rows = row.chunks_exact(LANES);
    let mut xs = x.chunks_exact(LANES);
    for (rw, xw) in (&mut rows).zip(&mut xs) {
        for l in 0..LANES {
            acc[l] =
                acc[l].wrapping_add(i32::from(rw[l]).wrapping_mul(xw[l].wrapping_sub(zero_point)));
        }
    }
    let mut total = rows.remainder().iter().zip(xs.remainder()).fold(0i32, |t, (&w, &xv)| {
        t.wrapping_add(i32::from(w).wrapping_mul(xv.wrapping_sub(zero_point)))
    });
    for a in acc {
        total = total.wrapping_add(a);
    }
    total
}

/// One SqDist row over an int8 bank row: chunked over [`LANES`]
/// independent accumulators, bit-exact with [`sqdist_row_scalar`].
#[inline]
pub fn sqdist_row(row: &[i8], x: &[i32]) -> i32 {
    let n = row.len().min(x.len());
    let (row, x) = (&row[..n], &x[..n]);
    let mut acc = [0i32; LANES];
    let mut rows = row.chunks_exact(LANES);
    let mut xs = x.chunks_exact(LANES);
    for (rw, xw) in (&mut rows).zip(&mut xs) {
        for l in 0..LANES {
            let d = xw[l].wrapping_sub(i32::from(rw[l]));
            acc[l] = acc[l].wrapping_add(d.wrapping_mul(d));
        }
    }
    let mut total = rows.remainder().iter().zip(xs.remainder()).fold(0i32, |t, (&w, &xv)| {
        let d = xv.wrapping_sub(i32::from(w));
        t.wrapping_add(d.wrapping_mul(d))
    });
    for a in acc {
        total = total.wrapping_add(a);
    }
    total
}

/// MatVec over a pre-widened, row-contiguous weight group:
/// `out[i] = Σ_j data[i·cols + j]·(x[j] − zero_point)` for
/// `i < out.len()`, processed [`ROW_BLOCK`] rows at a time so the
/// widened `x[j] − zero_point` is computed once per column and shared
/// across the block's rows. Bit-exact with a per-row
/// [`matvec_row_scalar`] on the corresponding int8 rows.
///
/// # Panics
///
/// Panics if `data.len() < out.len() * cols` or `x.len() < cols`.
pub fn matvec_rows_wide(data: &[i32], cols: usize, x: &[i32], zero_point: i32, out: &mut [i32]) {
    assert!(data.len() >= out.len() * cols, "widened bank too small");
    if cols == 0 {
        out.fill(0);
        return;
    }
    let data = &data[..out.len() * cols];
    let x = &x[..cols];
    let mut rows = data.chunks_exact(cols * ROW_BLOCK);
    let mut outs = out.chunks_exact_mut(ROW_BLOCK);
    for (block, ob) in (&mut rows).zip(&mut outs) {
        let mut acc = [0i32; ROW_BLOCK];
        for (j, &xv) in x.iter().enumerate() {
            let xz = xv.wrapping_sub(zero_point);
            for r in 0..ROW_BLOCK {
                acc[r] = acc[r].wrapping_add(block[r * cols + j].wrapping_mul(xz));
            }
        }
        ob.copy_from_slice(&acc);
    }
    for (row, o) in rows.remainder().chunks_exact(cols).zip(outs.into_remainder()) {
        *o = row
            .iter()
            .zip(x)
            .fold(0i32, |t, (&w, &xv)| t.wrapping_add(w.wrapping_mul(xv.wrapping_sub(zero_point))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_scalar_on_non_lane_widths() {
        for n in 0..=37 {
            let row: Vec<i8> = (0..n).map(|i| (i as i8).wrapping_mul(37).wrapping_sub(5)).collect();
            let x: Vec<i32> = (0..n).map(|i| i * 1_000_003 - 77).collect();
            for zp in [-3, 0, 11] {
                assert_eq!(matvec_row(&row, &x, zp), matvec_row_scalar(&row, &x, zp), "n={n}");
            }
        }
    }

    #[test]
    fn sqdist_matches_scalar_on_non_lane_widths() {
        for n in 0..=37 {
            let row: Vec<i8> = (0..n).map(|i| (i as i8).wrapping_mul(91).wrapping_add(3)).collect();
            let x: Vec<i32> = (0..n).map(|i| i * 65_537 - 9).collect();
            assert_eq!(sqdist_row(&row, &x), sqdist_row_scalar(&row, &x), "n={n}");
        }
    }

    #[test]
    fn kernels_wrap_instead_of_saturating() {
        // Operands chosen so partial products overflow i32 many times.
        let row = vec![i8::MIN; 19];
        let x = vec![i32::MAX; 19];
        assert_eq!(matvec_row(&row, &x, -5), matvec_row_scalar(&row, &x, -5));
        assert_eq!(sqdist_row(&row, &x), sqdist_row_scalar(&row, &x));
    }

    #[test]
    fn empty_rows_sum_to_zero() {
        assert_eq!(matvec_row(&[], &[], 7), 0);
        assert_eq!(sqdist_row(&[], &[]), 0);
        matvec_rows_wide(&[], 0, &[], 7, &mut []);
    }

    #[test]
    fn widened_group_matches_per_row_scalar() {
        for (rows, cols) in [(1usize, 1usize), (3, 6), (4, 6), (5, 3), (12, 6), (7, 16), (9, 2)] {
            let bank: Vec<i8> =
                (0..rows * cols).map(|i| (i as i8).wrapping_mul(53).wrapping_sub(17)).collect();
            let wide: Vec<i32> = bank.iter().map(|&w| i32::from(w)).collect();
            let x: Vec<i32> = (0..cols).map(|j| (j as i32) * 999_983 - 123).collect();
            for zp in [-7, 0, 4] {
                let mut out = vec![0i32; rows];
                matvec_rows_wide(&wide, cols, &x, zp, &mut out);
                for r in 0..rows {
                    let want = matvec_row_scalar(&bank[r * cols..(r + 1) * cols], &x, zp);
                    assert_eq!(out[r], want, "rows={rows} cols={cols} r={r} zp={zp}");
                }
            }
        }
    }
}
