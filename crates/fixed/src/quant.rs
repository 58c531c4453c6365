//! Per-tensor affine int8 quantization (TensorFlow-Lite style).
//!
//! The paper quantizes trained float32 models to 8-bit fixed point with
//! TensorFlow Lite (§5.1.1, Table 3) and executes them with integer-only
//! arithmetic on the MapReduce block. This module reproduces that scheme:
//! a real value `x` is represented as `q` with `x ≈ scale · (q - zero_point)`,
//! products accumulate in `i32`, and results are folded back to int8 with a
//! [`Requantizer`] (integer multiplier + right shift), exactly the
//! mechanism integer-only inference hardware uses.

/// Affine quantization parameters for one tensor: `x ≈ scale · (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-value step size between adjacent quantized codes. Always > 0.
    pub scale: f32,
    /// Quantized code representing real zero. In `[-128, 127]`.
    pub zero_point: i32,
}

impl QuantParams {
    /// Chooses parameters covering the real range `[min, max]`.
    ///
    /// The range is widened to include zero (so zero is exactly
    /// representable, which keeps padding/ReLU cheap in hardware) and
    /// degenerate ranges get a minimal width.
    ///
    /// # Examples
    ///
    /// ```
    /// use taurus_fixed::quant::QuantParams;
    /// let p = QuantParams::from_range(-1.0, 1.0);
    /// assert_eq!(p.quantize(0.0), p.zero_point as i8);
    /// assert!((p.dequantize(p.quantize(0.7)) - 0.7).abs() < p.scale);
    /// ```
    pub fn from_range(min: f32, max: f32) -> Self {
        let min = min.min(0.0);
        let max = max.max(0.0);
        let width = (max - min).max(1e-6);
        let scale = width / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        Self { scale, zero_point }
    }

    /// Chooses parameters from the observed values of a tensor: the
    /// [`MinMax`] of `values`, folded in order.
    ///
    /// Input with no finite value, empty input included, yields the unit
    /// range `[-1, 1]`.
    pub fn from_values(values: &[f32]) -> Self {
        let mut range = MinMax::EMPTY;
        for &v in values {
            range.observe(v);
        }
        range.params()
    }

    /// Symmetric parameters (zero point 0) covering `[-absmax, absmax]`.
    ///
    /// Used for weights, where symmetric quantization removes the
    /// zero-point cross terms from the integer matmul.
    pub fn symmetric(absmax: f32) -> Self {
        let absmax = absmax.abs().max(1e-6);
        Self { scale: absmax / 127.0, zero_point: 0 }
    }

    /// Symmetric parameters from observed values.
    pub fn symmetric_from_values(values: &[f32]) -> Self {
        let absmax =
            values.iter().copied().filter(|v| v.is_finite()).fold(0.0f32, |m, v| m.max(v.abs()));
        Self::symmetric(absmax)
    }

    /// Quantizes one real value (round to nearest, saturate).
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round() as i32 + self.zero_point;
        q.clamp(i8::MIN as i32, i8::MAX as i32) as i8
    }

    /// Dequantizes one code back to a real value.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }
}

/// The running range of a tensor's finite values, folded one value at a
/// time: what [`QuantParams::from_values`] computes over a slice, for a
/// caller that sees the values once and does not keep them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMax {
    min: f32,
    max: f32,
}

impl MinMax {
    /// No value observed yet.
    pub const EMPTY: Self = Self { min: f32::INFINITY, max: f32::NEG_INFINITY };

    /// Folds in one value; NaN and ±∞ are skipped.
    #[inline]
    pub fn observe(&mut self, v: f32) {
        if v.is_finite() {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Parameters covering the finite values observed, or the unit range
    /// `[-1, 1]` if there were none.
    pub fn params(self) -> QuantParams {
        if self.min.is_finite() && self.max.is_finite() {
            QuantParams::from_range(self.min, self.max)
        } else {
            QuantParams::from_range(-1.0, 1.0)
        }
    }
}

/// Integer-only rescaling of an `i32` accumulator to an `i8` output code.
///
/// Computes `out = clamp(round(acc · multiplier / 2^31 / 2^shift) + zero_point)`
/// using only integer operations — the standard TF-Lite/gemmlowp
/// requantization pipeline that maps directly onto shift-capable fixed
/// point ALUs like the Taurus FUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requantizer {
    /// Fixed-point multiplier in Q0.31 (always in `[2^30, 2^31)` unless zero).
    pub multiplier: i32,
    /// Additional right shift (≥ 0).
    pub shift: i32,
    /// Output zero point.
    pub zero_point: i32,
}

impl Requantizer {
    /// Builds a requantizer for a real rescale factor
    /// `real = in_scale / out_scale` (must be positive and < 1 after the
    /// shift normalization; factors ≥ 1 are supported via negative shift).
    ///
    /// A factor that would need a `shift` of 32 or more is below 2⁻³²:
    /// it rescales every `i32` to less than ½ in magnitude, so it yields
    /// the zero-multiplier requantizer, exactly. Every other positive
    /// factor gets a `shift` of at most 31.
    ///
    /// # Panics
    ///
    /// Panics if `real` is infinite or NaN.
    pub fn from_real_multiplier(real: f64, zero_point: i32) -> Self {
        assert!(real.is_finite(), "requantizer factor must be finite, got {real}");
        if real <= 0.0 {
            return Self { multiplier: 0, shift: 0, zero_point };
        }
        // Normalize real into [0.5, 1) · 2^exp.
        let mut shift = 0i32;
        let mut r = real;
        while r < 0.5 {
            r *= 2.0;
            shift += 1;
        }
        while r >= 1.0 {
            r /= 2.0;
            shift -= 1;
        }
        let mut multiplier = (r * (1i64 << 31) as f64).round() as i64;
        if multiplier == (1i64 << 31) {
            multiplier /= 2;
            shift -= 1;
        }
        if shift >= 32 {
            return Self { multiplier: 0, shift: 0, zero_point };
        }
        Self { multiplier: multiplier as i32, shift, zero_point }
    }

    /// Applies the requantization to an `i32` accumulator.
    #[inline]
    pub fn apply(&self, acc: i32) -> i8 {
        let v = self.apply_i32(acc);
        v.clamp(i8::MIN as i32, i8::MAX as i32) as i8
    }

    /// Applies the requantization without the final int8 clamp.
    #[inline]
    pub fn apply_i32(&self, acc: i32) -> i32 {
        // Factors ≥ 1 left-shift the accumulator *before* the high multiply
        // (gemmlowp's SaturatingRoundingDoublingHighMul pipeline) so no
        // fractional precision is lost.
        let acc =
            if self.shift < 0 { acc.saturating_mul(1i32 << (-self.shift).min(30)) } else { acc };
        // Rounding doubling high multiply (SQRDMULH semantics):
        // gemmlowp's `(prod + nudge) / 2^31`, nudge `2^30` for `prod ≥ 0`
        // and `1 − 2^30` below, division truncating toward zero. For
        // `prod ≥ 0` truncation is the floor; for `prod < 0` it is the
        // ceiling, `⌈n / 2^31⌉ = ⌊(n + 2^31 − 1) / 2^31⌋`, and
        // `prod + (1 − 2^30) + (2^31 − 1) = prod + 2^30`. Both signs are
        // one add and one arithmetic shift.
        let prod = acc as i64 * self.multiplier as i64;
        let high = ((prod + (1i64 << 30)) >> 31) as i32;
        // Rounding arithmetic right shift by `shift` (if positive); the
        // mask is built unsigned so that `shift = 31` does not overflow.
        let shifted = if self.shift > 0 {
            let s = self.shift;
            let mask = ((1u32 << s) - 1) as i32;
            let rem = high & mask;
            let threshold = (mask >> 1) + i32::from(high < 0);
            (high >> s) + i32::from(rem > threshold)
        } else {
            high
        };
        // Wrapping, as release builds always computed it: `shifted` is
        // within 128 of an `i32` bound only for a near-extreme accumulator.
        shifted.wrapping_add(self.zero_point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_exactly_representable() {
        for (lo, hi) in [(-1.0, 1.0), (0.0, 6.0), (-3.0, 0.5), (2.0, 5.0), (-7.0, -2.0)] {
            let p = QuantParams::from_range(lo, hi);
            assert_eq!(p.dequantize(p.quantize(0.0)), 0.0, "range ({lo},{hi})");
        }
    }

    #[test]
    fn quantize_error_bounded_by_half_scale() {
        let p = QuantParams::from_range(-4.0, 4.0);
        for i in -400..=400 {
            let x = i as f32 / 100.0;
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(err <= p.scale / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn symmetric_has_zero_zero_point() {
        let p = QuantParams::symmetric(2.5);
        assert_eq!(p.zero_point, 0);
        assert_eq!(p.quantize(0.0), 0);
        assert_eq!(p.quantize(2.5), 127);
        assert_eq!(p.quantize(-2.5), -127);
    }

    #[test]
    fn degenerate_range_does_not_panic() {
        let p = QuantParams::from_range(0.0, 0.0);
        assert!(p.scale > 0.0);
        let q = QuantParams::from_values(&[]);
        assert!(q.scale > 0.0);
        let r = QuantParams::from_values(&[f32::NAN]);
        assert!(r.scale > 0.0);
    }

    #[test]
    fn quantized_vec_round_trip() {
        // Parameters chosen from a vector's own values cover all of it.
        let values = [0.0f32, 0.5, -0.5, 1.0, -1.0, 0.25];
        let p = QuantParams::from_values(&values);
        for x in values {
            assert!((p.dequantize(p.quantize(x)) - x).abs() <= p.scale / 2.0 + 1e-6, "{x}");
        }
    }

    #[test]
    fn requantizer_matches_float_reference() {
        // rescale by 0.0123: check the integer pipeline tracks floats.
        let r = Requantizer::from_real_multiplier(0.0123, 3);
        for acc in [-10_000i32, -1, 0, 1, 517, 9_999] {
            let expect = ((acc as f64 * 0.0123).round() as i32 + 3)
                .clamp(i8::MIN as i32, i8::MAX as i32) as i8;
            let got = r.apply(acc);
            assert!((got as i32 - expect as i32).abs() <= 1, "acc={acc} got={got} expect={expect}");
        }
    }

    #[test]
    fn requantizer_factor_above_one() {
        let r = Requantizer::from_real_multiplier(2.5, 0);
        assert_eq!(r.apply(10), 25);
        assert_eq!(r.apply(-10), -25);
    }

    #[test]
    fn requantizer_zero_factor_is_zero_point() {
        let r = Requantizer::from_real_multiplier(0.0, 7);
        assert_eq!(r.apply(123456), 7);
    }

    /// `apply_i32` as gemmlowp writes it — sign-dependent nudge, then a
    /// division truncating toward zero — kept as the reference the
    /// shift form is pinned against.
    fn apply_i32_by_division(r: &Requantizer, acc: i32) -> i32 {
        let acc = if r.shift < 0 { acc.saturating_mul(1i32 << (-r.shift).min(30)) } else { acc };
        let prod = acc as i64 * r.multiplier as i64;
        let nudge = if prod >= 0 { 1i64 << 30 } else { 1 - (1i64 << 30) };
        let high = ((prod + nudge) / (1i64 << 31)) as i32;
        let shifted = if r.shift > 0 {
            let s = r.shift;
            let mask = ((1u32 << s) - 1) as i32;
            let rem = high & mask;
            let threshold = (mask >> 1) + i32::from(high < 0);
            (high >> s) + i32::from(rem > threshold)
        } else {
            high
        };
        shifted.wrapping_add(r.zero_point)
    }

    const EDGE_ACCS: [i32; 5] = [i32::MIN, -1, 0, 1, i32::MAX];

    #[test]
    fn a_factor_below_two_to_the_minus_32_is_the_zero_requantizer() {
        let r = Requantizer::from_real_multiplier(1e-12, 3);
        assert_eq!(r, Requantizer { multiplier: 0, shift: 0, zero_point: 3 });
        for acc in EDGE_ACCS {
            assert_eq!(r.apply(acc), 3, "{acc}");
        }
    }

    #[test]
    fn the_smallest_shifts_apply_without_overflow() {
        // 1.5·2⁻³¹ normalizes to shift 30, 1.5·2⁻³² to shift 31: the
        // widest mask `apply` builds.
        for (real, shift) in [(1.5 / 2f64.powi(31), 30), (1.5 / 2f64.powi(32), 31)] {
            let r = Requantizer::from_real_multiplier(real, -5);
            assert_eq!((r.multiplier, r.shift), (0x6000_0000, shift));
            for acc in EDGE_ACCS.into_iter().chain([1 << 30, -(1 << 30), 0x5555_5555]) {
                let want = (acc as f64 * real).round() as i32 - 5;
                assert!((r.apply_i32(acc) - want).abs() <= 1, "{r:?} {acc}");
                assert_eq!(r.apply_i32(acc), apply_i32_by_division(&r, acc), "{r:?} {acc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be finite, got inf")]
    fn an_infinite_factor_panics() {
        Requantizer::from_real_multiplier(f64::INFINITY, 0);
    }

    #[test]
    #[should_panic(expected = "must be finite, got NaN")]
    fn a_nan_factor_panics() {
        Requantizer::from_real_multiplier(f64::NAN, 0);
    }

    #[test]
    #[ignore = "2^32 accumulators x 40 requantizers: minutes even in release (CI hot-path step)"]
    fn shift_form_equals_division_form_for_every_accumulator() {
        let mut requantizers = Vec::new();
        for multiplier in [0, 1 << 30, i32::MAX, 0x5A82_799A] {
            for shift in [-3, 0, 1, 7, 30] {
                for zero_point in [-128, 128] {
                    requantizers.push(Requantizer { multiplier, shift, zero_point });
                }
            }
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            for share in requantizers.chunks(requantizers.len().div_ceil(threads)) {
                scope.spawn(move || {
                    for &r in share {
                        for acc in i32::MIN..=i32::MAX {
                            assert_eq!(
                                r.apply_i32(acc),
                                apply_i32_by_division(&r, acc),
                                "{r:?} {acc}"
                            );
                        }
                    }
                });
            }
        });
    }

    proptest! {
        #[test]
        fn prop_shift_form_equals_division_form(
            multiplier in 0i32..i32::MAX,
            shift in -31i32..31,
            zero_point in -128i32..129,
            acc in any::<i32>(),
        ) {
            let r = Requantizer { multiplier, shift, zero_point };
            for acc in EDGE_ACCS.into_iter().chain([acc]) {
                prop_assert_eq!(r.apply_i32(acc), apply_i32_by_division(&r, acc), "{:?} {}", r, acc);
            }
        }

        #[test]
        fn prop_quantize_within_half_step(x in -100.0f32..100.0, lo in -50.0f32..0.0, hi in 0.1f32..50.0) {
            let p = QuantParams::from_range(lo, hi);
            let clamped = x.clamp(p.dequantize(i8::MIN), p.dequantize(i8::MAX));
            let err = (p.dequantize(p.quantize(x)) - clamped).abs();
            prop_assert!(err <= p.scale / 2.0 + 1e-5);
        }

        #[test]
        fn prop_requantizer_tracks_float(real in 0.0001f64..4.0, acc in -100_000i32..100_000) {
            let r = Requantizer::from_real_multiplier(real, 0);
            let expect = (acc as f64 * real).round();
            let got = r.apply_i32(acc) as f64;
            // Integer pipeline may differ by one code from the float round.
            prop_assert!((got - expect).abs() <= 1.0 + expect.abs() * 1e-6,
                "real={real} acc={acc} got={got} expect={expect}");
        }

        #[test]
        fn prop_monotone_quantization(a in -10.0f32..10.0, b in -10.0f32..10.0) {
            let p = QuantParams::from_range(-10.0, 10.0);
            if a <= b {
                prop_assert!(p.quantize(a) <= p.quantize(b));
            }
        }
    }
}
