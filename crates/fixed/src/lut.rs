//! 1024-entry activation lookup tables (`ActLUT`, Table 6).
//!
//! The paper's LUT activations store "pre-computed output values as 1024
//! 8-bit entries" (§5.1.3). A [`ActLut`] samples an arbitrary scalar
//! function over a symmetric input range into 1024 int8 codes; evaluation
//! is a clamp + index + load, which maps onto one MU access plus one CU
//! address-computation stage.

use crate::act::{ActQ, ACT_FRAC};
use crate::quant::QuantParams;

/// Number of entries in a hardware activation LUT.
pub const LUT_ENTRIES: usize = 1024;

/// A 1024-entry 8-bit lookup table approximating a scalar function over
/// a symmetric input range `[-range, range]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ActLut {
    table: Vec<i8>,
    /// Half-width of the covered input interval.
    input_range: f32,
    /// Quantization of the stored outputs.
    out_params: QuantParams,
}

impl ActLut {
    /// Samples `f` over `[-input_range, input_range]` into 1024 entries.
    ///
    /// Output codes are quantized over the observed output range.
    ///
    /// # Panics
    ///
    /// Panics if `input_range` is not finite and positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use taurus_fixed::lut::ActLut;
    /// let lut = ActLut::from_fn(|x| x.tanh(), 4.0);
    /// assert!((lut.eval_f32(0.5) - 0.5f32.tanh()).abs() < 0.02);
    /// ```
    pub fn from_fn(f: impl Fn(f32) -> f32, input_range: f32) -> Self {
        assert!(
            input_range.is_finite() && input_range > 0.0,
            "input_range must be finite and positive, got {input_range}"
        );
        let samples: Vec<f32> = (0..LUT_ENTRIES)
            .map(|i| {
                let x = -input_range + 2.0 * input_range * i as f32 / (LUT_ENTRIES - 1) as f32;
                f(x)
            })
            .collect();
        let out_params = QuantParams::from_values(&samples);
        let table = samples.iter().map(|&y| out_params.quantize(y)).collect();
        Self { table, input_range, out_params }
    }

    /// The standard tanh table over `[-4, 4]`.
    pub fn tanh() -> Self {
        Self::from_fn(|x| x.tanh(), 4.0)
    }

    /// The standard sigmoid table over `[-8, 8]`.
    pub fn sigmoid() -> Self {
        Self::from_fn(|x| 1.0 / (1.0 + (-x).exp()), 8.0)
    }

    /// Looks up the table index for a real input (clamped to the range).
    #[inline]
    pub fn index_of(&self, x: f32) -> usize {
        let clamped = x.clamp(-self.input_range, self.input_range);
        let t = (clamped + self.input_range) / (2.0 * self.input_range);
        ((t * (LUT_ENTRIES - 1) as f32).round() as usize).min(LUT_ENTRIES - 1)
    }

    /// Evaluates via the table, float in / float out.
    #[inline]
    pub fn eval_f32(&self, x: f32) -> f32 {
        self.out_params.dequantize(self.table[self.index_of(x)])
    }

    /// Evaluates on the wide fixed-point activation path.
    #[inline]
    pub fn eval_q(&self, x: ActQ) -> ActQ {
        ActQ::from_f32(self.eval_f32(x.to_f32()))
    }

    /// Raw table contents (what an MU bank would store).
    pub fn entries(&self) -> &[i8] {
        &self.table
    }

    /// Output quantization parameters.
    pub fn out_params(&self) -> QuantParams {
        self.out_params
    }

    /// Half-width of the covered input interval.
    pub fn input_range(&self) -> f32 {
        self.input_range
    }

    /// Memory footprint in bytes (always 1024 for 8-bit entries) — the
    /// "small fixed fraction of switch memory" §5.1.3 mentions.
    pub fn footprint_bytes(&self) -> usize {
        self.table.len()
    }

    /// Fixed-point evaluation precision note: the quantization step of the
    /// stored outputs, i.e. the worst-case representation error.
    pub fn output_step(&self) -> f32 {
        self.out_params.scale
    }
}

impl Default for ActLut {
    fn default() -> Self {
        Self::tanh()
    }
}

const _: () = assert!(ACT_FRAC > 0);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tanh_lut_accuracy() {
        let lut = ActLut::tanh();
        for i in -40..=40 {
            let x = i as f32 / 10.0;
            let err = (lut.eval_f32(x) - x.tanh()).abs();
            assert!(err < 0.02, "x={x} err={err}");
        }
    }

    #[test]
    fn sigmoid_lut_accuracy() {
        let lut = ActLut::sigmoid();
        for i in -80..=80 {
            let x = i as f32 / 10.0;
            let err = (lut.eval_f32(x) - 1.0 / (1.0 + (-x).exp())).abs();
            assert!(err < 0.02, "x={x} err={err}");
        }
    }

    #[test]
    fn clamps_outside_range() {
        let lut = ActLut::tanh();
        assert_eq!(lut.eval_f32(100.0), lut.eval_f32(4.0));
        assert_eq!(lut.eval_f32(-100.0), lut.eval_f32(-4.0));
    }

    #[test]
    fn footprint_is_1024_bytes() {
        assert_eq!(ActLut::tanh().footprint_bytes(), 1024);
        assert_eq!(ActLut::tanh().entries().len(), LUT_ENTRIES);
    }

    #[test]
    #[should_panic(expected = "input_range")]
    fn rejects_bad_range() {
        let _ = ActLut::from_fn(|x| x, -1.0);
    }

    #[test]
    fn index_endpoints() {
        let lut = ActLut::tanh();
        assert_eq!(lut.index_of(-4.0), 0);
        assert_eq!(lut.index_of(4.0), LUT_ENTRIES - 1);
        assert_eq!(lut.index_of(0.0), (LUT_ENTRIES - 1) / 2 + 1);
    }

    proptest! {
        #[test]
        fn prop_lut_error_bounded(x in -4.0f32..4.0) {
            let lut = ActLut::tanh();
            // Error ≤ output quantization step + input sampling step · max slope.
            let sampling = 8.0 / (LUT_ENTRIES - 1) as f32;
            let bound = lut.output_step() + sampling; // tanh slope ≤ 1
            prop_assert!((lut.eval_f32(x) - x.tanh()).abs() <= bound);
        }

        #[test]
        fn prop_lut_monotone_for_monotone_fn(a in -4.0f32..4.0, b in -4.0f32..4.0) {
            let lut = ActLut::tanh();
            if a <= b {
                prop_assert!(lut.eval_f32(a) <= lut.eval_f32(b) + lut.output_step());
            }
        }
    }
}
