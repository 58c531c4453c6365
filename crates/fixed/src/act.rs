//! The activation functions a layer may carry.
//!
//! Table 6 of the paper benchmarks seven activation implementations on
//! the MapReduce block: ReLU, LeakyReLU, exponential-series and
//! piecewise-linear tanh and sigmoid, and a lookup table. Their
//! fixed-point forms are the CU op chains of `taurus_ir::microbench`. A
//! compiled model runs every activation as a 256-entry int8 lookup table,
//! built from the float reference [`Activation::eval_f32`] returns.

/// The activation functions supported by the Taurus datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Identity (no nonlinearity).
    Identity,
    /// `max(0, x)`.
    Relu,
    /// `x > 0 ? x : slope·x` with slope 1/8 (a power of two, so the
    /// multiply is a shift in hardware).
    LeakyRelu,
    /// Tanh via range-reduced exponential series (`TanhExp` in Table 6).
    TanhExp,
    /// Sigmoid via range-reduced exponential series (`SigmoidExp`).
    SigmoidExp,
    /// Tanh via piecewise-linear approximation (`TanhPW`).
    TanhPw,
    /// Sigmoid via piecewise-linear approximation (`SigmoidPW`).
    SigmoidPw,
    /// Lookup-table activation (`ActLUT`); evaluates as tanh, its
    /// default table.
    Lut,
}

impl Activation {
    /// Float reference for this activation: the function its LUT
    /// tabulates (LUT evaluates as tanh, its default table).
    #[inline]
    pub fn eval_f32(&self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    x * 0.125
                }
            }
            Activation::TanhExp | Activation::TanhPw | Activation::Lut => x.tanh(),
            Activation::SigmoidExp | Activation::SigmoidPw => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The logistic in `f64`, an independent reference for the `f32` one.
    fn sigmoid_f64(x: f32) -> f64 {
        1.0 / (1.0 + (-f64::from(x)).exp())
    }

    /// Largest `|act(x) − reference(x)|` over `x = i/10` for `i` in `range`.
    fn max_err(
        act: Activation,
        range: core::ops::RangeInclusive<i32>,
        reference: fn(f32) -> f64,
    ) -> f64 {
        range
            .map(|i| i as f32 / 10.0)
            .map(|x| (f64::from(act.eval_f32(x)) - reference(x)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn relu_matches_reference() {
        for x in [-3.0f32, -0.125, 0.0, 0.125, 5.0] {
            assert_eq!(Activation::Relu.eval_f32(x), if x > 0.0 { x } else { 0.0 });
        }
    }

    #[test]
    fn leaky_relu_uses_eighth_slope() {
        assert_eq!(Activation::LeakyRelu.eval_f32(-8.0), -1.0);
        assert_eq!(Activation::LeakyRelu.eval_f32(4.0), 4.0);
        assert_eq!(Activation::LeakyRelu.eval_f32(0.0), 0.0);
    }

    #[test]
    fn sigmoid_exp_accuracy() {
        assert!(max_err(Activation::SigmoidExp, -60..=60, sigmoid_f64) < 1e-6);
    }

    #[test]
    fn tanh_exp_accuracy() {
        assert!(max_err(Activation::TanhExp, -60..=60, |x| f64::from(x).tanh()) < 1e-6);
    }

    #[test]
    fn sigmoid_pw_coarse_accuracy() {
        // The piecewise segments live in the microbenchmark graph; the
        // reference a SigmoidPW layer's LUT tabulates is the logistic.
        assert!(max_err(Activation::SigmoidPw, -80..=80, sigmoid_f64) < 1e-6);
    }

    #[test]
    fn tanh_pw_coarse_accuracy() {
        for act in [Activation::TanhPw, Activation::Lut] {
            let err = max_err(act, -80..=80, |x| f64::from(x).tanh());
            assert!(err < 1e-6, "{act:?} err={err}");
        }
    }

    #[test]
    fn activations_saturate_sanely_at_extremes() {
        for x in [20.0f32, 1e30, f32::INFINITY] {
            assert!((Activation::SigmoidExp.eval_f32(x) - 1.0).abs() < 1e-6, "{x}");
            assert!(Activation::SigmoidExp.eval_f32(-x) < 1e-6, "{x}");
            assert!((Activation::TanhExp.eval_f32(x) - 1.0).abs() < 1e-6, "{x}");
            assert!((Activation::TanhExp.eval_f32(-x) + 1.0).abs() < 1e-6, "{x}");
        }
    }

    #[test]
    fn enum_dispatch_agrees_with_free_functions() {
        // One reference per family: the Table 6 variants of a function
        // differ in their CU op chains, never in the LUT they tabulate.
        for x in [-2.5f32, -0.7, 0.0, 0.7, 2.5] {
            assert_eq!(Activation::Identity.eval_f32(x), x);
            assert_eq!(Activation::Relu.eval_f32(x), x.max(0.0));
            for tanh in [Activation::TanhExp, Activation::TanhPw, Activation::Lut] {
                assert_eq!(tanh.eval_f32(x), x.tanh());
            }
            for sigmoid in [Activation::SigmoidExp, Activation::SigmoidPw] {
                assert_eq!(sigmoid.eval_f32(x), 1.0 / (1.0 + (-x).exp()));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_sigmoid_bounded_and_monotone(a in -10.0f32..10.0, b in -10.0f32..10.0) {
            let ya = Activation::SigmoidExp.eval_f32(a);
            let yb = Activation::SigmoidExp.eval_f32(b);
            prop_assert!((0.0..=1.0).contains(&ya));
            if a <= b {
                prop_assert!(ya <= yb, "a={a} b={b}");
            }
        }

        #[test]
        fn prop_tanh_odd_symmetry(x in -8.0f32..8.0) {
            let y = Activation::TanhPw.eval_f32(x);
            let ny = Activation::TanhPw.eval_f32(-x);
            prop_assert!((y + ny).abs() < 1e-6);
        }

        #[test]
        fn prop_relu_idempotent(x in -100.0f32..100.0) {
            let once = Activation::Relu.eval_f32(x);
            prop_assert_eq!(Activation::Relu.eval_f32(once), once);
        }
    }
}
