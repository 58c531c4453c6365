//! Saturating Q-format fixed-point types.
//!
//! A `Q8<F>` stores a signed 8-bit raw value interpreted as `raw / 2^F`;
//! likewise `Q16<F>` and `Q32<F>`. All arithmetic saturates instead of
//! wrapping, matching the behaviour of the Taurus functional units, which
//! must never corrupt a forwarding decision with silent overflow.
//!
//! The paper's final design point (§5.1.1) is an 8-bit datapath; the 16-
//! and 32-bit types exist for the precision sweep of Table 4 and for wide
//! accumulators inside reductions.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! define_q {
    (
        $(#[$meta:meta])*
        $name:ident, $raw:ty, $wide:ty, $bits:expr
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name<const F: u32>($raw);

        impl<const F: u32> $name<F> {
            /// Number of fractional bits.
            pub const FRAC: u32 = F;
            /// Total number of bits in the raw representation.
            pub const BITS: u32 = $bits;
            /// Smallest representable value.
            pub const MIN: Self = Self(<$raw>::MIN);
            /// Largest representable value.
            pub const MAX: Self = Self(<$raw>::MAX);
            /// Zero.
            pub const ZERO: Self = Self(0);
            /// One, saturated if `2^F` exceeds the raw range.
            pub const ONE: Self = {
                let one = 1 as $wide << F;
                if one > <$raw>::MAX as $wide {
                    Self(<$raw>::MAX)
                } else {
                    Self(one as $raw)
                }
            };

            /// Creates a value from its raw (scaled-integer) representation.
            #[inline]
            pub const fn from_raw(raw: $raw) -> Self {
                Self(raw)
            }

            /// Returns the raw (scaled-integer) representation.
            #[inline]
            pub const fn raw(self) -> $raw {
                self.0
            }

            /// Converts from `f32`, rounding to nearest and saturating.
            ///
            /// NaN maps to zero, matching hardware flush behaviour.
            #[inline]
            pub fn from_f32(x: f32) -> Self {
                if x.is_nan() {
                    return Self::ZERO;
                }
                let scaled = (x * (1u64 << F) as f32).round();
                if scaled >= <$raw>::MAX as f32 {
                    Self::MAX
                } else if scaled <= <$raw>::MIN as f32 {
                    Self::MIN
                } else {
                    Self(scaled as $raw)
                }
            }

            /// Converts to `f32` exactly (the raw range always fits).
            #[inline]
            pub fn to_f32(self) -> f32 {
                self.0 as f32 / (1u64 << F) as f32
            }

            /// Saturating addition.
            #[inline]
            pub fn saturating_add(self, rhs: Self) -> Self {
                Self(self.0.saturating_add(rhs.0))
            }

            /// Saturating subtraction.
            #[inline]
            pub fn saturating_sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }

            /// Saturating multiplication with round-to-nearest rescaling.
            #[inline]
            pub fn saturating_mul(self, rhs: Self) -> Self {
                let prod = self.0 as $wide * rhs.0 as $wide;
                // Round to nearest: add half an ULP before the arithmetic
                // shift. For F == 0 no rescale is needed.
                let shifted = if F == 0 {
                    prod
                } else {
                    (prod + (1 as $wide << (F - 1))) >> F
                };
                if shifted > <$raw>::MAX as $wide {
                    Self::MAX
                } else if shifted < <$raw>::MIN as $wide {
                    Self::MIN
                } else {
                    Self(shifted as $raw)
                }
            }

            /// Saturating division (`self / rhs`).
            ///
            /// Division by zero saturates to [`Self::MAX`] or [`Self::MIN`]
            /// by the sign of the dividend (zero dividend gives zero).
            #[inline]
            pub fn saturating_div(self, rhs: Self) -> Self {
                if rhs.0 == 0 {
                    return match self.0.cmp(&0) {
                        Ordering::Greater => Self::MAX,
                        Ordering::Less => Self::MIN,
                        Ordering::Equal => Self::ZERO,
                    };
                }
                let num = (self.0 as $wide) << F;
                let q = num / rhs.0 as $wide;
                if q > <$raw>::MAX as $wide {
                    Self::MAX
                } else if q < <$raw>::MIN as $wide {
                    Self::MIN
                } else {
                    Self(q as $raw)
                }
            }

            /// Saturating negation (`-MIN` saturates to `MAX`).
            #[inline]
            pub fn saturating_neg(self) -> Self {
                Self(self.0.checked_neg().unwrap_or(<$raw>::MAX))
            }

            /// Saturating absolute value.
            #[inline]
            pub fn saturating_abs(self) -> Self {
                if self.0 < 0 {
                    self.saturating_neg()
                } else {
                    self
                }
            }

            /// Element maximum.
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self(self.0.max(rhs.0))
            }

            /// Element minimum.
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self(self.0.min(rhs.0))
            }
        }

        impl<const F: u32> Add for $name<F> {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.saturating_add(rhs)
            }
        }

        impl<const F: u32> Sub for $name<F> {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.saturating_sub(rhs)
            }
        }

        impl<const F: u32> Mul for $name<F> {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.saturating_mul(rhs)
            }
        }

        impl<const F: u32> Div for $name<F> {
            type Output = Self;
            #[inline]
            fn div(self, rhs: Self) -> Self {
                self.saturating_div(rhs)
            }
        }

        impl<const F: u32> Neg for $name<F> {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                self.saturating_neg()
            }
        }

        impl<const F: u32> PartialOrd for $name<F> {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl<const F: u32> Ord for $name<F> {
            #[inline]
            fn cmp(&self, other: &Self) -> Ordering {
                self.0.cmp(&other.0)
            }
        }

        impl<const F: u32> fmt::Debug for $name<F> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "<{}>({})"), F, self.to_f32())
            }
        }

        impl<const F: u32> fmt::Display for $name<F> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.to_f32(), f)
            }
        }

        impl<const F: u32> From<$name<F>> for f32 {
            fn from(v: $name<F>) -> f32 {
                v.to_f32()
            }
        }
    };
}

define_q!(
    /// 8-bit saturating fixed point with `F` fractional bits — the Taurus
    /// datapath element type (§5.1.1, "Fixed-Point Precision").
    Q8,
    i8,
    i32,
    8
);
define_q!(
    /// 16-bit saturating fixed point with `F` fractional bits (Table 4's
    /// `fix16` precision point).
    Q16,
    i16,
    i64,
    16
);
define_q!(
    /// 32-bit saturating fixed point with `F` fractional bits (Table 4's
    /// `fix32` precision point); also used for reduction accumulators.
    Q32,
    i32,
    i64,
    32
);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants() {
        assert_eq!(Q8::<4>::ONE.to_f32(), 1.0);
        assert_eq!(Q8::<4>::ZERO.to_f32(), 0.0);
        assert_eq!(Q8::<4>::MAX.raw(), i8::MAX);
        assert_eq!(Q8::<4>::MIN.raw(), i8::MIN);
        // With 7 fractional bits, 1.0 would need raw 128: saturates to 127.
        assert_eq!(Q8::<7>::ONE.raw(), i8::MAX);
        assert_eq!(Q16::<8>::ONE.raw(), 256);
        assert_eq!(Q32::<16>::ONE.raw(), 65536);
    }

    #[test]
    fn round_trip_exact_values() {
        for raw in i8::MIN..=i8::MAX {
            let q = Q8::<4>::from_raw(raw);
            assert_eq!(Q8::<4>::from_f32(q.to_f32()), q);
        }
    }

    #[test]
    fn from_f32_rounds_to_nearest() {
        // 0.03125 = half an ULP at F=4 → rounds away from zero to 1 raw.
        assert_eq!(Q8::<4>::from_f32(0.03125).raw(), 1);
        assert_eq!(Q8::<4>::from_f32(0.031).raw(), 0);
        assert_eq!(Q8::<4>::from_f32(-0.03125).raw(), -1);
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(Q8::<4>::from_f32(100.0), Q8::<4>::MAX);
        assert_eq!(Q8::<4>::from_f32(-100.0), Q8::<4>::MIN);
        assert_eq!(Q8::<4>::from_f32(f32::INFINITY), Q8::<4>::MAX);
        assert_eq!(Q8::<4>::from_f32(f32::NEG_INFINITY), Q8::<4>::MIN);
        assert_eq!(Q8::<4>::from_f32(f32::NAN), Q8::<4>::ZERO);
    }

    #[test]
    fn mul_matches_float_when_exact() {
        let a = Q8::<4>::from_f32(1.5);
        let b = Q8::<4>::from_f32(2.0);
        assert_eq!((a * b).to_f32(), 3.0);
        let c = Q8::<4>::from_f32(-1.25);
        assert_eq!((c * b).to_f32(), -2.5);
    }

    #[test]
    fn mul_f0_is_integer_mul() {
        let a = Q8::<0>::from_raw(7);
        let b = Q8::<0>::from_raw(9);
        assert_eq!((a * b).raw(), 63);
        let c = Q8::<0>::from_raw(100);
        assert_eq!((c * c), Q8::<0>::MAX);
    }

    #[test]
    fn div_basics() {
        let a = Q8::<4>::from_f32(3.0);
        let b = Q8::<4>::from_f32(2.0);
        assert_eq!((a / b).to_f32(), 1.5);
        assert_eq!(a / Q8::<4>::ZERO, Q8::<4>::MAX);
        assert_eq!((-a) / Q8::<4>::ZERO, Q8::<4>::MIN);
        assert_eq!(Q8::<4>::ZERO / Q8::<4>::ZERO, Q8::<4>::ZERO);
    }

    #[test]
    fn neg_and_abs_saturate_at_min() {
        assert_eq!(-Q8::<4>::MIN, Q8::<4>::MAX);
        assert_eq!(Q8::<4>::MIN.saturating_abs(), Q8::<4>::MAX);
        assert_eq!(Q8::<4>::from_f32(-2.0).saturating_abs().to_f32(), 2.0);
    }

    #[test]
    fn ordering_matches_float_ordering() {
        let a = Q8::<4>::from_f32(-3.0);
        let b = Q8::<4>::from_f32(0.5);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn q16_q32_wider_precision() {
        let a = Q16::<8>::from_f32(1.2345);
        assert!((a.to_f32() - 1.2345).abs() < 1.0 / 256.0);
        let b = Q32::<16>::from_f32(1.2345);
        assert!((b.to_f32() - 1.2345).abs() < 1.0 / 65536.0);
    }

    proptest! {
        #[test]
        fn prop_add_saturates_never_wraps(a in any::<i8>(), b in any::<i8>()) {
            let qa = Q8::<4>::from_raw(a);
            let qb = Q8::<4>::from_raw(b);
            let sum = qa + qb;
            let wide = a as i32 + b as i32;
            prop_assert_eq!(sum.raw() as i32, wide.clamp(i8::MIN as i32, i8::MAX as i32));
        }

        #[test]
        fn prop_mul_error_within_one_ulp(a in any::<i8>(), b in any::<i8>()) {
            let qa = Q8::<4>::from_raw(a);
            let qb = Q8::<4>::from_raw(b);
            let exact = qa.to_f32() * qb.to_f32();
            let got = (qa * qb).to_f32();
            let clamped = exact.clamp(Q8::<4>::MIN.to_f32(), Q8::<4>::MAX.to_f32());
            prop_assert!((got - clamped).abs() <= 1.0 / 16.0 + 1e-6,
                "a={} b={} exact={} got={}", qa, qb, exact, got);
        }

        #[test]
        fn prop_mul_commutative(a in any::<i8>(), b in any::<i8>()) {
            let qa = Q8::<4>::from_raw(a);
            let qb = Q8::<4>::from_raw(b);
            prop_assert_eq!(qa * qb, qb * qa);
        }

        #[test]
        fn prop_add_commutative_and_identity(a in any::<i8>(), b in any::<i8>()) {
            let qa = Q8::<4>::from_raw(a);
            let qb = Q8::<4>::from_raw(b);
            prop_assert_eq!(qa + qb, qb + qa);
            prop_assert_eq!(qa + Q8::<4>::ZERO, qa);
        }

        #[test]
        fn prop_ordering_total(a in any::<i8>(), b in any::<i8>()) {
            let qa = Q8::<4>::from_raw(a);
            let qb = Q8::<4>::from_raw(b);
            prop_assert_eq!(qa.cmp(&qb), a.cmp(&b));
        }

        #[test]
        fn prop_q32_mul_round_trip(x in -100.0f32..100.0, y in -100.0f32..100.0) {
            let qa = Q32::<16>::from_f32(x);
            let qb = Q32::<16>::from_f32(y);
            let got = (qa * qb).to_f32();
            let exact = (x * y).clamp(Q32::<16>::MIN.to_f32(), Q32::<16>::MAX.to_f32());
            prop_assert!((got - exact).abs() < 0.01, "x={x} y={y} got={got} exact={exact}");
        }
    }
}
