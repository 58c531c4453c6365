//! The vector steps of the dense-layer kernel ([`crate::DenseOp`]),
//! written against SSE2, the x86-64 baseline.
//!
//! - [`pair`]: two input lanes' low halves as one column pair in every
//!   lane, the operand form `pmaddwd` reads, built in vector registers.
//! - [`madd`]: one `pmaddwd` of a panel's `i16` column pair against a
//!   broadcast input pair — two multiply-accumulates per row, four rows
//!   at a time. SSE2 has no `i32 × i32` lane multiply (`pmulld` is
//!   SSE4.1): an `i32` lane product would cost two `pmuludq` and four
//!   shuffles.
//! - [`Requant4::apply`]: `Requantizer::apply` over four accumulators in
//!   one register, saturated to int8 by the `packs` pair, from lane
//!   constants a [`Requant4`] builds once per plan.
//!
//! Every other target gets the plain-Rust twins in `scalar`, which are
//! also compiled on x86-64 under `cfg(test)` so the tests below pin each
//! vector body against its twin: no build carries an untested form.
//!
//! This file is the only `unsafe` in the workspace's library code: one
//! block per vector step, each calling SSE2 intrinsics on values
//! reinterpreted as 16-byte vectors.

use taurus_fixed::quant::Requantizer;

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) use sse2::{madd, pair};

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub(crate) use scalar::{madd, pair};

/// A requantizer prepared for four lanes at once: its constants splat
/// across a register's lanes, built when the plan is. Only requantizers
/// the vector form computes exactly get one: `0 ≤ shift ≤ 30` and
/// `multiplier ≥ 0`, which covers every requantizer
/// [`Requantizer::from_real_multiplier`] builds below a factor of one.
///
/// `apply_i32` rounds twice: `high = ⌊P / 2³¹⌋` for `P = acc·M + 2³⁰`,
/// then `high / 2ˢ` to nearest, ties away from zero. Both are one floor
/// of the 64-bit `P`: `⌊(P + C − D·[P < 0]) / 2³¹⁺ˢ⌋` with `C = 2³⁰⁺ˢ`
/// and `D = 2³¹` (both 0 for `s = 0`), because a floor of a floor is
/// one floor, and `high < 0` exactly when `P < 0`. That sign is
/// `acc < L` for `L = −⌊2³⁰ / M⌋`, known before the product is.
///
/// It reads accumulators **offset by 2³¹** ([`Requant4::OFFSET`]): an
/// offset lane is an unsigned 32-bit number, so `pmuludq`'s unsigned
/// product is `P` plus the constant `2³¹·M − 2³⁰`. A caller adds the
/// offset where it is free: in an accumulator's start value.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
#[cfg_attr(not(all(target_arch = "x86_64", target_feature = "sse2")), allow(dead_code))]
pub(crate) struct Requant4 {
    /// `M` in every lane.
    multiplier: [i32; 4],
    /// `2⁶³ + 2³⁰ − 2³¹·M + C − D` in both 64-bit lanes: `P` from the
    /// offset product, the rounding addend, and a bias that keeps the
    /// sum non-negative, so a logical shift floors it.
    nudge: [i64; 2],
    /// `31 + s`, as the count operand of a 64-bit shift.
    shift: [i64; 2],
    /// `L − 1` in every lane (`i32::MAX` for `M = 0`, where `P > 0`).
    below: [i32; 4],
    /// `D` in the low half of each 64-bit lane: added back where
    /// `P ≥ 0`.
    ties: [i32; 4],
    /// The zero point, less the bias's share `2³²⁻ˢ` of the quotient.
    zero_point: [i32; 4],
    /// The requantizer itself: the scalar twin's definition.
    rq: Requantizer,
}

impl Requant4 {
    /// What [`Requant4::apply`]'s accumulators carry: `acc + 2³¹`, which
    /// wraps to `acc ^ i32::MIN`.
    pub(crate) const OFFSET: i32 = i32::MIN;

    /// `rq`'s lanes, or `None` if the vector form is not exact for it.
    pub(crate) fn new(rq: Requantizer) -> Option<Self> {
        let Requantizer { multiplier: m, shift: s, zero_point } = rq;
        if !(0..=30).contains(&s) || m < 0 {
            return None;
        }
        let (c, d) = if s == 0 { (0, 0) } else { (1i64 << (30 + s), 1i64 << 31) };
        let below = if m == 0 { i32::MAX } else { -((1 << 30) / m) - 1 };
        Some(Self {
            multiplier: [m; 4],
            nudge: [i64::MIN.wrapping_add((1 << 30) - (i64::from(m) << 31) + c - d); 2],
            shift: [i64::from(31 + s), 0],
            below: [below; 4],
            ties: [d as i32, 0, d as i32, 0],
            zero_point: [zero_point.wrapping_sub((1u64 << (32 - s)) as u32 as i32); 4],
            rq,
        })
    }

    /// `offset.map(|a| rq.apply(a - OFFSET))`, four lanes at once.
    #[inline(always)]
    pub(crate) fn apply(&self, offset: [i32; 4]) -> [i8; 4] {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        return sse2::requant4(self, offset);
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        return scalar::requant4(self, offset);
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_add_epi64, _mm_and_si128, _mm_castps_si128, _mm_castsi128_ps,
        _mm_cmpgt_epi32, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_madd_epi16, _mm_mul_epu32,
        _mm_packs_epi16, _mm_packs_epi32, _mm_set1_epi32, _mm_shuffle_epi32, _mm_shuffle_ps,
        _mm_srl_epi64, _mm_srli_epi64, _mm_unpacklo_epi16, _mm_xor_si128,
    };
    use core::mem::transmute;

    use super::Requant4;

    /// `a | b << 16` in all four lanes: the low halves of `a` and `b`
    /// as one `pmaddwd` column pair.
    #[inline(always)]
    pub(crate) fn pair(a: i32, b: i32) -> [i32; 4] {
        // SAFETY: the intrinsics need SSE2, which this module's `cfg`
        // guarantees the build has. `[i32; 4]` and `__m128i` are 16 bytes
        // of plain integers; every bit pattern is valid in both.
        unsafe {
            let words = _mm_unpacklo_epi16(_mm_cvtsi32_si128(a), _mm_cvtsi32_si128(b));
            transmute::<__m128i, [i32; 4]>(_mm_shuffle_epi32(words, 0))
        }
    }

    /// `acc[l] + w[2l]·lo + w[2l+1]·hi` in each of the four lanes, where
    /// `lo` and `hi` are the signed 16-bit halves of `x[l]`. Wrapping,
    /// like all of the plan's arithmetic; each product is exact.
    #[inline(always)]
    pub(crate) fn madd(acc: [i32; 4], w: &[i16; 8], x: [i32; 4]) -> [i32; 4] {
        // SAFETY: the intrinsics need SSE2, which this module's `cfg`
        // guarantees the build has. `[i32; 4]`, `[i16; 8]` and `__m128i`
        // are 16 bytes of plain integers; every bit pattern is valid in
        // each of them.
        unsafe {
            let acc = transmute::<[i32; 4], __m128i>(acc);
            let w = transmute::<[i16; 8], __m128i>(*w);
            let x = transmute::<[i32; 4], __m128i>(x);
            transmute::<__m128i, [i32; 4]>(_mm_add_epi32(acc, _mm_madd_epi16(w, x)))
        }
    }

    /// [`Requant4::apply`], as its definition reads: the sign term and
    /// the addend are ready before the two `pmuludq` (one per pair of
    /// lanes) are, so one add, one shift and one shuffle follow them.
    /// `shufps` takes the quotients from the low halves of the 64-bit
    /// lanes as lanes 0, 2, 1, 3; the byte order undoes it.
    /// `packs_epi32` + `packs_epi16` saturate to int8: the clamp.
    #[inline(always)]
    pub(crate) fn requant4(lanes: &Requant4, offset: [i32; 4]) -> [i8; 4] {
        // SAFETY: the intrinsics need SSE2, which this module's `cfg`
        // guarantees the build has. `[i32; 4]`, `[i64; 2]` and `__m128i`
        // are 16 bytes of plain integers; every bit pattern is valid in
        // each of them.
        let codes = unsafe {
            let v = |l: [i32; 4]| transmute::<[i32; 4], __m128i>(l);
            let (u, m) = (v(offset), v(lanes.multiplier));
            let nudge = transmute::<[i64; 2], __m128i>(lanes.nudge);
            let count = transmute::<[i64; 2], __m128i>(lanes.shift);
            // `[P ≥ 0]·D`, lanes 0 and 2 in `even`, 1 and 3 in `odd`.
            let acc = _mm_xor_si128(u, _mm_set1_epi32(Requant4::OFFSET));
            let nonneg = _mm_cmpgt_epi32(acc, v(lanes.below));
            let even = _mm_add_epi64(nudge, _mm_and_si128(nonneg, v(lanes.ties)));
            let odd =
                _mm_add_epi64(nudge, _mm_and_si128(_mm_srli_epi64(nonneg, 32), v(lanes.ties)));
            let even = _mm_srl_epi64(_mm_add_epi64(_mm_mul_epu32(u, m), even), count);
            let odd =
                _mm_srl_epi64(_mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(u, 32), m), odd), count);
            let quotients = _mm_castps_si128(_mm_shuffle_ps(
                _mm_castsi128_ps(even),
                _mm_castsi128_ps(odd),
                0b10_00_10_00,
            ));
            let out = _mm_add_epi32(quotients, v(lanes.zero_point));
            let words = _mm_packs_epi32(out, out);
            _mm_cvtsi128_si32(_mm_packs_epi16(words, words))
        };
        let [a, c, b, d] = codes.to_le_bytes();
        [a, b, c, d].map(|b| b as i8)
    }
}

/// The definitions the vector bodies are pinned against.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
mod scalar {
    use super::Requant4;

    #[inline(always)]
    pub(crate) fn pair(a: i32, b: i32) -> [i32; 4] {
        [(a & 0xFFFF) | (b << 16); 4]
    }

    #[inline(always)]
    pub(crate) fn madd(acc: [i32; 4], w: &[i16; 8], x: [i32; 4]) -> [i32; 4] {
        core::array::from_fn(|l| {
            let (lo, hi) = (i32::from(x[l] as i16), x[l] >> 16);
            let sum = (i32::from(w[2 * l]) * lo).wrapping_add(i32::from(w[2 * l + 1]) * hi);
            acc[l].wrapping_add(sum)
        })
    }

    #[inline(always)]
    pub(crate) fn requant4(lanes: &Requant4, offset: [i32; 4]) -> [i8; 4] {
        offset.map(|u| lanes.rq.apply(u.wrapping_sub(Requant4::OFFSET)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded splitmix64 stream: the tests need many values, not a
    /// distribution.
    fn stream(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn requant4_matches_apply() {
        let mut next = stream(42);
        // Every magnitude, not just the uniform draw's ±2³¹ scale.
        let random = (0..100_000).map(|_| {
            let v = next();
            (v as i32) >> ((v >> 32) % 32)
        });
        let accs: Vec<i32> =
            [i32::MIN, -1, 0, 1, i32::MAX, 1 << 30, -(1 << 30)].into_iter().chain(random).collect();
        for multiplier in [0, 12_345, (1 << 30) - 1, 1 << 30, 0x5A82_799A, i32::MAX] {
            // Where `acc·M + 2³⁰` changes sign, which the vector form
            // reads off the accumulator.
            let edge = -((1 << 30) / multiplier.max(1));
            let edges = [edge - 2, edge - 1, edge, edge + 1];
            for shift in [0, 1, 7, 30] {
                for zero_point in [-128, 0, 128] {
                    let rq = Requantizer { multiplier, shift, zero_point };
                    let lanes = Requant4::new(rq).expect("inside the vector form's range");
                    for quad in accs.chunks_exact(4).chain([&edges[..]]) {
                        let quad: [i32; 4] = quad.try_into().expect("chunks of four");
                        let want = quad.map(|a| rq.apply(a));
                        let offset = quad.map(|a| a.wrapping_add(Requant4::OFFSET));
                        assert_eq!(lanes.apply(offset), want, "{rq:?} {quad:?}");
                        assert_eq!(scalar::requant4(&lanes, offset), want, "{rq:?} {quad:?}");
                    }
                }
            }
        }
        // Outside the range the plan keeps the scalar form.
        for (multiplier, shift) in [(-1, 0), (1 << 30, -1), (1 << 30, 31)] {
            assert!(Requant4::new(Requantizer { multiplier, shift, zero_point: 0 }).is_none());
        }
    }

    #[test]
    fn madd_matches_its_twin() {
        let mut next = stream(7);
        for _ in 0..100_000 {
            let w: [i16; 8] = core::array::from_fn(|_| next() as i16);
            let acc: [i32; 4] = core::array::from_fn(|_| next() as i32);
            let x: [i32; 4] = core::array::from_fn(|_| next() as i32);
            assert_eq!(madd(acc, &w, x), scalar::madd(acc, &w, x), "{acc:?} {w:?} {x:?}");
        }
        // The one pair sum that wraps: (−2¹⁵)² + (−2¹⁵)² = 2³¹.
        let (min, x) = ([i16::MIN; 8], [i32::MIN | 0x8000; 4]);
        assert_eq!(madd([0; 4], &min, x), [i32::MIN; 4]);
        assert_eq!(scalar::madd([0; 4], &min, x), [i32::MIN; 4]);
    }

    #[test]
    fn pair_matches_its_twin() {
        let mut next = stream(9);
        for _ in 0..100_000 {
            let (a, b) = (next() as i32, next() as i32);
            assert_eq!(pair(a, b), scalar::pair(a, b), "{a:#x} {b:#x}");
        }
    }
}
