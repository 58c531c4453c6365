//! The two vector steps of the dense-layer kernel ([`crate::DenseOp`]),
//! written against SSE2, the x86-64 baseline.
//!
//! - [`madd`]: one `pmaddwd` of a panel's `i16` column pair against an
//!   input pair broadcast to every lane — two multiply-accumulates per
//!   row, four rows at a time. SSE2 has no `i32 × i32` lane multiply
//!   (`pmulld` is SSE4.1): an `i32` lane product would cost two
//!   `pmuludq` and four shuffles.
//! - [`requant4`]: `Requantizer::apply` over four accumulators in one
//!   register, saturated to int8 by the `packs` pair.
//!
//! Every other target gets the plain-Rust twins in `scalar`, which are
//! also compiled on x86-64 under `cfg(test)` so the tests below pin each
//! vector body against its twin: no build carries an untested form.
//!
//! This file is the only `unsafe` in the workspace's library code: two
//! blocks, each calling SSE2 intrinsics on values reinterpreted as
//! 16-byte vectors.

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) use sse2::{madd, requant4};

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub(crate) use scalar::{madd, requant4};

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_add_epi64, _mm_and_si128, _mm_cmpgt_epi32, _mm_cvtsi128_si32,
        _mm_cvtsi32_si128, _mm_madd_epi16, _mm_mul_epu32, _mm_or_si128, _mm_packs_epi16,
        _mm_packs_epi32, _mm_set1_epi32, _mm_set1_epi64x, _mm_slli_epi64, _mm_sra_epi32,
        _mm_srai_epi32, _mm_srli_epi64, _mm_sub_epi32,
    };
    use core::mem::transmute;

    use taurus_fixed::quant::Requantizer;

    /// `acc[l] + w[2l]·lo + w[2l+1]·hi` in each of the four lanes, where
    /// `lo` and `hi` are the signed 16-bit halves of `pair`. Wrapping,
    /// like all of the plan's arithmetic; each product is exact.
    #[inline(always)]
    pub(crate) fn madd(acc: [i32; 4], w: &[i16; 8], pair: i32) -> [i32; 4] {
        // SAFETY: the intrinsics need SSE2, which this module's `cfg`
        // guarantees the build has. `[i32; 4]`, `[i16; 8]` and `__m128i`
        // are 16 bytes of plain integers; every bit pattern is valid in
        // each of them.
        unsafe {
            let acc = transmute::<[i32; 4], __m128i>(acc);
            let w = transmute::<[i16; 8], __m128i>(*w);
            let sum = _mm_add_epi32(acc, _mm_madd_epi16(w, _mm_set1_epi32(pair)));
            transmute::<__m128i, [i32; 4]>(sum)
        }
    }

    /// `acc.map(|a| rq.apply(a))`, four lanes at once. Exact for
    /// `0 ≤ rq.shift ≤ 30` and `rq.multiplier ≥ 0` (every requantizer
    /// [`Requantizer::from_real_multiplier`] builds below a factor of
    /// one); the caller keeps the scalar form for any other.
    ///
    /// `pmuludq` multiplies unsigned, so a negative lane's product comes
    /// out `2³²·M` too large; after the `>> 31` that is `2M`, subtracted
    /// back. The rounding shift and the zero point are `apply_i32`'s,
    /// lane-wise, and `packs_epi32` + `packs_epi16` saturate to int8:
    /// the clamp.
    #[inline(always)]
    pub(crate) fn requant4(acc: [i32; 4], rq: Requantizer) -> [i8; 4] {
        debug_assert!((0..=30).contains(&rq.shift) && rq.multiplier >= 0, "{rq:?}");
        let mask = ((1u32 << rq.shift) - 1) as i32;
        // SAFETY: the intrinsics need SSE2, which this module's `cfg`
        // guarantees the build has. `[i32; 4]` and `__m128i` are 16 bytes
        // of plain integers; every bit pattern is valid in both.
        let codes = unsafe {
            let a = transmute::<[i32; 4], __m128i>(acc);
            let m = _mm_set1_epi32(rq.multiplier);
            let nudge = _mm_set1_epi64x(1 << 30);
            // `(acc·M + 2³⁰) >> 31` in 64-bit lanes: lanes 0 and 2, then 1, 3.
            let even = _mm_srli_epi64(_mm_add_epi64(_mm_mul_epu32(a, m), nudge), 31);
            let odd =
                _mm_srli_epi64(_mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(a, 32), m), nudge), 31);
            let unsigned = _mm_or_si128(
                _mm_and_si128(even, _mm_set1_epi64x(0xFFFF_FFFF)),
                _mm_slli_epi64(odd, 32),
            );
            let negative = _mm_srai_epi32(a, 31);
            let fixup = _mm_and_si128(negative, _mm_set1_epi32(rq.multiplier.wrapping_mul(2)));
            let high = _mm_sub_epi32(unsigned, fixup);
            // Rounding arithmetic shift: `(high >> s) + [rem > threshold]`.
            let rem = _mm_and_si128(high, _mm_set1_epi32(mask));
            let threshold = _mm_sub_epi32(_mm_set1_epi32(mask >> 1), _mm_srai_epi32(high, 31));
            let shifted = _mm_sub_epi32(
                _mm_sra_epi32(high, _mm_cvtsi32_si128(rq.shift)),
                _mm_cmpgt_epi32(rem, threshold),
            );
            let out = _mm_add_epi32(shifted, _mm_set1_epi32(rq.zero_point));
            let words = _mm_packs_epi32(out, out);
            _mm_cvtsi128_si32(_mm_packs_epi16(words, words))
        };
        codes.to_le_bytes().map(|b| b as i8)
    }
}

/// The definitions the vector bodies are pinned against.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
mod scalar {
    use taurus_fixed::quant::Requantizer;

    #[inline(always)]
    pub(crate) fn madd(acc: [i32; 4], w: &[i16; 8], pair: i32) -> [i32; 4] {
        let (lo, hi) = (i32::from(pair as i16), pair >> 16);
        core::array::from_fn(|l| {
            let sum = (i32::from(w[2 * l]) * lo).wrapping_add(i32::from(w[2 * l + 1]) * hi);
            acc[l].wrapping_add(sum)
        })
    }

    #[inline(always)]
    pub(crate) fn requant4(acc: [i32; 4], rq: Requantizer) -> [i8; 4] {
        acc.map(|a| rq.apply(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_fixed::quant::Requantizer;

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
        for multiplier in [0, 1 << 30, 0x5A82_799A, i32::MAX] {
            for shift in [0, 1, 7, 30] {
                for zero_point in [-128, 0, 128] {
                    let rq = Requantizer { multiplier, shift, zero_point };
                    for quad in accs.chunks_exact(4) {
                        let quad: [i32; 4] = quad.try_into().expect("chunks of four");
                        let want = quad.map(|a| rq.apply(a));
                        assert_eq!(requant4(quad, rq), want, "{rq:?} {quad:?}");
                        assert_eq!(scalar::requant4(quad, rq), want, "{rq:?} {quad:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn madd_matches_its_twin() {
        let mut next = stream(7);
        for _ in 0..100_000 {
            let w: [i16; 8] = core::array::from_fn(|_| next() as i16);
            let acc: [i32; 4] = core::array::from_fn(|_| next() as i32);
            let pair = next() as i32;
            assert_eq!(madd(acc, &w, pair), scalar::madd(acc, &w, pair), "{acc:?} {w:?} {pair:#x}");
        }
        // The one pair sum that wraps: (−2¹⁵)² + (−2¹⁵)² = 2³¹.
        let min = [i16::MIN; 8];
        assert_eq!(madd([0; 4], &min, i32::MIN | 0x8000), [i32::MIN; 4]);
        assert_eq!(scalar::madd([0; 4], &min, i32::MIN | 0x8000), [i32::MIN; 4]);
    }
}
