//! The vector steps of the dense-layer kernel ([`crate::DenseOp`]).
//!
//! Per packet, against SSE2, the x86-64 baseline:
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
//! Across packets, against AVX2, which a plan checks for once when it is
//! built ([`Avx2::detect`]): a whole dense layer for a group of eight
//! packets, one packet per `i32` lane of one register ([`Avx2::dense`]).
//! Without AVX2 no plan runs across packets, and the per-packet steps
//! above run every packet.
//!
//! This file is the only `unsafe` in the workspace's library code: one
//! block per vector step, each calling intrinsics on values
//! reinterpreted as vectors, and the one call into the AVX2 body.

use taurus_fixed::quant::Requantizer;

use crate::{DenseOp, PACKETS};

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub(crate) use sse2::{madd, pair};

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
pub(crate) use scalar::{madd, pair};

/// Proof that this CPU runs AVX2, taken once per plan: the only way
/// into the across-packets body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// `Some` on a CPU with AVX2.
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2").then_some(Self(()));
        #[cfg(not(target_arch = "x86_64"))]
        return None;
    }

    /// `op` over a group of [`PACKETS`] packets, one per lane: every row
    /// reduced from the input lanes `x` (an odd width's pad lane
    /// included) straight into its lane of `rows`, through the op's
    /// `Tail::Panels` requantizer and LUT when it has them; a
    /// `Tail::Rows` row is stored as its accumulator. `pairs` is
    /// scratch for the input pairs, at least twice `x.len() / 2` long.
    #[inline]
    pub(crate) fn dense(
        self,
        op: &DenseOp,
        x: &[[i32; PACKETS]],
        pairs: &mut [[i32; PACKETS]],
        rows: &mut [[i32; PACKETS]],
    ) {
        // SAFETY: `self` exists only where `detect` found AVX2, the one
        // feature the body is compiled for.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            avx2::dense(op, x, pairs, rows)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (op, x, pairs, rows);
            unreachable!("`Avx2::detect` finds no AVX2 off x86-64")
        }
    }
}

/// A byte-indexed LUT (entry `code as u8`) as the across-packets
/// gather reads it: `i32` entries in code order, entry `code + 128`.
pub(crate) fn widen(table: &[i8; 256]) -> Box<[i32; 256]> {
    Box::new(core::array::from_fn(|i| i32::from(table[i ^ 0x80])))
}

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

/// The across-packets body: a group's eight packets are one `__m256i`,
/// packet `p` in lane `p`, and a row's weight pair is the broadcast
/// operand. Each step is a `target_feature` function, safe to call from
/// the others, so they inline into [`dense`].
///
/// # Safety
///
/// Calling into this module from code not compiled for AVX2 needs a CPU
/// that has it: [`Avx2::dense`], which only an [`Avx2::detect`] token
/// reaches, is the one such call outside the tests.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_si256, _mm256_blend_epi16,
        _mm256_blend_epi32, _mm256_broadcastsi128_si256, _mm256_cmpeq_epi32, _mm256_cmpgt_epi32,
        _mm256_i32gather_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_max_epi32,
        _mm256_min_epi32, _mm256_movemask_epi8, _mm256_mul_epu32, _mm256_mullo_epi32,
        _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_slli_epi32,
        _mm256_slli_epi64, _mm256_srai_epi32, _mm256_srl_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_sub_epi32, _mm256_xor_si256,
    };
    use core::mem::transmute;

    use super::Requant4;
    use crate::{DenseOp, Tail, PACKETS};

    /// One slab lane as a register.
    #[target_feature(enable = "avx2")]
    fn load(lane: &[i32; PACKETS]) -> __m256i {
        // SAFETY: `loadu` reads the lane's 32 bytes and needs no
        // alignment.
        unsafe { _mm256_loadu_si256(lane.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    fn store(lane: &mut [i32; PACKETS], v: __m256i) {
        // SAFETY: `storeu` writes the lane's 32 bytes and needs no
        // alignment.
        unsafe { _mm256_storeu_si256(lane.as_mut_ptr().cast(), v) }
    }

    /// A four-lane constant in both halves of a register.
    #[target_feature(enable = "avx2")]
    fn wide(lanes: [i32; 4]) -> __m256i {
        // SAFETY: `[i32; 4]` and `__m128i` are 16 bytes of plain
        // integers; every bit pattern is valid in both.
        _mm256_broadcastsi128_si256(unsafe { transmute::<[i32; 4], __m128i>(lanes) })
    }

    /// `a | b << 16` in every lane: the column pair `pmaddwd` reads.
    #[target_feature(enable = "avx2")]
    fn pair(a: __m256i, b: __m256i) -> __m256i {
        _mm256_blend_epi16::<0b1010_1010>(a, _mm256_slli_epi32::<16>(b))
    }

    /// Each lane's low half, sign-extended.
    #[target_feature(enable = "avx2")]
    fn low(v: __m256i) -> __m256i {
        _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(v))
    }

    /// [`Requant4::apply`]'s arithmetic in eight lanes from the same
    /// constants, without the clamp: `Requantizer::apply_i32` of each
    /// accumulator, read offset by [`Requant4::OFFSET`]. `vpmuludq`
    /// takes the even lanes and the odd lanes shifted down, and the odd
    /// quotients shift back up into their lanes: no shuffle.
    #[target_feature(enable = "avx2")]
    pub(super) fn requant8(lanes: &Requant4, offset: __m256i) -> __m256i {
        let (m, ties) = (wide(lanes.multiplier), wide(lanes.ties));
        let nudge = _mm256_set1_epi64x(lanes.nudge[0]);
        // SAFETY: `[i64; 2]` and `__m128i` are 16 bytes of plain
        // integers; every bit pattern is valid in both.
        let count = unsafe { transmute::<[i64; 2], __m128i>(lanes.shift) };
        // `[P ≥ 0]·D`, even lanes in `even`, odd lanes in `odd`.
        let acc = _mm256_xor_si256(offset, _mm256_set1_epi32(Requant4::OFFSET));
        let nonneg = _mm256_cmpgt_epi32(acc, wide(lanes.below));
        let even = _mm256_add_epi64(nudge, _mm256_and_si256(nonneg, ties));
        let odd = _mm256_add_epi64(nudge, _mm256_and_si256(_mm256_srli_epi64::<32>(nonneg), ties));
        let even = _mm256_srl_epi64(_mm256_add_epi64(_mm256_mul_epu32(offset, m), even), count);
        let odd = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64::<32>(offset), m), odd);
        let odd = _mm256_srl_epi64(odd, count);
        let quotients = _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd));
        _mm256_add_epi32(quotients, wide(lanes.zero_point))
    }

    /// A 256-entry LUT access in every lane, `table` in code order
    /// (entry `code + 128`): out-of-range values clamp to the table's
    /// ends, then one `vpgatherdd` reads the eight entries.
    #[target_feature(enable = "avx2")]
    pub(super) fn lookup(table: &[i32; 256], v: __m256i) -> __m256i {
        let codes =
            _mm256_max_epi32(_mm256_min_epi32(v, _mm256_set1_epi32(127)), _mm256_set1_epi32(-128));
        // SAFETY: every code is in −128..=127, so each lane reads entry
        // `code + 128` of the table, inside it.
        unsafe { _mm256_i32gather_epi32::<4>(table.as_ptr().add(128), codes) }
    }

    /// The layer: `Avx2::dense`. Picks the reduction as the per-packet
    /// `DenseOp::reduce` does, over the whole group: split when any of
    /// an unproven input's live lanes is outside `i16`.
    #[target_feature(enable = "avx2")]
    pub(super) fn dense(
        op: &DenseOp,
        x: &[[i32; PACKETS]],
        pairs: &mut [[i32; PACKETS]],
        rows: &mut [[i32; PACKETS]],
    ) {
        let live = &x[..op.cols];
        let mut base = _mm256_setzero_si256();
        if op.sqdist {
            for v in live.iter().map(|l| load(l)) {
                base = _mm256_add_epi32(base, _mm256_mullo_epi32(v, v));
            }
        }
        let outside_i16 = |l| _mm256_movemask_epi8(_mm256_cmpeq_epi32(load(l), low(load(l)))) != -1;
        let split = !op.int8_input && live.iter().any(outside_i16);
        match (&op.tail, split) {
            (Tail::Panels(rq, table, _), false) => {
                let tail = |acc| lookup(table, requant8(rq, acc));
                reduce_rows::<false>(op, x, base, pairs, rows, tail);
            }
            (Tail::Panels(rq, table, _), true) => {
                let tail = |acc| lookup(table, requant8(rq, acc));
                reduce_rows::<true>(op, x, base, pairs, rows, tail);
            }
            (Tail::Rows(..), false) => reduce_rows::<false>(op, x, base, pairs, rows, |acc| acc),
            (Tail::Rows(..), true) => reduce_rows::<true>(op, x, base, pairs, rows, |acc| acc),
        }
    }

    /// The across-packets reduction over `op`'s bank: `rows[r] =
    /// tail(init[r] + base + Σ row_pairs·x)`. The group's input pairs are
    /// built once into `pairs` (with `SPLIT`, their high halves after
    /// them: each lane is `lo + hi·2¹⁶`, `lo` its sign-extended low half,
    /// and the halves reduce side by side to meet as `acc + (acc_hi <<
    /// 16)`, exact mod 2³²); then each row runs over the pairs against
    /// its broadcast weight pair words.
    #[target_feature(enable = "avx2")]
    fn reduce_rows<const SPLIT: bool>(
        op: &DenseOp,
        x: &[[i32; PACKETS]],
        base: __m256i,
        pairs: &mut [[i32; PACKETS]],
        rows: &mut [[i32; PACKETS]],
        tail: impl Fn(__m256i) -> __m256i,
    ) {
        let (xs, _) = x.as_chunks::<2>();
        let (lo, hi) = pairs[..2 * xs.len()].split_at_mut(xs.len());
        for ((lo, hi), [a, b]) in lo.iter_mut().zip(hi.iter_mut()).zip(xs) {
            let (a, b) = (load(a), load(b));
            store(lo, pair(a, b));
            if SPLIT {
                let high = |v| _mm256_srai_epi32::<16>(_mm256_sub_epi32(v, low(v)));
                store(hi, pair(high(a), high(b)));
            }
        }
        let (lo, hi) = (&*lo, &*hi);
        let row_pairs = op.row_pairs.chunks_exact(xs.len());
        for ((out, w), &start) in rows.iter_mut().zip(row_pairs).zip(&op.init) {
            let mut acc = _mm256_add_epi32(base, _mm256_set1_epi32(start));
            for (&w, x) in w.iter().zip(lo) {
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_set1_epi32(w), load(x)));
            }
            if SPLIT {
                let mut acc_hi = _mm256_setzero_si256();
                for (&w, x) in w.iter().zip(hi) {
                    acc_hi =
                        _mm256_add_epi32(acc_hi, _mm256_madd_epi16(_mm256_set1_epi32(w), load(x)));
                }
                acc = _mm256_add_epi32(acc, _mm256_slli_epi32::<16>(acc_hi));
            }
            store(out, tail(acc));
        }
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

    /// The AVX2 steps on `[i32; 8]` lanes, where the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    mod across {
        use core::arch::x86_64::__m256i;
        use core::mem::transmute;

        use super::super::{avx2, widen, Avx2, Requant4};
        use super::stream;
        use taurus_fixed::quant::Requantizer;

        /// `f` on eight lanes, or `None` without AVX2: each `f` below
        /// calls one AVX2 step, which needs nothing but the feature.
        fn on_lanes(v: [i32; 8], f: impl FnOnce(__m256i) -> __m256i) -> Option<[i32; 8]> {
            Avx2::detect()?;
            // SAFETY: `[i32; 8]` and `__m256i` are 32 bytes of plain
            // integers; every bit pattern is valid in both.
            Some(unsafe { transmute::<__m256i, [i32; 8]>(f(transmute::<[i32; 8], __m256i>(v))) })
        }

        #[test]
        fn requant8_matches_apply() {
            let mut next = stream(8);
            // Every magnitude, then the `i32` bounds and their neighbours.
            let random = (0..4_000).map(|_| {
                let v = next();
                (v as i32) >> ((v >> 32) % 32)
            });
            let bounds =
                [i32::MIN, i32::MIN + 1, i32::MIN + 2, -1, 0, 1, i32::MAX - 2, i32::MAX - 1];
            let accs: Vec<i32> = bounds.into_iter().chain([i32::MAX]).chain(random).collect();
            let mut multipliers =
                vec![0, 1 << 30, (1 << 30) + 1, 0x5A82_799A, i32::MAX - 1, i32::MAX];
            multipliers.extend((0..4).map(|_| (1 << 30) | (next() as i32 & ((1 << 30) - 1))));
            let mut checked = 0;
            for &multiplier in &multipliers {
                // Where `acc·M + 2³⁰` changes sign, read off the
                // accumulator.
                let edge = -((1 << 30) / multiplier.max(1));
                let edges = [edge - 3, edge - 2, edge - 1, edge, edge + 1, edge + 2, edge + 3, 0];
                for shift in 0..=30 {
                    for zero_point in [i32::MIN, -128, 0, 127, i32::MAX] {
                        let rq = Requantizer { multiplier, shift, zero_point };
                        let lanes = Requant4::new(rq).expect("inside the vector form's range");
                        for eight in accs.chunks(8).chain([&edges[..]]) {
                            let mut acc = [0; 8];
                            acc[..eight.len()].copy_from_slice(eight);
                            let offset = acc.map(|a| a.wrapping_add(Requant4::OFFSET));
                            // SAFETY: `on_lanes` calls it where the CPU has AVX2.
                            let step = |v| unsafe { avx2::requant8(&lanes, v) };
                            let Some(got) = on_lanes(offset, step) else { return };
                            let want = acc.map(|a| rq.apply_i32(a));
                            assert_eq!(got, want, "{rq:?} {acc:?}");
                            let clamped = got.map(|q| q.clamp(-128, 127) as i8);
                            assert_eq!(clamped, acc.map(|a| rq.apply(a)), "{rq:?} {acc:?}");
                            checked += 1;
                        }
                    }
                }
            }
            assert_eq!(checked, multipliers.len() * 31 * 5 * (accs.len().div_ceil(8) + 1));
        }

        #[test]
        fn the_gathered_lut_matches_the_byte_table() {
            let mut next = stream(11);
            let bytes: [i8; 256] = core::array::from_fn(|_| next() as i8);
            let wide = widen(&bytes);
            // Every code, then values the lookup clamps to the ends.
            let codes: Vec<i32> = (-128..128)
                .chain([i32::MIN, i32::MIN + 1, -129, 128, 129, 1000, i32::MAX - 1, i32::MAX])
                .collect();
            for eight in codes.chunks_exact(8) {
                let eight: [i32; 8] = eight.try_into().expect("chunks of eight");
                // SAFETY: `on_lanes` calls it where the CPU has AVX2.
                let step = |v| unsafe { avx2::lookup(&wide, v) };
                let Some(got) = on_lanes(eight, step) else { return };
                assert_eq!(got, eight.map(|v| crate::lut_lookup(&bytes, v)), "{eight:?}");
            }
        }
    }
}
