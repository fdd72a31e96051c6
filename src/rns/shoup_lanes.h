/**
 * @file
 * One 8-lane, 52-bit lazy Shoup product on AVX-512 IFMA: the lane
 * primitive of the radix-2 NTT butterflies (poly/ntt.cpp) and of
 * BConv's scale and accumulate steps (rns/base_convert.cpp).
 *
 * For y < 2^52, w < q < 2^50 and w′ = ⌊w·2^52/q⌋, per lane:
 *
 *     hi = madd52hi(y, w′) = ⌊y·w′ / 2^52⌋,
 *     r  = (madd52lo(y, w) − madd52lo(hi, q)) mod 2^52.
 *
 * This is Harvey's lazy product with β = 2^52: y·w − hi·q lies in
 * [0, 2q), below 2^51, so the difference of the two products' low 52
 * bits is that integer exactly, r ≡ y·w (mod q).
 *
 * w′ is the scalar Shoup constant w_shoup = ⌊w·2^64/q⌋ shifted right
 * by 12, exactly, since ⌊⌊w·2^64/q⌋ / 2^12⌋ = ⌊w·2^52/q⌋: the callers
 * read the tables the scalar loops read and store no second copy.
 *
 * Callers take the lanes only when ifma_lanes() holds and every
 * modulus a lane touches fits(); then every lane value they keep stays
 * below 4q < 2^52. The lanes return the canonical residues the scalar
 * loops return, so outputs are bit-identical at every ISA level.
 * Vector arithmetic is written with GCC/clang vector operators, as in
 * tensor/fp64_lanes.inc; intrinsics appear only for the 52-bit
 * multiplies, the NTT's permutes and the masked loads and stores.
 */
#pragma once

#include <cstring>

#include "common/types.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define NEO_SHOUP_LANES 1
#else
#define NEO_SHOUP_LANES 0
#endif

namespace neo::lanes {

/// True when modulus @p q can run in the lanes: q < 2^50, so 4q < 2^52.
constexpr bool
fits(u64 q)
{
    return q < (u64{1} << 50);
}

#if NEO_SHOUP_LANES

typedef u64 u64x8 __attribute__((vector_size(64)));

/// The target of every lane function and of the kernels that call them.
#define NEO_IFMA_TARGET gnu::target("avx512f,avx512ifma")
#define NEO_IFMA [[NEO_IFMA_TARGET, gnu::always_inline]] inline

NEO_IFMA u64x8
load(const u64 *p)
{
    u64x8 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

NEO_IFMA void
store(u64 *p, u64x8 v)
{
    std::memcpy(p, &v, sizeof v);
}

/// The first @p count ≤ 8 words at @p p, zero above.
NEO_IFMA u64x8
load_first(const u64 *p, size_t count)
{
    const auto k = static_cast<__mmask8>((1u << count) - 1);
    return (u64x8)_mm512_maskz_loadu_epi64(k, p);
}

/// The first @p count ≤ 8 lanes of @p v to @p p.
NEO_IFMA void
store_first(u64 *p, u64x8 v, size_t count)
{
    const auto k = static_cast<__mmask8>((1u << count) - 1);
    _mm512_mask_storeu_epi64(p, k, (__m512i)v);
}

/// @p w in every lane.
NEO_IFMA u64x8
splat(u64 w)
{
    return u64x8{} + w;
}

/// x − m in the lanes where x ≥ m, x elsewhere.
NEO_IFMA u64x8
reduce_once(u64x8 x, u64x8 m)
{
    return x >= m ? x - m : x;
}

/// y·w mod q in [0, 2q) per lane, for y < 2^52, w < q < 2^50 and
/// w_shoup = ⌊w·2^64/q⌋ (the scalar Shoup constant).
NEO_IFMA u64x8
mul_shoup_lazy(u64x8 y, u64x8 w, u64x8 w_shoup, u64x8 q)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i w52 = (__m512i)(w_shoup >> 12);
    const __m512i hi = _mm512_madd52hi_epu64(zero, (__m512i)y, w52);
    const u64x8 yw = (u64x8)_mm512_madd52lo_epu64(zero, (__m512i)y,
                                                  (__m512i)w);
    const u64x8 hq = (u64x8)_mm512_madd52lo_epu64(zero, hi, (__m512i)q);
    return (yw - hq) & ((u64{1} << 52) - 1);
}

#endif

} // namespace neo::lanes
