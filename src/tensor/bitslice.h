/**
 * @file
 * Bit-slicing of wide integer operands into planes that fit the
 * Tensor Core datapaths (§3.4 of the paper).
 *
 * FP64: an IEEE double carries 53 mantissa bits, so a K-term product
 * accumulation is exact when  bits(A-plane) + bits(B-plane) +
 * ceil(log2 K) ≤ 53. For 36-bit words the paper keeps A whole and
 * slices B into three 12-bit planes (36 + 12 + 4 = 52); for 48-bit
 * words it slices both sides into two 24-bit planes (2·2 = 4
 * products). choose_fp64_split generalises this: it minimises the
 * number of plane-pair products subject to the exactness constraint.
 *
 * INT8: both operands are sliced into 8-bit planes (5 planes for
 * 36-bit words → 25 products; 6 planes for 48-bit → 36 — the "Booth
 * complexity" of Fig 3).
 *
 * The planners are constexpr so the bit budgets can be *proved at
 * compile time*: src/tensor/gemm.cpp static_asserts every plan
 * reachable from the paper parameter sets, mirroring the neo-lint
 * bit-budget prover (src/lint/bit_budget.h). An out-of-budget plan is
 * a build failure, not a silently wrong answer.
 */
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/types.h"

namespace neo {

/** A plane decomposition plan for one GEMM operand pair. */
struct SplitPlan
{
    int a_planes;      ///< number of planes for operand A
    int a_plane_bits;  ///< bits per A plane
    int b_planes;      ///< number of planes for operand B
    int b_plane_bits;  ///< bits per B plane

    /// Total plane-pair products ("Booth complexity", Fig 3).
    constexpr int products() const { return a_planes * b_planes; }
};

namespace detail {

/// ceil(log2 k): accumulating k terms of w bits stays below 2^(w +
/// ceil(log2 k)) — the paper's 2^36 * 2^12 * 16 = 2^52 < 2^53 bound.
constexpr int
accum_bits(size_t k)
{
    return k <= 1 ? 0 : bit_size(k - 1);
}

} // namespace detail

/**
 * Minimal-product FP64 split for wa-bit × wb-bit operands accumulated
 * over K terms. Guarantees a_plane_bits + b_plane_bits +
 * ceil(log2 K) ≤ 53 so every per-plane GEMM is exact in doubles.
 *
 * @throws std::invalid_argument if no feasible split exists (a call
 * in a constant-evaluated context then fails to compile instead).
 */
constexpr SplitPlan
choose_fp64_split(int wa, int wb, size_t k)
{
    NEO_CHECK(wa > 0 && wb > 0 && wa <= 64 && wb <= 64, "bad widths");
    const int budget = 53 - detail::accum_bits(k);
    NEO_CHECK(budget >= 2, "K too large for exact FP64 accumulation");
    SplitPlan best{0, 0, 0, 0};
    int best_products = 1 << 30;
    for (int pa = 1; pa <= wa; ++pa) {
        const int abits = static_cast<int>(ceil_div(wa, pa));
        if (abits >= budget)
            continue;
        const int bbits_max = budget - abits;
        const int pb = static_cast<int>(ceil_div(wb, bbits_max));
        if (pa * pb < best_products) {
            best_products = pa * pb;
            best = SplitPlan{pa, abits, pb,
                             static_cast<int>(ceil_div(wb, pb))};
        }
    }
    NEO_CHECK(best_products < (1 << 30), "no feasible FP64 split");
    return best;
}

/// INT8 split: 8-bit planes on both sides (accumulation fits INT32).
constexpr SplitPlan
choose_int8_split(int wa, int wb, size_t k)
{
    NEO_CHECK(wa > 0 && wb > 0 && wa <= 64 && wb <= 64, "bad widths");
    // 8-bit unsigned planes; products are < 2^16, so INT32 accumulation
    // is exact for K up to 2^15.
    NEO_CHECK(16 + detail::accum_bits(k) <= 31,
              "K too large for INT32 accumulation");
    const int pa = static_cast<int>(ceil_div(wa, 8));
    const int pb = static_cast<int>(ceil_div(wb, 8));
    return SplitPlan{pa, 8, pb, 8};
}

/**
 * Compile-time exactness proof of one plan: worst-case accumulated
 * sum k · (2^a_bits − 1) · (2^b_bits − 1) stays below 2^budget_bits
 * (53 for the FP64 mantissa, 31 for the INT32 accumulator), and the
 * planes jointly cover wa/wb-bit operands. Evaluated in 128-bit
 * integer arithmetic — deliberately *not* the planner's bit-count
 * shortcut, so the proof is independent of the code it checks.
 */
constexpr bool
split_plan_exact(const SplitPlan &p, int wa, int wb, size_t k,
                 int budget_bits)
{
    if (p.a_plane_bits <= 0 || p.b_plane_bits <= 0 ||
        p.a_plane_bits >= 63 || p.b_plane_bits >= 63 || k == 0)
        return false;
    if (p.a_planes * p.a_plane_bits < wa ||
        p.b_planes * p.b_plane_bits < wb)
        return false;
    if (p.a_plane_bits + p.b_plane_bits + detail::accum_bits(k) > 120)
        return false; // keep the u128 product below overflow
    const u128 max_a = (static_cast<u128>(1) << p.a_plane_bits) - 1;
    const u128 max_b = (static_cast<u128>(1) << p.b_plane_bits) - 1;
    return static_cast<u128>(k) * max_a * max_b <
           (static_cast<u128>(1) << budget_bits);
}

/// Plan-and-prove in one step, FP64 budget (2^53 mantissa bound).
constexpr bool
fp64_plan_exact(int wa, int wb, size_t k)
{
    return split_plan_exact(choose_fp64_split(wa, wb, k), wa, wb, k, 53);
}

/// Plan-and-prove in one step, INT8 budget (INT32 accumulator).
constexpr bool
int8_plan_exact(int wa, int wb, size_t k)
{
    return split_plan_exact(choose_int8_split(wa, wb, k), wa, wb, k, 31);
}

/**
 * Decompose @p n values into @p planes planes of @p plane_bits bits,
 * least-significant plane first: in[i] = Σ_p out[p][i] << (p*bits).
 * Planes are stored contiguously: out must hold planes*n values. FP64
 * planes (Plane = double) take any width below 64 bits; INT8 planes,
 * held in i32, at most 16. Inline, because the per-site GEMM slices a
 * few words at a time.
 */
template <class Plane>
void
slice_planes(const u64 *in, size_t n, int planes, int plane_bits, Plane *out)
{
    NEO_ASSERT(plane_bits > 0 &&
                   plane_bits < (std::is_same_v<Plane, double> ? 64 : 17),
               "bad plane width");
    const u64 mask = (1ULL << plane_bits) - 1;
    for (int p = 0; p < planes; ++p) {
        const int shift = p * plane_bits;
        Plane *dst = out + static_cast<size_t>(p) * n;
        for (size_t i = 0; i < n; ++i) {
            const u64 chunk = shift >= 64 ? 0 : ((in[i] >> shift) & mask);
            dst[i] = static_cast<Plane>(chunk);
        }
    }
}

} // namespace neo
