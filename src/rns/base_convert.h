/**
 * @file
 * BConv — RNS base conversion, the kernel the paper's §4.2.1
 * optimizes.
 *
 * Two flavours are provided:
 *
 *  - convert_approx: the standard "fast base conversion" used by ModUp
 *    and ModDown in RNS-CKKS. It computes
 *        y_j = Σ_i [x · (B/b_i)^{-1}]_{b_i} · [B/b_i]_{t_j}  (mod t_j)
 *    which represents x + u·B for a small unknown 0 ≤ u < |B|. The
 *    B-multiple is absorbed into ciphertext noise (Halevi–Polyakov–
 *    Shoup treatment).
 *
 *  - convert_exact: adds the floating-point overflow estimate
 *    r = round(Σ_i y_i / b_i) and subtracts r·B, recovering the
 *    *centered* representative exactly whenever |x_centered| < B/2 ·
 *    (1 - ε). KLSS needs this exactness for Mod Up into R_T and for
 *    Recover Limbs (§2.2): the inner product over R_T is an exact
 *    integer, so converting it back to the PQ primes must be exact
 *    CRT reconstruction, not fast conversion.
 *
 * Both are built from four steps the converter exposes once — scale(),
 * overflow(), accumulate() and correct(). The matrix form of the
 * paper's Algorithm 2 (neo/kernels.h) and the fused ModDown
 * (ckks/keyswitch.cpp) call the same steps, so they round like the
 * conversions by construction. Each step leaves its loop to the
 * caller, which decides whether to fan it out.
 */
#pragma once

#include <cmath>
#include <vector>

#include "rns/basis.h"

namespace neo {

/** Precomputed converter from one RNS basis to another. */
class BaseConverter
{
  public:
    /// Precompute factors for conversions from @p from to @p to.
    BaseConverter(const RnsBasis &from, const RnsBasis &to);

    const RnsBasis &from() const { return from_; }
    const RnsBasis &to() const { return to_; }

    /**
     * Fast (approximate) base conversion of n coefficients.
     *
     * @param in   from.size() limbs, limb i at in + i*n, values < b_i.
     * @param n    coefficients per limb.
     * @param out  to.size() limbs, limb j at out + j*n.
     */
    void convert_approx(const u64 *in, size_t n, u64 *out) const;

    /**
     * Exact centered base conversion. Requires the centered value of
     * the input to satisfy |x| < B/2 (B = product of source primes);
     * output limbs then hold the same centered value mod each target
     * prime.
     */
    void convert_exact(const u64 *in, size_t n, u64 *out) const;

    /// Line 1 of Algorithms 1/2 for one word of source limb @p i:
    /// y = [x · (B/b_i)^{-1}]_{b_i}.
    u64
    scale(size_t i, u64 x) const
    {
        return mul_shoup(x, from_.punc_inv(i), punc_inv_shoup_[i],
                         from_[i].value());
    }

    /// scale() over @p n coefficients of every source limb, limb i at
    /// in + i*n and scaled + i*n.
    void scale_inputs(const u64 *in, size_t n, u64 *scaled) const;

    /**
     * Shenoy–Kumaresan overflow count of one coefficient,
     * r = round(Σ_i y_i / b_i), for scaled words y_i at y[i·stride].
     * Float-assisted by design (§4.5.2): long-double accumulation of
     * double reciprocals.
     */
    u64
    overflow(const u64 *y, size_t stride) const
    {
        long double v = 0.0L;
        for (size_t i = 0; i < inv_from_.size(); ++i)
            // neo-lint: allow(float-on-limb) — the overflow estimate.
            v += static_cast<long double>(y[i * stride]) * inv_from_[i];
        return static_cast<u64>(std::llroundl(v));
    }

    /// Output limb @p j of the fast sum over n coefficients:
    /// dst[l] = Σ_i scaled_i[l] · [B/b_i]_{t_j} mod t_j, one Shoup
    /// multiply per term (exact for any u64 input, so the scaled words
    /// need no reduction mod t_j first).
    void accumulate(const u64 *scaled, size_t n, size_t j, u64 *dst) const;

    /// The exact correction of one word of output limb @p j:
    /// v − r·[B]_{t_j} mod t_j for overflow count @p r.
    u64
    correct(size_t j, u64 v, u64 r) const
    {
        const u64 t = to_[j].value();
        return sub_mod(v, mul_shoup(r, b_mod_to_[j], b_mod_to_shoup_[j], t),
                       t);
    }

    /// [B/b_i] mod t_j — the matrix the paper's Algorithm 2 multiplies by.
    u64 factor(size_t i, size_t j) const
    {
        return punc_mod_to_[i * to_.size() + j];
    }

    /// The whole factor table, |from| × |to| row-major: factor(i, j)
    /// at [i·|to| + j]. Algorithm 2's GEMM B operand.
    const std::vector<u64> &factor_matrix() const { return punc_mod_to_; }

    /// [B] mod t_j.
    u64 product_mod_to(size_t j) const { return b_mod_to_[j]; }

  private:
    RnsBasis from_;
    RnsBasis to_;
    std::vector<u64> punc_inv_shoup_;    // of from_.punc_inv(i)
    std::vector<u64> punc_mod_to_;       // [i*|to| + j] = (B/b_i) mod t_j
    std::vector<u64> punc_mod_to_shoup_; // Shoup companions
    std::vector<u64> b_mod_to_;          // B mod t_j
    std::vector<u64> b_mod_to_shoup_;    // Shoup companions
    std::vector<double> inv_from_;       // 1.0 / b_i
    /// Every source and target modulus fits the IFMA lanes
    /// (rns/shoup_lanes.h), which scale_inputs() and accumulate() take
    /// when ifma_lanes() holds.
    bool lanes_ = false;
};

} // namespace neo
