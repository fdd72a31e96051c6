/**
 * @file
 * Matrix-form NTT: the four-step and radix-16 ("ten-step")
 * decompositions of §4.4 / Fig 9.
 *
 * The length-n cyclic DFT is factored as n = n1 · n2:
 *   1. view the input as an n1×n2 matrix A[r][c] = x[r + n1·c]
 *      (a transpose-gather),
 *   2. transform each row (length n2) — recursively, until the length
 *      reaches the radix, where it becomes a (rows × n2) · (n2 × n2)
 *      matrix multiplication with the twiddle matrix,
 *   3. multiply element (r, k2) by the twisting factor ω^{r·k2}
 *      ("Mul & Trans" in Fig 9),
 *   4. multiply by the n1×n1 twiddle matrix on the left.
 * The result lands in natural order.
 *
 * radix = n1 = √n  reproduces the classic four-step NTT; radix = 16
 * reproduces SHARP/Neo's radix-16 NTT, whose matrix products are all
 * 16×16 — the shape that maps onto TCU fragments (Fig 10). All matrix
 * products go through the ModMatMulFn the caller passes, so every
 * transform names the GEMM engine it runs on.
 *
 * Execution is batched per stage, as on the GPU: every recursion level
 * gathers the n1×n2 matrices of all its rows side by side into one
 * n1 × (rows·n2) operand, so a transform makes one ModMatMulFn call
 * per stage (complexity().matmul_stages in total, 4 at N = 2^14).
 */
#pragma once

#include <vector>

#include "poly/mat_mul.h"
#include "poly/ntt.h"

namespace neo {

/** Four-step / radix-r matrix NTT over one modulus. */
class MatrixNtt
{
  public:
    /**
     * @param tables  base NTT tables (provides ψ/ω powers).
     * @param radix   decomposition base; the transform bottoms out in
     *                radix×radix twiddle matmuls. Use radix == √n for
     *                the classic four-step, 16 for radix-16.
     */
    MatrixNtt(const NttTables &tables, size_t radix);

    size_t n() const { return tables_.n(); }
    size_t radix() const { return radix_; }

    /**
     * Forward negacyclic NTT; same convention as NttTables::forward.
     * With @p fuse set, the ψ pre-twist pass is folded into the
     * top-level transpose-gather (one streaming pass less — the GPU
     * mapping's "twiddle-scale into NTT prologue" fusion). The fused
     * and unfused paths apply the same mul_mod to every element in
     * the same per-element order, so outputs are bit-identical. Every
     * stage's matrix product runs through @p mm.
     */
    void forward(u64 *a, const ModMatMulFn &mm, bool fuse = false) const;

    /// Inverse negacyclic NTT. With @p fuse set, the n⁻¹·ψ⁻¹ scaling
    /// pass is folded into the top-level writeback (bit-identical).
    void inverse(u64 *a, const ModMatMulFn &mm, bool fuse = false) const;

    /** Work counts for the performance model. */
    struct Complexity
    {
        u64 matmul_macs = 0;      ///< multiply-accumulates inside matmuls
        u64 twist_muls = 0;       ///< scalar twiddle multiplications
        u64 reorder_elems = 0;    ///< elements moved by gather/transpose
        u64 matmul_stages = 0;    ///< number of matmul stages
    };

    /// Analytical complexity of one transform of length n.
    Complexity complexity() const;

    /// Same computation without building tables (for cost models).
    /// One transform issues exactly matmul_stages ModMatMulFn calls.
    static Complexity complexity_for(size_t n, size_t radix);

  private:
    /// Element-wise pass folded into the top-level call (never into
    /// the recursion) when the caller asked for fusion.
    enum class TopTwist {
        none,     ///< plain cyclic transform
        psi_fwd,  ///< ψ pre-twist fused into the gather
        psi_inv,  ///< n⁻¹·ψ⁻¹ scaling fused into the writeback
    };

    /// Transform @p rows contiguous vectors of length @p len in place,
    /// one ModMatMulFn call per recursion stage for all rows together.
    void cyclic_batch(u64 *a, size_t rows, size_t len, bool inverse,
                      const ModMatMulFn &mm,
                      TopTwist top = TopTwist::none) const;

    /// Twiddle matrix W[c][k] = ω_len^{ck} (or inverse) for len ≤ radix.
    const std::vector<u64> &twiddle_matrix(size_t len, bool inverse) const;

    static void accumulate(Complexity &c, size_t rows, size_t len,
                           size_t radix);

    const NttTables &tables_;
    size_t radix_;
    // Precomputed twiddle matrices for all lengths 2..radix (powers of
    // two), forward and inverse.
    std::vector<std::vector<u64>> w_fwd_, w_inv_;
};

} // namespace neo
