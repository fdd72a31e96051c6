/**
 * @file
 * Neo's optimized BConv and IP kernels (§4.2, Algorithms 1–4).
 *
 * Each kernel exists in two bit-exact forms:
 *  - the *original* element-wise algorithm (Algorithm 1 / 3) in which
 *    every input limb is walked once per output limb — the poor-reuse
 *    baseline the paper starts from;
 *  - the *matrix* algorithm (Algorithm 2 / 4): scalar pre-scaling,
 *    layout reorder to put the reduction axis innermost (Fig 6 / 8),
 *    one GEMM per coefficient site, and the inverse reorder.
 *
 * The matrix forms take their GEMM as an argument — one of the seams
 * below, which neo::EngineRegistry::engines(id) builds over gemm(id, …)
 * (tensor/gemm.h) — so every caller names the engine it runs on: the
 * scalar reference, the FP64-TCU emulation or the INT8-TCU emulation.
 * Tests require identical outputs on all engines.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "rns/base_convert.h"

namespace neo {

/**
 * BConv's GEMM seam (Algorithm 2): C = A·B, column j of C reduced
 * modulo col_mods[j]. A is M×K in the source basis, B is K×N.
 */
using ModColMatMulFn =
    std::function<void(const u64 *a, const u64 *b, u64 *c, size_t m,
                       size_t n, size_t k,
                       const std::vector<Modulus> &col_mods)>;

/**
 * The IP's GEMM seam (Algorithm 4): `sites` independent M×N×K modular
 * matmuls laid out contiguously — A is sites×M×K, B is sites×K×N, C
 * is sites×M×N — where site s reduces modulo mods[s % mods.size()].
 * One call covers every site, so the engine's per-call costs are paid
 * once per inner product, and it is counted as one GEMM of shape
 * (sites·M)×N×K.
 */
using ModSiteMatMulFn =
    std::function<void(const u64 *a, const u64 *b, u64 *c, size_t sites,
                       size_t m, size_t n, size_t k,
                       const std::vector<Modulus> &mods)>;

/**
 * BConv of a batch of polynomials (Algorithms 1 and 2).
 * Input tensor: α × BatchSize × N (limb-major); output α' × BatchSize
 * × N over the target basis.
 */
class BConvKernel
{
  public:
    /// A kernel that owns a converter from @p from to @p to.
    BConvKernel(const RnsBasis &from, const RnsBasis &to)
        : owned_(std::make_unique<BaseConverter>(from, to)), conv_(*owned_)
    {
    }

    /// A kernel over @p conv, which must outlive it (the key-switch
    /// plan's converters live as long as their context).
    explicit BConvKernel(const BaseConverter &conv) : conv_(conv) {}

    size_t in_levels() const { return conv_.from().size(); }
    size_t out_levels() const { return conv_.to().size(); }

    /// Algorithm 1: element-wise scalar multiply-accumulate.
    void run_elementwise(const u64 *in, size_t batch, size_t n,
                         u64 *out) const;

    /// Algorithm 2: pre-scale, reorder, GEMM on @p mm, reorder back.
    void run_matmul(const u64 *in, size_t batch, size_t n, u64 *out,
                    const ModColMatMulFn &mm) const;

    /**
     * Exact (centered) variant of the matrix form, as KLSS Mod Up and
     * Recover Limbs require: the preprocessing additionally computes
     * the overflow count r = round(Σ_i y_i / b_i) per coefficient and
     * the epilogue subtracts r·B mod t_j — one rank-1 correction on
     * top of the same GEMM. Both are the converter's own overflow()
     * and correct() steps, so the result is bit-exact against
     * BaseConverter::convert_exact.
     */
    void run_matmul_exact(const u64 *in, size_t batch, size_t n, u64 *out,
                          const ModColMatMulFn &mm) const;

    const BaseConverter &converter() const { return conv_; }

  private:
    void matmul_common(const u64 *in, size_t batch, size_t n, u64 *out,
                       const ModColMatMulFn &mm, bool exact) const;

    std::unique_ptr<const BaseConverter> owned_; ///< null when wrapping
    const BaseConverter &conv_;
};

/**
 * IP — the KeySwitch inner product over R_T (Algorithms 3 and 4).
 * Limb tensor: β × α' × BatchSize × N; keys: β̃ × β × α' × N; output
 * β̃ × α' × BatchSize × N. All data NTT-form residues mod t_k (the
 * modulus of the k-th α' slice).
 */
class IpKernel
{
  public:
    /// @param t_mods the α' moduli of the T base.
    IpKernel(std::vector<Modulus> t_mods, size_t beta, size_t beta_tilde);

    /// Algorithm 3: β̃·β element-wise multiply-accumulate passes.
    void run_elementwise(const u64 *limbs, const u64 *keys, size_t batch,
                         size_t n, u64 *out) const;

    /**
     * Algorithm 4: reorder both tensors, then ONE batched engine call
     * covering every (l, k) site — a site is a BS×β̃×β product reduced
     * mod t_k, and issuing all N·α' of them together amortises the
     * engine's per-call fixed costs across the whole inner product.
     */
    void run_matmul(const u64 *limbs, const u64 *keys, size_t batch,
                    size_t n, u64 *out, const ModSiteMatMulFn &mm) const;

    /**
     * Algorithm 4 with the key tensor already in the Fig 8 layout
     * (β̃×β×α'×N reversed to N×α'×β×β̃). Key material is static per
     * (key, level), so callers cache the reorder instead of paying it
     * on every keyswitch.
     */
    void run_matmul_reordered(const u64 *limbs, const u64 *keys_r,
                              size_t batch, size_t n, u64 *out,
                              const ModSiteMatMulFn &mm) const;

  private:
    void matmul_sites(const u64 *limbs, const u64 *keys_r, size_t batch,
                      size_t n, u64 *out, const ModSiteMatMulFn &mm) const;

    std::vector<Modulus> t_mods_;
    size_t beta_;
    size_t beta_tilde_;
};

} // namespace neo
