/**
 * @file
 * Bit-exact emulations of the Tensor Core GEMM datapaths.
 *
 * fp64_sliced_matmul reproduces, in host IEEE-754 arithmetic, exactly
 * what the paper executes on the A100's FP64 tensor cores: wide
 * residues are sliced into planes (tensor/bitslice.h), each plane pair
 * is multiplied with *double* arithmetic (every intermediate provably
 * ≤ 2^53, hence exact), and the partial products are recombined with
 * shifts modulo q. int8_sliced_matmul does the same through the INT8
 * pipe with INT32 accumulation (TensorFHE's approach).
 *
 * Both must agree bit-for-bit with the u128 scalar reference — this is
 * the functional heart of the paper's §3.4 argument and is enforced by
 * tests/tensor_test.cpp.
 */
#pragma once

#include "poly/mat_mul.h"
#include "tensor/bitslice.h"

namespace neo {

/**
 * C = A·B mod q through the FP64-plane path. A is M×K with entries
 * < q, B is K×N with entries < q, row-major.
 */
void fp64_sliced_matmul(const u64 *a, const u64 *b, u64 *c, size_t m,
                        size_t n, size_t k, const Modulus &q);

/// C = A·B mod q through the INT8-plane path (INT32 accumulation).
void int8_sliced_matmul(const u64 *a, const u64 *b, u64 *c, size_t m,
                        size_t n, size_t k, const Modulus &q);

/// ModMatMulFn adapters for plugging into MatrixNtt / Neo kernels.
const ModMatMulFn &fp64_tcu_matmul();
const ModMatMulFn &int8_tcu_matmul();

/**
 * Per-column-modulus GEMM, as needed by the matrix-form BConv
 * (Algorithm 2): the TCU accumulates the integer product exactly;
 * column j of C is then reduced modulo col_mods[j] in the epilogue.
 * Plane widths are sized for the widest operand word.
 */
using ModColMatMulFn =
    std::function<void(const u64 *a, const u64 *b, u64 *c, size_t m,
                       size_t n, size_t k,
                       const std::vector<Modulus> &col_mods)>;

/// Scalar reference for the per-column variant.
void scalar_matmul_cols(const u64 *a, const u64 *b, u64 *c, size_t m,
                        size_t n, size_t k,
                        const std::vector<Modulus> &col_mods);

/// FP64-plane implementation of the per-column variant.
void fp64_sliced_matmul_cols(const u64 *a, const u64 *b, u64 *c, size_t m,
                             size_t n, size_t k,
                             const std::vector<Modulus> &col_mods);

/// INT8-plane implementation of the per-column variant (TensorFHE's
/// engine driving the matrix-form BConv, for comparison).
void int8_sliced_matmul_cols(const u64 *a, const u64 *b, u64 *c, size_t m,
                             size_t n, size_t k,
                             const std::vector<Modulus> &col_mods);

const ModColMatMulFn &scalar_col_matmul();
const ModColMatMulFn &fp64_tcu_col_matmul();
const ModColMatMulFn &int8_tcu_col_matmul();

/**
 * Batched per-site GEMM: `sites` independent M×N×K modular matmuls
 * laid out contiguously — A is sites×M×K, B is sites×K×N, C is
 * sites×M×N — where site s reduces modulo mods[s % mods.size()]. The
 * entries are residues: the sliced engines size their planes to the
 * widest modulus.
 *
 * This is the shape of the KeySwitch inner product (Algorithm 4): one
 * BS×β̃×β product per (coefficient, T-limb) site, with the modulus
 * cycling through the α' T primes. Issuing it as ONE engine call
 * amortises the per-call fixed costs (span, counters, split-plan
 * selection) that dwarf the ~MNK useful MACs of a single site.
 *
 * Counted as a single GEMM of shape (sites·M)×N×K, which preserves
 * the FLOP accounting. Each site's accumulation order is unchanged
 * (strictly ascending k), so outputs are bit-identical to looping
 * over sites with the matching single-site engine.
 */
using ModSiteMatMulFn =
    std::function<void(const u64 *a, const u64 *b, u64 *c, size_t sites,
                       size_t m, size_t n, size_t k,
                       const std::vector<Modulus> &mods)>;

/// Scalar (u128 accumulate) reference for the per-site variant.
void scalar_matmul_sites(const u64 *a, const u64 *b, u64 *c, size_t sites,
                         size_t m, size_t n, size_t k,
                         const std::vector<Modulus> &mods);

/// FP64-plane implementation of the per-site variant.
void fp64_sliced_matmul_sites(const u64 *a, const u64 *b, u64 *c,
                              size_t sites, size_t m, size_t n, size_t k,
                              const std::vector<Modulus> &mods);

/// INT8-plane implementation of the per-site variant.
void int8_sliced_matmul_sites(const u64 *a, const u64 *b, u64 *c,
                              size_t sites, size_t m, size_t n, size_t k,
                              const std::vector<Modulus> &mods);

const ModSiteMatMulFn &scalar_site_matmul();
const ModSiteMatMulFn &fp64_tcu_site_matmul();
const ModSiteMatMulFn &int8_tcu_site_matmul();

/**
 * Instruction-set level of the FP64 plane microkernel, lowest first.
 * The highest level the host supports is picked once from CPUID; every
 * level produces bit-identical planes (see plane_gemm_block).
 */
enum class GemmIsa { portable, avx2, avx512 };

/// Highest level this host supports; the FP64 plane GEMM runs at it.
GemmIsa gemm_isa_supported();

/// "portable", "avx2" or "avx512".
const char *gemm_isa_name(GemmIsa isa);

/**
 * Test hook: run the FP64 plane GEMM at @p isa, which must not exceed
 * gemm_isa_supported(). Returns the previous level. Not for use while
 * GEMMs are in flight.
 */
GemmIsa force_gemm_isa_for_testing(GemmIsa isa);

} // namespace neo
