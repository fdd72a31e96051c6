/**
 * @file
 * The one modular-GEMM entry: gemm(engine, a, b, c, shape, moduli).
 *
 * Every matrix product the paper maps onto the Tensor Core (NTT
 * stages, BConv, IP) runs through gemm() on one of three bit-exact
 * engines:
 *   - fp64_tcu reproduces, in host IEEE-754 arithmetic, exactly what
 *     the paper executes on the A100's FP64 tensor cores: wide residues
 *     are sliced into planes (tensor/bitslice.h), each plane pair is
 *     multiplied with *double* arithmetic (every intermediate provably
 *     ≤ 2^53, hence exact), and the partial products are recombined
 *     with shifts modulo q;
 *   - int8_tcu does the same through the INT8 pipe with INT32
 *     accumulation (TensorFHE's approach);
 *   - scalar is one u128 multiply-accumulate loop (the CUDA-core
 *     analogue and the reference).
 *
 * A ModulusMap says which modulus reduces each output element. All
 * engines agree bit-for-bit on every shape and map — the functional
 * heart of the paper's §3.4 argument, enforced by tests/tensor_test.cpp.
 */
#pragma once

#include <vector>

#include "rns/modulus.h"

namespace neo {

/**
 * One bit-exact GEMM engine: the pipe a kernel's GEMM runs on, in the
 * functional pipeline and in the cost model alike (scalar is the
 * CUDA-core path). The numeric order is the registry's canonical
 * (and serialization) order; it doubles as the deterministic
 * tie-break when the tuner scores two engines equal.
 */
enum class EngineId {
    fp64_tcu = 0, ///< emulated FP64 tensor core (bit-sliced doubles)
    scalar = 1,   ///< scalar modular arithmetic (CUDA-core analogue)
    int8_tcu = 2, ///< emulated INT8 tensor core
};

/**
 * `sites` independent m×n×k products laid out contiguously, all
 * row-major: A is sites×m×k, B is sites×k×n, C is sites×m×n. sites is
 * 1 unless the modulus map is per site.
 */
struct GemmShape
{
    size_t sites, m, n, k;
};

/**
 * Which modulus reduces each output element: one modulus for the whole
 * product (matrix NTT), mods[j] for output column j (BConv, Algorithm
 * 2), or mods[s % count] for site s (the IP's per-site products,
 * Algorithm 4). The map points into the caller's moduli, which must
 * outlive the call.
 */
struct ModulusMap
{
    enum class Kind { one, per_column, per_site };
    Kind kind;
    const Modulus *mods;
    size_t count;

    static ModulusMap of(const Modulus &q) { return {Kind::one, &q, 1}; }
    static ModulusMap columns(const std::vector<Modulus> &mods)
    {
        return {Kind::per_column, mods.data(), mods.size()};
    }
    static ModulusMap sites(const std::vector<Modulus> &mods)
    {
        return {Kind::per_site, mods.data(), mods.size()};
    }
};

/**
 * C = A·B on @p engine, each output element reduced modulo its
 * modulus in @p moduli. One-modulus and per-site entries are residues
 * of the map's widest modulus; per-column entries may be any words
 * (BConv's A operand sits in the source basis). K = 0 writes C = 0.
 * The scalar engine is exact at every K; the sliced engines throw
 * std::invalid_argument past their plane budget (K > 2^15 for INT8).
 *
 * Throws std::invalid_argument when a per-column map's count is not
 * n, a per-site map is empty, or a map other than per-site is given
 * sites ≠ 1. Each call records one obs::cat::gemm span and one
 * (sites·m)×n×k shape count.
 */
void gemm(EngineId engine, const u64 *a, const u64 *b, u64 *c,
          const GemmShape &shape, const ModulusMap &moduli);

} // namespace neo
