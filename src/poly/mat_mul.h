/**
 * @file
 * The modular matrix-multiplication seam of the matrix NTT.
 *
 * MatrixNtt funnels every stage's matrix product through this
 * signature, so the stage runs on whichever engine the caller names:
 * neo::EngineRegistry::engines(id).same_mod wraps gemm(id, …) from
 * tensor/gemm.h for the scalar reference, the FP64 bit-sliced
 * emulation of the TCU datapath or the INT8 one. All engines are
 * bit-exact; tests enforce it.
 */
#pragma once

#include <cstddef>
#include <functional>

#include "rns/modulus.h"

namespace neo {

/**
 * C = A · B (mod q); A is M×K, B is K×N, C is M×N, all row-major,
 * entries reduced mod q.
 */
using ModMatMulFn =
    std::function<void(const u64 *a, const u64 *b, u64 *c, size_t m,
                       size_t n, size_t k, const Modulus &q)>;

} // namespace neo
