/**
 * @file
 * The library's one instruction-set level.
 *
 * Every lane kernel dispatches on it: the FP64 GEMM lanes
 * (tensor/gemm.cpp), and the IFMA Shoup products of the radix-2 NTT
 * (poly/ntt.cpp) and of BConv (rns/base_convert.cpp). The highest
 * level the host supports is read from CPUID once; the portable level
 * runs the scalar loops. Every level produces bit-identical results.
 * There is no environment or build knob: the only way to pick a lower
 * level is force_isa_for_testing().
 */
#pragma once

namespace neo {

/// Instruction-set levels, lowest first.
enum class Isa { portable, avx2, avx512 };

/// Highest level this host supports: avx512f+fma, else avx2+fma, else
/// portable.
Isa isa_supported();

/// The level the lane kernels run at: isa_supported() unless a test
/// forced a lower one.
Isa active_isa();

/// "portable", "avx2" or "avx512".
const char *isa_name(Isa isa);

/**
 * True when the active level is avx512 and the host has AVX-512 IFMA
 * (52-bit multiply-add lanes, read from CPUID once). The NTT and BConv
 * take their lanes only then, and only for moduli below 2^50.
 */
bool ifma_lanes();

/**
 * Test hook: run every lane kernel at @p isa, which must not exceed
 * isa_supported(). Returns the previous level. Not for use while
 * kernels are in flight.
 */
Isa force_isa_for_testing(Isa isa);

} // namespace neo
