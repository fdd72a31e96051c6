/**
 * @file
 * Model of Tensor Core fragment geometry and wide-word GEMM emulation
 * cost (§3.4, Figs 3, 11, 12).
 *
 * TCUs execute GEMMs in fixed fragment shapes:
 *   FP64 : 8×8×4 (the only shape),
 *   INT8 : 16×16×16, 32×8×16, 8×32×16.
 * A logical M×N×K product is padded up to fragment multiples; the
 * valid proportion M·N·K / padded is what Fig 12 plots. Wide operands
 * additionally require plane splitting (tensor/bitslice.h); the number
 * of plane-pair products is the "Booth complexity" of Fig 3.
 */
#pragma once

#include <cstddef>

#include "gpusim/device_spec.h"
#include "tensor/bitslice.h"

namespace neo::gpusim {

/** One supported fragment geometry. */
struct FragmentShape
{
    size_t m, n, k;
};

inline constexpr FragmentShape kFp64Fragment{8, 8, 4};
inline constexpr FragmentShape kInt8Fragments[] = {
    {16, 16, 16}, {32, 8, 16}, {8, 32, 16}};

/** Cost/geometry calculator for TCU-mapped integer GEMMs. */
class TcuModel
{
  public:
    explicit TcuModel(const DeviceSpec &spec) : spec_(spec) {}

    /// Padded MAC count of an M×N×K GEMM under fragment @p f.
    static u64 padded_macs(size_t m, size_t n, size_t k,
                           const FragmentShape &f);

    /// Valid proportion under FP64 fragments (Fig 12's y-axis).
    static double valid_proportion_fp64(size_t m, size_t n, size_t k);

    /// Best valid proportion over the INT8 fragment shapes.
    static double valid_proportion_int8(size_t m, size_t n, size_t k);

    /**
     * Time of one integer GEMM (M×N×K, wa-bit × wb-bit operands)
     * executed on the FP64 pipes, including the plane-split
     * multiplier. Excludes the CUDA-core split/merge pre/post passes,
     * which the kernel models account as their own steps.
     */
    double fp64_gemm_time(size_t m, size_t n, size_t k, int wa,
                          int wb) const;

    /**
     * Time of the same GEMM on CUDA cores (modular multiply-adds) —
     * the fallback mapping used by IP when the valid proportion is
     * below the 80% threshold (§4.5.3).
     */
    double cuda_gemm_time(size_t m, size_t n, size_t k) const;

    const DeviceSpec &spec() const { return spec_; }

  private:
    DeviceSpec spec_;
};

} // namespace neo::gpusim
