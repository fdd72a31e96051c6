#include "gpusim/tcu_model.h"

#include <algorithm>

#include "common/math_util.h"

namespace neo::gpusim {

u64
TcuModel::padded_macs(size_t m, size_t n, size_t k, const FragmentShape &f)
{
    const u64 pm = ceil_div(m, f.m) * f.m;
    const u64 pn = ceil_div(n, f.n) * f.n;
    const u64 pk = ceil_div(k, f.k) * f.k;
    return pm * pn * pk;
}

double
TcuModel::valid_proportion_fp64(size_t m, size_t n, size_t k)
{
    return static_cast<double>(m) * n * k /
           static_cast<double>(padded_macs(m, n, k, kFp64Fragment));
}

double
TcuModel::valid_proportion_int8(size_t m, size_t n, size_t k)
{
    double best = 0.0;
    for (const auto &f : kInt8Fragments) {
        best = std::max(best, static_cast<double>(m) * n * k /
                                  static_cast<double>(
                                      padded_macs(m, n, k, f)));
    }
    return best;
}

double
TcuModel::fp64_gemm_time(size_t m, size_t n, size_t k, int wa, int wb) const
{
    const SplitPlan plan = choose_fp64_split(wa, wb, k);
    const u64 macs = padded_macs(m, n, k, kFp64Fragment);
    return static_cast<double>(macs) * plan.products() /
           spec_.tcu_fp64_fma_rate();
}

double
TcuModel::cuda_gemm_time(size_t m, size_t n, size_t k) const
{
    return static_cast<double>(m) * n * k / spec_.modmul_rate();
}

} // namespace neo::gpusim
