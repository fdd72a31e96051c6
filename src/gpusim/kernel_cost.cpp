#include "gpusim/kernel_cost.h"

#include <algorithm>

namespace neo::gpusim {

const char *
bound_name(Bound b)
{
    switch (b) {
    case Bound::compute: return "compute";
    case Bound::memory: return "memory";
    case Bound::launch: return "launch";
    }
    return "?";
}

Bound
roofline_bound(double compute_s, double memory_s, double launch_s)
{
    if (launch_s > std::max(compute_s, memory_s))
        return Bound::launch;
    return compute_s >= memory_s ? Bound::compute : Bound::memory;
}

KernelCost &
KernelCost::operator+=(const KernelCost &o)
{
    cuda_modmul += o.cuda_modmul;
    cuda_modadd += o.cuda_modadd;
    cuda_int_ops += o.cuda_int_ops;
    tcu_fp64_macs += o.tcu_fp64_macs;
    tcu_int8_macs += o.tcu_int8_macs;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    launches += o.launches;
    return *this;
}

namespace {
double
clamp0(double v)
{
    return v > 0 ? v : 0;
}
} // namespace

double
KernelCost::cuda_time(const DeviceSpec &d) const
{
    return clamp0(cuda_modmul) / d.modmul_rate() +
           clamp0(cuda_modadd) / d.modadd_rate() +
           clamp0(cuda_int_ops) / d.int_op_rate();
}

double
KernelCost::tcu_time(const DeviceSpec &d) const
{
    return clamp0(tcu_fp64_macs) / d.tcu_fp64_fma_rate() +
           clamp0(tcu_int8_macs) / d.tcu_int8_mac_rate();
}

double
KernelCost::mem_time(const DeviceSpec &d) const
{
    return (clamp0(bytes_read) + clamp0(bytes_written)) / d.mem_rate();
}

CostBreakdown
KernelCost::breakdown(const DeviceSpec &d, bool overlap_components) const
{
    const double cuda = cuda_time(d);
    const double tcu = tcu_time(d);
    CostBreakdown b;
    b.compute_s = overlap_components ? std::max(cuda, tcu) : cuda + tcu;
    b.memory_s = mem_time(d);
    b.launch_s = clamp0(launches) * d.kernel_launch_s;
    b.bytes = clamp0(bytes_read) + clamp0(bytes_written);
    b.macs = clamp0(tcu_fp64_macs) + clamp0(tcu_int8_macs);
    b.mod_ops = clamp0(cuda_modmul) + clamp0(cuda_modadd);
    b.int_ops = clamp0(cuda_int_ops);
    return b;
}

double
KernelCost::time(const DeviceSpec &d, bool overlap_components) const
{
    return breakdown(d, overlap_components).total_s();
}

ScheduleResult
run_schedule(const std::vector<KernelCost> &kernels, const DeviceSpec &d,
             const SchedulePolicy &policy)
{
    ScheduleResult r;
    if (policy.multistream) {
        // Streams decouple the component pipelines: total time is set
        // by the busiest resource, each kernel still pays max(mem,
        // compute) locally. We model this as resource-major
        // accumulation with per-kernel launch overhead amortised
        // across concurrent streams (factor 1/2).
        double cuda = 0, tcu = 0, mem = 0;
        for (const auto &k : kernels) {
            cuda += k.cuda_time(d);
            tcu += k.tcu_time(d);
            mem += k.mem_time(d);
            r.bytes += k.bytes();
            r.launches += k.launches;
        }
        r.compute_s = cuda + tcu == 0 ? 0 : std::max(cuda, tcu);
        r.memory_s = mem;
        r.launch_s = r.launches * d.kernel_launch_s * 0.5;
        r.seconds = std::max(r.compute_s, r.memory_s) + r.launch_s;
    } else {
        for (const auto &k : kernels) {
            const CostBreakdown b = k.breakdown(d, false);
            r.seconds += b.total_s();
            r.bytes += k.bytes();
            r.launches += k.launches;
            r.compute_s += b.compute_s;
            r.memory_s += b.memory_s;
            r.launch_s += b.launch_s;
        }
    }
    if (policy.graph_capture && r.launches > 0) {
        // The whole sequence replays as one captured DAG: the
        // per-kernel dispatch sum is replaced by a single replay plus
        // the amortized one-time capture of every kernel node. The
        // compute/memory phases are untouched — the graph changes who
        // issues the kernels, not what they do.
        r.captured_launches = r.launches;
        const double graph_l = d.graph_launch_s(r.captured_launches);
        r.seconds += graph_l - r.launch_s;
        r.launch_s = graph_l;
        r.launches = 1;
        r.graph_launches = 1;
    }
    return r;
}

} // namespace neo::gpusim
