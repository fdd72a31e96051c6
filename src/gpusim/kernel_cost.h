/**
 * @file
 * Roofline cost of one GPU kernel and schedule-level composition.
 *
 * A kernel is summarised by the work it places on each device
 * resource: CUDA-core modular ops, TCU MACs (already padded and
 * split-multiplied), and DRAM traffic. Its execution time is
 *
 *   time = max(memory_s, compute_s) + launch_s
 *
 * where compute_s is the sum of CUDA and TCU phase times for an
 * ordinary kernel, or their max when the multi-stream optimization
 * (§4.6) lets another stream's CUDA work fill TCU stalls, and
 * launch_s = launches * launch_overhead. The full decomposition —
 * not just the scalar total — is exposed as a CostBreakdown so
 * profilers can attribute every kernel to its bottleneck resource
 * (compute / memory / launch bound, the Fig 13 lens).
 *
 * This is the same first-order model the paper itself reasons with in
 * §3 (memory-transfer proportions, component throughputs, Booth/
 * padding multipliers), so shapes of the evaluation figures follow
 * from the modelled algorithms rather than from per-figure tuning.
 */
#pragma once

#include <vector>

#include "gpusim/device_spec.h"

namespace neo::gpusim {

/** Which roofline term bounds a kernel's execution time. */
enum class Bound { compute, memory, launch };

/// Stable lowercase name ("compute" / "memory" / "launch") for
/// reports and JSON artifacts.
const char *bound_name(Bound b);

/**
 * The resource that bounds max(compute_s, memory_s) + launch_s:
 * `launch` when the launch term exceeds both roofline terms, else
 * whichever of compute/memory forms the max (ties break to compute).
 * Every bound() in the cost model is this rule.
 */
Bound roofline_bound(double compute_s, double memory_s, double launch_s);

/**
 * Full roofline decomposition of one kernel (or one schedule) under a
 * DeviceSpec. All fields are non-negative; the invariant
 *
 *   total_s() == max(compute_s, memory_s) + launch_s
 *
 * holds by construction and is locked in tests/gpusim_cost_test.cpp.
 */
struct CostBreakdown
{
    double compute_s = 0; ///< CUDA + TCU phase seconds (max if overlapped)
    double memory_s = 0;  ///< DRAM transfer seconds
    double launch_s = 0;  ///< launches * per-launch overhead
    double bytes = 0;     ///< DRAM bytes moved (read + written)
    double macs = 0;      ///< TCU MACs (FP64 + INT8, padded + split)
    double mod_ops = 0;   ///< CUDA-core modular mul/add limb ops
    double int_ops = 0;   ///< plain INT32 ops (splits/merges/reorders)

    /// Kernel execution time under the roofline identity.
    double total_s() const
    {
        return (compute_s > memory_s ? compute_s : memory_s) + launch_s;
    }

    /// The resource that bounds total_s() (roofline_bound).
    Bound bound() const
    {
        return roofline_bound(compute_s, memory_s, launch_s);
    }
};

/** Work placed on each GPU resource by one kernel (or fused kernel). */
struct KernelCost
{
    double cuda_modmul = 0;  ///< 64-bit modular multiplies on CUDA cores
    double cuda_modadd = 0;  ///< 64-bit modular adds/subs on CUDA cores
    double cuda_int_ops = 0; ///< plain INT32 ops (splits/merges/reorders)
    double tcu_fp64_macs = 0; ///< padded+split FP64 TCU MACs
    double tcu_int8_macs = 0; ///< padded+split INT8 TCU MACs
    double bytes_read = 0;    ///< DRAM bytes read
    double bytes_written = 0; ///< DRAM bytes written
    double launches = 1;      ///< kernel launches (0 for fused-away steps)

    double bytes() const { return bytes_read + bytes_written; }

    /// Accumulate another kernel's work (used by kernel fusion, which
    /// also removes the fused kernel's launch and intermediate
    /// traffic at the call site).
    KernelCost &operator+=(const KernelCost &o);
    friend KernelCost operator+(KernelCost a, const KernelCost &b)
    {
        a += b;
        return a;
    }

    /// Time of the CUDA-core phase alone.
    double cuda_time(const DeviceSpec &d) const;
    /// Time of the TCU phase alone.
    double tcu_time(const DeviceSpec &d) const;
    /// Time of the memory phase alone.
    double mem_time(const DeviceSpec &d) const;

    /**
     * Full roofline decomposition. Negative work fields (a modelling
     * bug) are clamped to zero so downstream attribution stays sane;
     * the clamp is observable via the non-negativity tests.
     * @param overlap_components  true when multi-stream execution
     *        overlaps the CUDA and TCU phases (§4.6).
     */
    CostBreakdown breakdown(const DeviceSpec &d,
                            bool overlap_components = false) const;

    /**
     * Kernel execution time; exactly breakdown().total_s(), so the
     * scalar and the decomposition can never disagree.
     */
    double time(const DeviceSpec &d, bool overlap_components = false) const;
};

/**
 * How a kernel sequence is dispatched.
 *  - multistream: overlap CUDA/TCU phases within and across kernels
 *    (the §4.6 multi-stream optimization).
 *  - graph_capture: the whole sequence is captured as a CUDA-graph-
 *    style DAG once and replayed with a single host dispatch; the
 *    per-kernel launch overheads collapse to
 *    DeviceSpec::graph_launch_s (replay + amortized capture).
 */
struct SchedulePolicy
{
    bool multistream = false;
    bool graph_capture = false;
};

/** Totals for a sequence of kernels forming one FHE operation. */
struct ScheduleResult
{
    double seconds = 0;
    double bytes = 0;
    /// Host-side dispatches: per-kernel launches, or 1 graph replay
    /// when the schedule ran captured (0 for an empty schedule).
    double launches = 0;
    /// Graph replays issued (1 under graph capture, else 0).
    double graph_launches = 0;
    /// Kernel launches folded into the captured graph (0 when graph
    /// capture is off; equals the per-kernel launch sum when on).
    double captured_launches = 0;
    /**
     * Phase attribution of `seconds`. Under multistream scheduling
     * the roofline identity seconds == max(compute_s, memory_s) +
     * launch_s holds for the schedule as a whole; under serial
     * scheduling it holds per kernel and the fields below are the
     * per-phase sums (sum-of-max >= max-of-sum, so seconds >=
     * max(compute_s, memory_s) + launch_s).
     */
    double compute_s = 0;
    double memory_s = 0;
    double launch_s = 0;

    /// Dominant resource across the schedule (roofline_bound).
    Bound bound() const
    {
        return roofline_bound(compute_s, memory_s, launch_s);
    }
};

/** Execute a kernel sequence under the device model. */
ScheduleResult run_schedule(const std::vector<KernelCost> &kernels,
                            const DeviceSpec &d,
                            const SchedulePolicy &policy);

} // namespace neo::gpusim
