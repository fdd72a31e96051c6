#include <gtest/gtest.h>

#include "gpusim/event_sim.h"
#include "gpusim/kernel_cost.h"
#include "gpusim/tcu_model.h"

namespace neo::gpusim {
namespace {

TEST(DeviceSpec, DatasheetNumbers)
{
    auto d = DeviceSpec::a100();
    // §2.3: CUDA FP64 9.7 TFLOPS, TCU FP64 19.5 TFLOPS (2x), INT8 TCU
    // 624 TOPS.
    EXPECT_DOUBLE_EQ(d.fp64_cuda_flops, 9.7e12);
    EXPECT_DOUBLE_EQ(d.fp64_tcu_flops, 19.5e12);
    EXPECT_NEAR(d.fp64_tcu_flops / d.fp64_cuda_flops, 2.0, 0.02);
    EXPECT_DOUBLE_EQ(d.int8_tcu_ops, 624e12);
    EXPECT_DOUBLE_EQ(d.hbm_bandwidth, 1555e9);
    EXPECT_EQ(d.num_sms, 108);
}

TEST(DeviceSpec, DerivedRatesPositiveAndOrdered)
{
    auto d = DeviceSpec::a100();
    EXPECT_GT(d.modmul_rate(), 0);
    EXPECT_GT(d.modadd_rate(), d.modmul_rate()); // adds cheaper
    EXPECT_GT(d.tcu_fp64_fma_rate(), 0);
    EXPECT_GT(d.tcu_int8_mac_rate(), d.tcu_fp64_fma_rate());
    EXPECT_GT(d.mem_rate(), 0);
    EXPECT_LT(d.mem_rate(), d.hbm_bandwidth);
}

TEST(TcuModel, PaddedMacsRoundsUpToFragments)
{
    // FP64 fragment is 8x8x4.
    EXPECT_EQ(TcuModel::padded_macs(8, 8, 4, kFp64Fragment), 256u);
    EXPECT_EQ(TcuModel::padded_macs(1, 1, 1, kFp64Fragment), 256u);
    EXPECT_EQ(TcuModel::padded_macs(16, 8, 4, kFp64Fragment), 512u);
    EXPECT_EQ(TcuModel::padded_macs(9, 9, 5, kFp64Fragment),
              16u * 16 * 8);
}

TEST(TcuModel, ValidProportionPaperValues)
{
    // Fig 11: BConv (M huge, N=α'=8, K=α=4): FP64 100%, INT8 25%.
    EXPECT_DOUBLE_EQ(TcuModel::valid_proportion_fp64(1 << 20, 8, 4), 1.0);
    EXPECT_DOUBLE_EQ(TcuModel::valid_proportion_int8(1 << 20, 8, 4), 0.25);
    // NTT 16x16 tiles: both aligned on FP64.
    EXPECT_DOUBLE_EQ(TcuModel::valid_proportion_fp64(1 << 20, 16, 16),
                     1.0);
}

TEST(TcuModel, ValidProportionNeverExceedsOne)
{
    for (size_t m : {1u, 7u, 8u, 100u})
        for (size_t n : {1u, 5u, 8u, 16u})
            for (size_t k : {1u, 3u, 4u, 16u}) {
                double v = TcuModel::valid_proportion_fp64(m, n, k);
                EXPECT_GT(v, 0);
                EXPECT_LE(v, 1.0);
            }
}

TEST(TcuModel, GemmTimesScaleWithWork)
{
    TcuModel t(DeviceSpec::a100());
    EXPECT_LT(t.fp64_gemm_time(1 << 10, 16, 16, 36, 36),
              t.fp64_gemm_time(1 << 12, 16, 16, 36, 36));
    // Wider words need more plane products.
    EXPECT_LT(t.fp64_gemm_time(1 << 10, 16, 16, 36, 36),
              t.fp64_gemm_time(1 << 10, 16, 16, 48, 48));
    EXPECT_GT(t.cuda_gemm_time(1 << 10, 16, 16), 0);
}

TEST(KernelCost, AccumulateAndRoofline)
{
    auto d = DeviceSpec::a100();
    KernelCost compute;
    compute.cuda_modmul = 1e9;
    compute.bytes_read = 1e3; // negligible memory
    KernelCost memory;
    memory.bytes_read = 1e10; // negligible compute
    memory.cuda_modmul = 1;

    // Compute-bound kernel: time tracks the modmul rate.
    EXPECT_NEAR(compute.time(d), 1e9 / d.modmul_rate() +
                                     d.kernel_launch_s,
                1e-9);
    // Memory-bound kernel: time tracks bandwidth.
    EXPECT_NEAR(memory.time(d), 1e10 / d.mem_rate() + d.kernel_launch_s,
                1e-6);

    KernelCost sum = compute + memory;
    EXPECT_DOUBLE_EQ(sum.cuda_modmul, compute.cuda_modmul + 1);
    EXPECT_DOUBLE_EQ(sum.bytes(), 1e10 + 1e3 + 0);
    EXPECT_DOUBLE_EQ(sum.launches, 2);
}

TEST(KernelCost, OverlapReducesMixedKernelTime)
{
    auto d = DeviceSpec::a100();
    KernelCost k;
    k.cuda_modmul = 1e9;
    k.tcu_fp64_macs = 5e9;
    const double serial = k.time(d, false);
    const double overlapped = k.time(d, true);
    EXPECT_LT(overlapped, serial);
    // Overlap floor: the max of the two phases.
    EXPECT_GE(overlapped,
              std::max(k.cuda_time(d), k.tcu_time(d)));
}

TEST(RunSchedule, MultistreamOverlapsResources)
{
    auto d = DeviceSpec::a100();
    KernelCost cuda_kernel;
    cuda_kernel.cuda_modmul = 1e9;
    KernelCost tcu_kernel;
    tcu_kernel.tcu_fp64_macs = 5e9;
    std::vector<KernelCost> ks = {cuda_kernel, tcu_kernel};

    auto serial = run_schedule(ks, d, SchedulePolicy{false, false});
    auto streamed = run_schedule(ks, d, SchedulePolicy{true, false});
    EXPECT_LT(streamed.seconds, serial.seconds);
    EXPECT_DOUBLE_EQ(serial.bytes, streamed.bytes);
    EXPECT_DOUBLE_EQ(serial.launches, 2);
}

TEST(EventSim, SingleStreamSerializes)
{
    auto d = DeviceSpec::a100();
    EventSimulator sim(d);
    KernelCost k;
    k.cuda_modmul = 1e9;
    std::vector<SimKernel> ks = {{k, 0, {}}, {k, 0, {}}, {k, 0, {}}};
    auto r = sim.run(ks);
    EXPECT_NEAR(r.makespan, 3 * k.time(d), 3 * k.time(d) * 1e-6);
    EXPECT_LT(r.finish[0], r.finish[1]);
    EXPECT_LT(r.finish[1], r.finish[2]);
}

TEST(EventSim, TwoStreamsOverlapDisjointResources)
{
    // A TCU-heavy and a CUDA-heavy kernel on different streams should
    // overlap almost perfectly — the §4.6 multi-stream effect.
    auto d = DeviceSpec::a100();
    EventSimulator sim(d);
    KernelCost cuda;
    cuda.cuda_modmul = 1e9;
    cuda.launches = 0;
    KernelCost tcu;
    tcu.tcu_fp64_macs = 1e9 * d.tcu_fp64_fma_rate() / d.modmul_rate();
    tcu.launches = 0;
    auto r = sim.run({{cuda, 0, {}}, {tcu, 1, {}}});
    const double each = cuda.time(d) - d.kernel_launch_s * 0; // equal
    EXPECT_NEAR(r.makespan, each, each * 0.05);
}

TEST(EventSim, SameResourceKernelsShareRate)
{
    auto d = DeviceSpec::a100();
    EventSimulator sim(d);
    KernelCost k;
    k.cuda_modmul = 1e9;
    k.launches = 0;
    auto r = sim.run({{k, 0, {}}, {k, 1, {}}});
    // Two equal kernels sharing one resource: makespan = 2x one.
    EXPECT_NEAR(r.makespan, 2 * k.cuda_time(d), k.cuda_time(d) * 0.01);
}

TEST(EventSim, DependenciesForceSerialization)
{
    auto d = DeviceSpec::a100();
    EventSimulator sim(d);
    KernelCost cuda;
    cuda.cuda_modmul = 1e9;
    KernelCost tcu;
    tcu.tcu_fp64_macs = 1e9;
    // Same as the overlap test, but stream 1 depends on stream 0.
    auto free_run = sim.run({{cuda, 0, {}}, {tcu, 1, {}}});
    auto chained = sim.run({{cuda, 0, {}}, {tcu, 1, {0}}});
    EXPECT_GT(chained.makespan, free_run.makespan * 1.2);
    EXPECT_NEAR(chained.makespan, cuda.time(d) + tcu.time(d),
                (cuda.time(d) + tcu.time(d)) * 1e-6);
}

TEST(EventSim, BracketsAggregateModel)
{
    // For a mixed kernel set, the fluid makespan must lie between the
    // ideal-overlap bound and the fully serial sum.
    auto d = DeviceSpec::a100();
    EventSimulator sim(d);
    std::vector<SimKernel> ks;
    std::vector<KernelCost> costs;
    for (int i = 0; i < 6; ++i) {
        KernelCost k;
        k.cuda_modmul = (i % 2) ? 4e8 : 1e8;
        k.tcu_fp64_macs = (i % 2) ? 2e8 : 9e8;
        k.bytes_read = 1e8;
        ks.push_back({k, i % 2, {}});
        costs.push_back(k);
    }
    auto fluid = sim.run(ks).makespan;
    auto serial =
        run_schedule(costs, d, SchedulePolicy{false, false}).seconds;
    auto ideal =
        run_schedule(costs, d, SchedulePolicy{true, false}).seconds;
    EXPECT_LE(fluid, serial * 1.0001);
    EXPECT_GE(fluid, ideal * 0.9999);
}

TEST(EventSim, RejectsBadDependencyIndex)
{
    auto d = DeviceSpec::a100();
    EventSimulator sim(d);
    KernelCost k;
    k.cuda_modmul = 1;
    EXPECT_THROW(sim.run({{k, 0, {5}}}), std::invalid_argument);
}

TEST(RunSchedule, EmptyScheduleIsFree)
{
    auto d = DeviceSpec::a100();
    auto r = run_schedule({}, d, SchedulePolicy{true, false});
    EXPECT_DOUBLE_EQ(r.seconds, 0);
    EXPECT_DOUBLE_EQ(r.bytes, 0);
}

} // namespace
} // namespace neo::gpusim
