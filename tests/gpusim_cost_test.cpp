/**
 * Invariants of the roofline cost decomposition (gpusim/kernel_cost):
 * the scalar time() can never disagree with its CostBreakdown, the
 * breakdown obeys the roofline identity, negative work is clamped,
 * and schedule-level composition preserves the same structure.
 */
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/paper_params.h"
#include "gpusim/kernel_cost.h"
#include "neo/kernel_model.h"

using namespace neo;
using gpusim::Bound;
using gpusim::CostBreakdown;
using gpusim::KernelCost;
using gpusim::SchedulePolicy;

namespace {

gpusim::DeviceSpec
dev()
{
    return gpusim::DeviceSpec::a100();
}

KernelCost
sample_kernel(double scale = 1.0)
{
    KernelCost k;
    k.cuda_modmul = 1e6 * scale;
    k.cuda_modadd = 3e5 * scale;
    k.cuda_int_ops = 2e5 * scale;
    k.tcu_fp64_macs = 4e6 * scale;
    k.tcu_int8_macs = 1e5 * scale;
    k.bytes_read = 6e6 * scale;
    k.bytes_written = 2e6 * scale;
    k.launches = 3;
    return k;
}

} // namespace

TEST(CostBreakdown, RooflineIdentityHoldsByConstruction)
{
    const auto d = dev();
    for (double scale : {1e-3, 1.0, 1e3}) {
        for (bool overlap : {false, true}) {
            const CostBreakdown b =
                sample_kernel(scale).breakdown(d, overlap);
            EXPECT_DOUBLE_EQ(b.total_s(),
                             std::max(b.compute_s, b.memory_s) +
                                 b.launch_s);
        }
    }
}

TEST(CostBreakdown, TimeEqualsBreakdownTotal)
{
    const auto d = dev();
    const KernelCost k = sample_kernel();
    EXPECT_DOUBLE_EQ(k.time(d, false), k.breakdown(d, false).total_s());
    EXPECT_DOUBLE_EQ(k.time(d, true), k.breakdown(d, true).total_s());
}

TEST(CostBreakdown, OverlapTakesMaxOfComponentPhases)
{
    const auto d = dev();
    const KernelCost k = sample_kernel();
    const double cuda = k.cuda_time(d);
    const double tcu = k.tcu_time(d);
    EXPECT_DOUBLE_EQ(k.breakdown(d, false).compute_s, cuda + tcu);
    EXPECT_DOUBLE_EQ(k.breakdown(d, true).compute_s,
                     std::max(cuda, tcu));
    EXPECT_LE(k.time(d, true), k.time(d, false));
}

TEST(CostBreakdown, NegativeWorkIsClampedToZero)
{
    const auto d = dev();
    KernelCost k;
    k.cuda_modmul = -1e9;
    k.tcu_fp64_macs = -1e9;
    k.bytes_read = -5;
    k.bytes_written = -7;
    k.launches = -2;
    const CostBreakdown b = k.breakdown(d, false);
    EXPECT_EQ(b.compute_s, 0.0);
    EXPECT_EQ(b.memory_s, 0.0);
    EXPECT_EQ(b.launch_s, 0.0);
    EXPECT_EQ(b.bytes, 0.0);
    EXPECT_EQ(b.macs, 0.0);
    EXPECT_EQ(b.mod_ops, 0.0);
    EXPECT_EQ(b.int_ops, 0.0);
    EXPECT_EQ(b.total_s(), 0.0);
}

TEST(CostBreakdown, BoundClassification)
{
    CostBreakdown b;
    b.compute_s = 2;
    b.memory_s = 1;
    b.launch_s = 0;
    EXPECT_EQ(b.bound(), Bound::compute);

    b.compute_s = 1;
    b.memory_s = 2;
    EXPECT_EQ(b.bound(), Bound::memory);

    b.launch_s = 5; // exceeds both roofline terms
    EXPECT_EQ(b.bound(), Bound::launch);

    b.launch_s = 2; // equal to the roof: roofline term wins
    EXPECT_EQ(b.bound(), Bound::memory);

    b.compute_s = b.memory_s = 1; // tie breaks to compute
    b.launch_s = 0;
    EXPECT_EQ(b.bound(), Bound::compute);
}

TEST(CostBreakdown, BoundNamesAreStable)
{
    EXPECT_STREQ(gpusim::bound_name(Bound::compute), "compute");
    EXPECT_STREQ(gpusim::bound_name(Bound::memory), "memory");
    EXPECT_STREQ(gpusim::bound_name(Bound::launch), "launch");
}

TEST(CostBreakdown, LaunchBoundKernelDetected)
{
    const auto d = dev();
    KernelCost k; // almost no work, one launch
    k.cuda_modadd = 1;
    k.launches = 1;
    const CostBreakdown b = k.breakdown(d, false);
    EXPECT_EQ(b.bound(), Bound::launch);
    EXPECT_GT(b.launch_s, std::max(b.compute_s, b.memory_s));
}

TEST(KernelCostAccumulate, OperatorPlusSumsAllFields)
{
    const KernelCost a = sample_kernel(1.0);
    const KernelCost b = sample_kernel(2.0);
    const KernelCost s = a + b;
    EXPECT_DOUBLE_EQ(s.cuda_modmul, a.cuda_modmul + b.cuda_modmul);
    EXPECT_DOUBLE_EQ(s.tcu_fp64_macs, a.tcu_fp64_macs + b.tcu_fp64_macs);
    EXPECT_DOUBLE_EQ(s.bytes(), a.bytes() + b.bytes());
    EXPECT_DOUBLE_EQ(s.launches, a.launches + b.launches);
}

TEST(RunSchedule, SerialSecondsAreSumOfPerKernelTimes)
{
    const auto d = dev();
    std::vector<KernelCost> ks = {sample_kernel(1), sample_kernel(2),
                                  sample_kernel(0.5)};
    const auto r =
        gpusim::run_schedule(ks, d, SchedulePolicy{false, false});
    double expect = 0, bytes = 0, launches = 0;
    for (const auto &k : ks) {
        expect += k.time(d, false);
        bytes += k.bytes();
        launches += k.launches;
    }
    EXPECT_DOUBLE_EQ(r.seconds, expect);
    EXPECT_DOUBLE_EQ(r.bytes, bytes);
    EXPECT_DOUBLE_EQ(r.launches, launches);
    // Serial: sum-of-max >= max-of-sum, so the phase fields only bound
    // seconds from below.
    EXPECT_GE(r.seconds,
              std::max(r.compute_s, r.memory_s) + r.launch_s - 1e-15);
}

TEST(RunSchedule, MultistreamObeysScheduleLevelRoofline)
{
    const auto d = dev();
    std::vector<KernelCost> ks = {sample_kernel(1), sample_kernel(3)};
    const auto r =
        gpusim::run_schedule(ks, d, SchedulePolicy{true, false});
    EXPECT_DOUBLE_EQ(r.seconds,
                     std::max(r.compute_s, r.memory_s) + r.launch_s);
    // Launch overhead is amortised across the two streams.
    EXPECT_DOUBLE_EQ(r.launch_s, r.launches * d.kernel_launch_s * 0.5);
    // Overlap can only help.
    const auto serial =
        gpusim::run_schedule(ks, d, SchedulePolicy{false, false});
    EXPECT_LE(r.seconds, serial.seconds);
}

TEST(RunSchedule, EmptyScheduleIsFree)
{
    const auto d = dev();
    for (bool ms : {false, true}) {
        const auto r =
            gpusim::run_schedule({}, d, SchedulePolicy{ms, false});
        EXPECT_EQ(r.seconds, 0.0);
        EXPECT_EQ(r.bytes, 0.0);
        EXPECT_EQ(r.launches, 0.0);
    }
}

TEST(RunSchedule, ScheduleBoundMatchesBreakdownRule)
{
    const auto d = dev();
    std::vector<KernelCost> ks = {sample_kernel(1)};
    const auto r =
        gpusim::run_schedule(ks, d, SchedulePolicy{true, false});
    CostBreakdown b;
    b.compute_s = r.compute_s;
    b.memory_s = r.memory_s;
    b.launch_s = r.launch_s;
    EXPECT_EQ(r.bound(), b.bound());
}

// ---------------------------------------------------------------------
// Graph capture: closed-form launch model and schedule composition
// ---------------------------------------------------------------------

TEST(GraphCapture, LaunchCostMatchesClosedForm)
{
    const auto d = dev();
    for (double n : {1.0, 3.0, 12.0, 100.0, 1e4}) {
        EXPECT_DOUBLE_EQ(d.graph_launch_s(n),
                         d.graph_replay_s +
                             n * d.graph_capture_per_kernel_s /
                                 d.graph_amortize_replays);
        // Strictly cheaper than per-kernel dispatch for every n >= 1 —
        // under serial launches AND under the multistream 0.5x
        // amortization — so graph capture can never hurt a schedule.
        EXPECT_LT(d.graph_launch_s(n), n * d.kernel_launch_s);
        EXPECT_LT(d.graph_launch_s(n), n * d.kernel_launch_s * 0.5);
    }
}

TEST(GraphCapture, OneTimeCaptureIsAmortizedAcrossReplays)
{
    auto d = dev();
    const double n = 12;
    // The per-replay cost splits into a fixed replay dispatch and the
    // capture cost spread over graph_amortize_replays reuses; doubling
    // the reuse count halves the capture share and leaves the replay
    // term alone.
    auto d2 = d;
    d2.graph_amortize_replays *= 2;
    EXPECT_DOUBLE_EQ(d2.graph_launch_s(n) - d2.graph_replay_s,
                     (d.graph_launch_s(n) - d.graph_replay_s) / 2);
    EXPECT_DOUBLE_EQ(d2.graph_launch_s(0), d2.graph_replay_s);
}

TEST(GraphCapture, ReplayCollapsesScheduleToOneLaunch)
{
    const auto d = dev();
    std::vector<KernelCost> ks = {sample_kernel(1), sample_kernel(2),
                                  sample_kernel(0.5)};
    for (bool ms : {false, true}) {
        SCOPED_TRACE(ms ? "multistream" : "serial");
        const auto base =
            gpusim::run_schedule(ks, d, gpusim::SchedulePolicy{ms, false});
        const auto r =
            gpusim::run_schedule(ks, d, gpusim::SchedulePolicy{ms, true});
        EXPECT_DOUBLE_EQ(r.launches, 1.0);
        EXPECT_DOUBLE_EQ(r.graph_launches, 1.0);
        EXPECT_DOUBLE_EQ(r.captured_launches, base.launches);
        EXPECT_DOUBLE_EQ(r.launch_s, d.graph_launch_s(base.launches));
        // Only the launch term changes: compute/memory phases and
        // bytes are the same kernels either way.
        EXPECT_DOUBLE_EQ(r.compute_s, base.compute_s);
        EXPECT_DOUBLE_EQ(r.memory_s, base.memory_s);
        EXPECT_DOUBLE_EQ(r.bytes, base.bytes);
        EXPECT_DOUBLE_EQ(r.seconds,
                         base.seconds - base.launch_s + r.launch_s);
        EXPECT_LT(r.seconds, base.seconds);
    }
}

TEST(GraphCapture, EmptyScheduleCapturesNothing)
{
    const auto d = dev();
    for (bool ms : {false, true}) {
        const auto r = gpusim::run_schedule(
            {}, d, gpusim::SchedulePolicy{ms, true});
        EXPECT_EQ(r.seconds, 0.0);
        EXPECT_EQ(r.launches, 0.0);
        EXPECT_EQ(r.graph_launches, 0.0);
        EXPECT_EQ(r.captured_launches, 0.0);
    }
}

TEST(GraphCapture, MonotoneOverTable7KernelMixes)
{
    // Graph-on <= graph-off for every Table 7 operation's kernel mix,
    // under both scheduling modes — capture is a pure launch-side
    // optimization and must never regress a schedule.
    const auto params = ckks::paper_set('C');
    const model::ModelConfig cfg; // Neo defaults, graph decided below
    const model::KernelModel m(params, cfg);
    const auto named_costs = [](const auto &named) {
        std::vector<KernelCost> out;
        for (const auto &nk : named)
            out.push_back(nk.cost);
        return out;
    };
    for (size_t level : {params.max_level, size_t{20}, size_t{5}}) {
        const std::vector<std::vector<KernelCost>> mixes = {
            named_costs(m.kernels(model::Op::keyswitch, level)),
            named_costs(m.kernels(model::Op::hmult, level)),
            named_costs(m.kernels(model::Op::hrotate, level)),
        };
        for (size_t i = 0; i < mixes.size(); ++i) {
            for (bool ms : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "mix=" << i << " level=" << level
                             << " ms=" << ms);
                const auto off = gpusim::run_schedule(
                    mixes[i], cfg.device,
                    gpusim::SchedulePolicy{ms, false});
                const auto on = gpusim::run_schedule(
                    mixes[i], cfg.device,
                    gpusim::SchedulePolicy{ms, true});
                EXPECT_LE(on.seconds, off.seconds);
                EXPECT_DOUBLE_EQ(on.launches, 1.0);
                EXPECT_GT(off.launches, 1.0);
            }
        }
    }
}
