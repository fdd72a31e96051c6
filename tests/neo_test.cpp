#include <gtest/gtest.h>

#include "baselines/backends.h"
#include "common/random.h"
#include "neo/engine.h"
#include "neo/kernel_model.h"
#include "neo/kernels.h"
#include "rns/primes.h"

namespace neo {
namespace {

using model::Op;

class BConvKernelTest : public ::testing::TestWithParam<
                            std::tuple<size_t, size_t, size_t, size_t>>
{
};

TEST_P(BConvKernelTest, MatmulFormMatchesElementwise)
{
    const auto [a, ap, batch, n] = GetParam();
    auto p1 = generate_ntt_primes(36, static_cast<int>(a), 1 << 10);
    auto p2 = generate_ntt_primes(48, static_cast<int>(ap), 1 << 10);
    RnsBasis from(p1), to(p2);
    BConvKernel kernel(from, to);

    Rng rng(a * 100 + ap);
    std::vector<u64> in(a * batch * n);
    for (size_t i = 0; i < a; ++i)
        for (size_t x = 0; x < batch * n; ++x)
            in[i * batch * n + x] = rng.uniform(p1[i]);

    std::vector<u64> out_ew(ap * batch * n), out_mm(ap * batch * n);
    kernel.run_elementwise(in.data(), batch, n, out_ew.data());
    kernel.run_matmul(in.data(), batch, n, out_mm.data(),
                      EngineRegistry::engines(EngineId::scalar).per_column);
    EXPECT_EQ(out_ew, out_mm);

    // And through the emulated FP64 TCU.
    std::vector<u64> out_tcu(ap * batch * n);
    kernel.run_matmul(in.data(), batch, n, out_tcu.data(),
                      EngineRegistry::engines(EngineId::fp64_tcu).per_column);
    EXPECT_EQ(out_ew, out_tcu);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BConvKernelTest,
    ::testing::Values(std::make_tuple(4, 8, 2, 32),  // paper defaults
                      std::make_tuple(3, 5, 1, 16),
                      std::make_tuple(1, 4, 3, 8),
                      std::make_tuple(6, 2, 2, 64)));

TEST(BConvKernel, MatchesBaseConverterApprox)
{
    // The element-wise kernel is Algorithm 1, which is fast base
    // conversion; it must agree with BaseConverter::convert_approx.
    auto p1 = generate_ntt_primes(36, 3, 1 << 10);
    auto p2 = generate_ntt_primes(48, 4, 1 << 10);
    RnsBasis from(p1), to(p2);
    BConvKernel kernel(from, to);
    BaseConverter conv(from, to);

    const size_t n = 32;
    Rng rng(5);
    std::vector<u64> in(3 * n);
    for (size_t i = 0; i < 3; ++i)
        for (size_t l = 0; l < n; ++l)
            in[i * n + l] = rng.uniform(p1[i]);
    std::vector<u64> got(4 * n), want(4 * n);
    kernel.run_elementwise(in.data(), 1, n, got.data());
    conv.convert_approx(in.data(), n, want.data());
    EXPECT_EQ(got, want);
}

class IpKernelTest : public ::testing::TestWithParam<
                         std::tuple<size_t, size_t, size_t, size_t>>
{
};

TEST_P(IpKernelTest, MatmulFormMatchesElementwise)
{
    const auto [beta, beta_tilde, ap, batch] = GetParam();
    const size_t n = 16;
    auto t_primes = generate_ntt_primes(48, static_cast<int>(ap), 1 << 10);
    std::vector<Modulus> t_mods(t_primes.begin(), t_primes.end());
    IpKernel kernel(t_mods, beta, beta_tilde);

    Rng rng(beta * 10 + beta_tilde);
    std::vector<u64> limbs(beta * ap * batch * n);
    for (size_t j = 0; j < beta; ++j)
        for (size_t k = 0; k < ap; ++k)
            for (size_t x = 0; x < batch * n; ++x)
                limbs[((j * ap + k) * batch) * n + x] =
                    rng.uniform(t_primes[k]);
    std::vector<u64> keys(beta_tilde * beta * ap * n);
    for (size_t i = 0; i < beta_tilde; ++i)
        for (size_t j = 0; j < beta; ++j)
            for (size_t k = 0; k < ap; ++k)
                for (size_t l = 0; l < n; ++l)
                    keys[((i * beta + j) * ap + k) * n + l] =
                        rng.uniform(t_primes[k]);

    std::vector<u64> out_ew(beta_tilde * ap * batch * n);
    std::vector<u64> out_mm(out_ew.size());
    kernel.run_elementwise(limbs.data(), keys.data(), batch, n,
                           out_ew.data());
    kernel.run_matmul(limbs.data(), keys.data(), batch, n, out_mm.data(),
                      EngineRegistry::engines(EngineId::scalar).per_site);
    EXPECT_EQ(out_ew, out_mm);

    std::vector<u64> out_tcu(out_ew.size());
    kernel.run_matmul(limbs.data(), keys.data(), batch, n, out_tcu.data(),
                      EngineRegistry::engines(EngineId::fp64_tcu).per_site);
    EXPECT_EQ(out_ew, out_tcu);

    std::vector<u64> out_i8(out_ew.size());
    kernel.run_matmul(limbs.data(), keys.data(), batch, n, out_i8.data(),
                      EngineRegistry::engines(EngineId::int8_tcu).per_site);
    EXPECT_EQ(out_ew, out_i8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IpKernelTest,
    ::testing::Values(std::make_tuple(3, 5, 2, 2),
                      std::make_tuple(9, 8, 3, 4), // Set-C-like ratios
                      std::make_tuple(1, 1, 1, 1),
                      std::make_tuple(2, 7, 2, 8)));

// ---------------------------------------------------------------------
// Performance-model structural checks.
// ---------------------------------------------------------------------

model::KernelModel
make_model(bool klss = true)
{
    ckks::CkksParams p;
    p.n = 1 << 16;
    p.max_level = 35;
    p.word_size = 36;
    p.d_num = 9;
    p.klss.word_size_t = 48;
    p.klss.alpha_tilde = 5;
    p.batch = 128;
    model::ModelConfig cfg;
    cfg.use_klss = klss;
    return model::KernelModel(p, cfg);
}

TEST(KernelModel, MatmulDataflowReducesBconvTraffic)
{
    auto m = make_model();
    auto cfg_ew = m.config();
    cfg_ew.matmul_dataflow = false;
    model::KernelModel ew(m.params(), cfg_ew);
    // Optimized BConv reads each input once instead of α' times.
    EXPECT_LT(m.bconv(4, 8, 36, 48).bytes(),
              ew.bconv(4, 8, 36, 48).bytes() / 3);
}

TEST(KernelModel, MatmulDataflowReducesIpTraffic)
{
    auto m = make_model();
    auto cfg_ew = m.config();
    cfg_ew.matmul_dataflow = false;
    model::KernelModel ew(m.params(), cfg_ew);
    EXPECT_LT(m.ip(9, 8, 8, 48).bytes(), ew.ip(9, 8, 8, 48).bytes() / 2);
}

TEST(KernelModel, Radix16NttFasterThanFourStep)
{
    auto m = make_model();
    auto cfg4 = m.config();
    cfg4.radix16_ntt = false;
    model::KernelModel four(m.params(), cfg4);
    const auto &dev = m.config().device;
    EXPECT_LT(m.ntt(36, 36).time(dev), four.ntt(36, 36).time(dev));
}

TEST(KernelModel, Fp64TcuBeatsCudaCoresOnNttMatmuls)
{
    auto m = make_model();
    auto cfg_cuda = m.config();
    cfg_cuda.policy.engine = EngineId::scalar;
    model::KernelModel cuda(m.params(), cfg_cuda);
    const auto &dev = m.config().device;
    EXPECT_LT(m.ntt(36, 36).time(dev), cuda.ntt(36, 36).time(dev));
}

TEST(KernelModel, KlssKeySwitchFasterThanHybridAtSameParams)
{
    // The Fig 16 headline: KLSS at WordSize_T = 48 beats Hybrid with
    // everything else fixed.
    auto klss = make_model(true);
    auto hybrid = make_model(false);
    EXPECT_LT(klss.time(Op::keyswitch, 35),
              hybrid.time(Op::keyswitch, 35));
}

TEST(KernelModel, KeySwitchDominatesHmult)
{
    auto m = make_model();
    EXPECT_GT(m.time(Op::keyswitch, 35) / m.time(Op::hmult, 35), 0.8);
}

TEST(KernelModel, OpTimesScaleWithLevel)
{
    auto m = make_model();
    EXPECT_LT(m.time(Op::hmult, 11), m.time(Op::hmult, 35));
    EXPECT_LT(m.time(Op::hrotate, 11), m.time(Op::hrotate, 35));
    EXPECT_LT(m.time(Op::rescale, 11), m.time(Op::rescale, 35));
}

TEST(KernelModel, IpEngineGateFollowsValidProportion)
{
    auto m = make_model();
    // The §4.5.3 rule: TCU only when valid proportion > 80%.
    for (size_t level : {35u, 23u, 11u, 5u}) {
        const double valid = gpusim::TcuModel::valid_proportion_fp64(
            m.params().batch, m.params().beta_tilde(level),
            m.params().beta(level));
        const auto engine = m.ip_engine(level);
        if (valid > 0.8) {
            EXPECT_EQ(engine, EngineId::fp64_tcu);
        } else {
            EXPECT_EQ(engine, EngineId::scalar);
        }
    }
}

TEST(KernelModel, TrafficSplitsSumToTotal)
{
    auto m = make_model();
    auto t = m.keyswitch_traffic(35);
    EXPECT_GT(t.bconv, 0);
    EXPECT_GT(t.ip, 0);
    EXPECT_GT(t.ntt, 0);
    EXPECT_NEAR(t.total(), t.bconv + t.ip + t.ntt + t.other, 1.0);
}

TEST(KernelModel, MultistreamNeverSlower)
{
    auto m = make_model();
    auto cfg_serial = m.config();
    cfg_serial.multistream = false;
    model::KernelModel serial(m.params(), cfg_serial);
    EXPECT_LE(m.time(Op::keyswitch, 35),
              serial.time(Op::keyswitch, 35) * 1.001);
}

TEST(KernelModel, HoistedRotationsCheaperThanIndividual)
{
    auto m = make_model(false); // hybrid path hoists
    const double individual = 16 * m.time(Op::hrotate, 35);
    const double hoisted = m.hrotate_hoisted_time(35, 16);
    EXPECT_LT(hoisted, individual);
    // One rotation gains nothing (same kernel sequence).
    EXPECT_NEAR(m.hrotate_hoisted_time(35, 1), m.time(Op::hrotate, 35),
                m.time(Op::hrotate, 35) * 0.2);
    EXPECT_THROW(m.hrotate_hoisted_time(35, 0), std::invalid_argument);
}

TEST(KernelModel, FusionReducesLaunchesAndTraffic)
{
    auto m = make_model();
    auto cfg_nf = m.config();
    cfg_nf.kernel_fusion = false;
    model::KernelModel nf(m.params(), cfg_nf);
    EXPECT_LT(m.bconv(4, 8, 36, 48).launches,
              nf.bconv(4, 8, 36, 48).launches);
    EXPECT_LT(m.bconv(4, 8, 36, 48).bytes(), nf.bconv(4, 8, 36, 48).bytes());
}

TEST(KernelModel, OperationTimeIsItsAttributedTotal)
{
    // time() and run_attributed() schedule the one kernel list of an
    // operation the same way, so the price neo-prof attributes is the
    // price the apps schedules and the tuner sum, bit for bit.
    std::vector<baselines::Backend> backends = {
        baselines::make_neo('C'), baselines::make_neo('C'),
        baselines::make_tensorfhe('A'), baselines::make_heongpu(),
        baselines::make_cpu()};
    backends[1].name += " (fused, graph)";
    backends[1].cfg.policy.fuse = true;
    backends[1].cfg.policy.graph = true;
    const auto same_cost = [](const gpusim::KernelCost &a,
                              const gpusim::KernelCost &b) {
        return a.cuda_modmul == b.cuda_modmul &&
               a.cuda_modadd == b.cuda_modadd &&
               a.cuda_int_ops == b.cuda_int_ops &&
               a.tcu_fp64_macs == b.tcu_fp64_macs &&
               a.tcu_int8_macs == b.tcu_int8_macs &&
               a.bytes_read == b.bytes_read &&
               a.bytes_written == b.bytes_written &&
               a.launches == b.launches;
    };
    for (const auto &b : backends) {
        const auto m = b.model();
        const size_t top = b.params.max_level;
        for (const size_t level : {top, top / 2, size_t{2}}) {
            SCOPED_TRACE(::testing::Message()
                         << b.name << " level " << level);
            for (const Op op :
                 {Op::keyswitch, Op::hmult, Op::hrotate, Op::pmult,
                  Op::hadd, Op::padd, Op::rescale, Op::double_rescale})
                EXPECT_EQ(m.time(op, level),
                          m.run_attributed(m.kernels(op, level)).seconds)
                    << "op " << static_cast<int>(op);
            const auto ks = m.kernels(Op::keyswitch, level);
            const auto named = m.keyswitch_kernels_named(level);
            ASSERT_EQ(ks.size(), named.size());
            for (size_t i = 0; i < ks.size(); ++i) {
                EXPECT_STREQ(ks[i].name, named[i].name);
                EXPECT_TRUE(same_cost(ks[i].cost, named[i].cost));
                EXPECT_EQ(ks[i].fused, named[i].fused);
            }
        }
    }
}

} // namespace
} // namespace neo
