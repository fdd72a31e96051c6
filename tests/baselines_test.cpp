#include <gtest/gtest.h>

#include "apps/schedules.h"
#include "baselines/backends.h"

namespace neo::baselines {
namespace {

using model::Op;

TEST(PaperParams, Table4Derivations)
{
    auto a = ckks::paper_set('A');
    EXPECT_EQ(a.alpha(), 36u);
    EXPECT_EQ(a.beta(35), 1u);
    auto c = ckks::paper_set('C');
    EXPECT_EQ(c.alpha(), 4u);
    EXPECT_EQ(c.beta(35), 9u);
    EXPECT_EQ(c.beta_tilde(35), 8u);
    EXPECT_EQ(c.klss_alpha_prime(), 8u);
    auto e = ckks::paper_set('E');
    EXPECT_EQ(e.batch, 1u);
    EXPECT_FALSE(e.klss.enabled());
    auto h = ckks::paper_set('H');
    EXPECT_EQ(h.max_level, 44u);
    EXPECT_THROW(ckks::paper_set('Z'), std::invalid_argument);
}

TEST(Backends, OperationOrderingMatchesTable6)
{
    // Table 6 at l = 35 (per batched op): Neo < HEonGPU < TensorFHE.
    auto neo = make_neo('C').model();
    auto heon = make_heongpu().model();
    auto tfhe_a = make_tensorfhe('A').model();
    auto tfhe_c = make_tensorfhe('C').model();
    auto cpu = make_cpu().model();

    const double t_neo = neo.time(Op::hmult, 35);
    const double t_heon = heon.time(Op::hmult, 35);
    const double t_tfhe = tfhe_a.time(Op::hmult, 35);
    EXPECT_LT(t_neo, t_heon);
    EXPECT_LT(t_heon, t_tfhe);
    EXPECT_LT(t_tfhe, cpu.time(Op::hmult, 44));

    // TensorFHE degrades from Set-A to Set-C (larger d_num), as in
    // Table 6's 15.3 -> 32.5 ms progression.
    EXPECT_LT(tfhe_a.time(Op::hmult, 35), tfhe_c.time(Op::hmult, 35));

    // Magnitudes within 3x of the published values (3472 us / 8172 us
    // / 15304 us — our substrate is a model, shapes matter).
    EXPECT_GT(t_neo, 3472e-6 / 3);
    EXPECT_LT(t_neo, 3472e-6 * 3);
    EXPECT_GT(t_heon, 8172e-6 / 3);
    EXPECT_LT(t_heon, 8172e-6 * 3);
}

TEST(Backends, NeoSpeedupOverTensorFheInPaperRange)
{
    // The headline: 3.28x over TensorFHE's best configuration (ours
    // lands in the 2x-8x band; who wins is the invariant).
    auto neo = make_neo('C').model();
    double best_tfhe = 1e9;
    for (char set : {'A', 'B', 'C'}) {
        best_tfhe =
            std::min(best_tfhe,
                     make_tensorfhe(set).model().time(Op::hmult, 35));
    }
    const double speedup = best_tfhe / neo.time(Op::hmult, 35);
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 16.0);
}

TEST(Backends, AblationLadderIsMonotone)
{
    // Fig 14: every optimization rung lowers application time. The
    // ladder extends past the paper's axes with the elementwise
    // fusion and graph-capture rungs (PR 6).
    auto ladder = ablation_ladder();
    ASSERT_EQ(ladder.size(), 7u);
    double prev = 1e18;
    for (const auto &rung : ladder) {
        auto m = rung.model();
        auto sched = apps::resnet(rung.params, 20);
        double t = apps::run_schedule(sched, m);
        EXPECT_LT(t, prev) << rung.name;
        prev = t;
    }
}

TEST(Backends, CpuDeviceHasNoTensorCores)
{
    auto cpu = cpu_device();
    EXPECT_EQ(cpu.fp64_tcu_flops, 0);
    EXPECT_EQ(cpu.int8_tcu_ops, 0);
    EXPECT_LT(cpu.int32_cuda_ops, 1e12);
}

} // namespace
} // namespace neo::baselines

namespace neo::apps {
namespace {

using model::Op;

TEST(Schedules, BootstrapShape)
{
    auto p = ckks::paper_set('C');
    auto s = pack_bootstrap(p);
    // 6 BSGS stages with 16 rotations each, plus one conjugation.
    EXPECT_DOUBLE_EQ(s.total(Op::hrotate), 97);
    EXPECT_DOUBLE_EQ(s.total(Op::hmult), 12);
    EXPECT_GT(s.total(Op::pmult), 300);
    // DS appears when WordSize < 40 (§2.1: essential below 36 bits).
    EXPECT_GT(s.total(Op::double_rescale), 0);
    auto p60 = ckks::paper_set('E');
    EXPECT_DOUBLE_EQ(pack_bootstrap(p60).total(Op::double_rescale), 0);
}

TEST(Schedules, ResNetScalesLinearlyInLayers)
{
    auto p = ckks::paper_set('C');
    auto m = baselines::make_neo('C').model();
    const double t20 = run_schedule(resnet(p, 20), m);
    const double t32 = run_schedule(resnet(p, 32), m);
    const double t56 = run_schedule(resnet(p, 56), m);
    EXPECT_LT(t20, t32);
    EXPECT_LT(t32, t56);
    // Table 5 ratios: 20:32:56 are close to linear (1 : 1.63 : 2.91
    // for Neo).
    EXPECT_NEAR(t32 / t20, 1.6, 0.25);
    EXPECT_NEAR(t56 / t20, 2.9, 0.45);
    EXPECT_THROW(resnet(p, 18), std::invalid_argument);
}

TEST(Schedules, HelrembedsOneBootstrap)
{
    auto p = ckks::paper_set('C');
    auto s = helr_iteration(p);
    EXPECT_DOUBLE_EQ(s.bootstraps, 1);
    EXPECT_GT(s.total(Op::hrotate), 10);
    auto m = baselines::make_neo('C').model();
    // HELR > bare bootstrap, < 2x bootstrap (Table 5: 0.22 vs 0.24 —
    // the iteration is bootstrap-dominated).
    const double t_boot = run_schedule(pack_bootstrap(p), m);
    const double t_helr = run_schedule(s, m);
    EXPECT_GT(t_helr, t_boot);
    EXPECT_LT(t_helr, 2 * t_boot);
}

TEST(Schedules, ApplicationOrderingMatchesTable5)
{
    // PackBootstrap: Neo < HEonGPU < TensorFHE (0.24 / 0.36 / 0.74 s).
    auto neo = baselines::make_neo('C');
    auto heon = baselines::make_heongpu();
    auto tfhe = baselines::make_tensorfhe('B');
    const double t_neo =
        run_schedule(pack_bootstrap(neo.params), neo.model());
    const double t_heon =
        run_schedule(pack_bootstrap(heon.params), heon.model());
    const double t_tfhe =
        run_schedule(pack_bootstrap(tfhe.params), tfhe.model());
    EXPECT_LT(t_neo, t_heon);
    EXPECT_LT(t_heon, t_tfhe);
    // Bands: within 3x of the published seconds.
    EXPECT_GT(t_neo, 0.24 / 3);
    EXPECT_LT(t_neo, 0.24 * 3);
    EXPECT_GT(t_tfhe, 0.74 / 3);
    EXPECT_LT(t_tfhe, 0.74 * 3);
}

TEST(Schedules, SsVariantsAreFasterPerOpThanFullDepth)
{
    // Set-G (L = 23) costs less per bootstrap than Set-C (L = 35),
    // mirroring Neo_SS's 0.17 s vs Neo's 0.24 s.
    auto ss = baselines::make_neo_ss();
    auto full = baselines::make_neo('C');
    const double t_ss = run_schedule(pack_bootstrap(ss.params), ss.model());
    const double t_full =
        run_schedule(pack_bootstrap(full.params), full.model());
    EXPECT_LT(t_ss, t_full);
}

} // namespace
} // namespace neo::apps
