/**
 * Kernel fusion — differential correctness suite (ctest label
 * `fusion`).
 *
 * The fused keyswitch pipeline (PR 6) folds the NTT twiddle-scale
 * passes into the matrix-NTT gathers/writebacks and the ModDown
 * scalar fix into its BConv epilogue. Fusion is a pure re-assignment
 * of element-wise work to neighbouring kernels: it must never change
 * a single output bit. These tests pin that down four ways:
 *
 *   1. keyswitch_klss_pipeline with fuse on is bit-identical to the
 *      unfused pipeline and to the reference ckks::keyswitch_klss
 *      across 21 (level, d_num, engine) configurations at every
 *      ISA level;
 *   2. the same holds under 1 / 2 / 7 / 16 worker threads;
 *   3. the obs counters prove the element-wise passes really moved:
 *      a fused run records only "fuse.*" counters (and fewer stage
 *      spans), an unfused run only "pass.*", while the per-category
 *      span totals for ntt / bconv / gemm / ip are identical;
 *   4. the cost model agrees: with ExecPolicy::fuse the keyswitch
 *      schedule has fewer kernels and launches, and with
 *      ExecPolicy::graph on top the whole DAG replays with one launch.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "ckks/paper_params.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "neo/kernel_model.h"
#include "neo/pipeline.h"
#include "obs/obs.h"
#include "tensor/gemm.h"

#include "isa_sweep.h"

namespace neo {
namespace {

using namespace ckks;

bool
poly_eq(const RnsPoly &a, const RnsPoly &b)
{
    if (a.n() != b.n() || a.limbs() != b.limbs())
        return false;
    for (size_t i = 0; i < a.limbs(); ++i)
        if (!std::equal(a.limb(i), a.limb(i) + a.n(), b.limb(i)))
            return false;
    return true;
}

RnsPoly
random_eval_poly(const CkksContext &ctx, size_t level, u64 seed)
{
    Rng rng(seed);
    RnsPoly p(ctx.n(), ctx.active_mods(level), PolyForm::eval);
    for (size_t i = 0; i < p.limbs(); ++i)
        for (size_t l = 0; l < p.n(); ++l)
            p.limb(i)[l] = rng.uniform(p.modulus(i).value());
    return p;
}

/// One parameter set with its context and KLSS relinearization key.
struct ParamSet
{
    ParamSet(size_t levels, size_t d_num, u64 seed)
        : params(CkksParams::test_params(256, levels, d_num)),
          ctx(params), keygen(ctx, seed), sk(keygen.secret_key()),
          klss_rlk(keygen.to_klss(keygen.relin_key(sk)))
    {
    }

    CkksParams params;
    CkksContext ctx;
    KeyGenerator keygen;
    SecretKey sk;
    KlssEvalKey klss_rlk;
};

/// One keyswitch configuration of the differential sweep.
struct Config
{
    ParamSet *set;
    size_t level;
    const char *engine;
};

struct Fusion : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        set_a_ = new ParamSet(5, 2, 303);
        set_b_ = new ParamSet(4, 4, 404);
    }

    static void
    TearDownTestSuite()
    {
        delete set_b_;
        delete set_a_;
        set_a_ = nullptr;
        set_b_ = nullptr;
    }

    /// 21 (level, d_num, engine) configurations: 2 parameter sets ×
    /// {4, 3} levels × 3 GEMM engines.
    static std::vector<Config>
    configs()
    {
        std::vector<Config> out;
        for (size_t level : {5u, 4u, 3u, 2u})
            for (const char *eng : {"scalar", "fp64_tcu", "int8_tcu"})
                out.push_back({set_a_, level, eng});
        for (size_t level : {4u, 3u, 1u})
            for (const char *eng : {"scalar", "fp64_tcu", "int8_tcu"})
                out.push_back({set_b_, level, eng});
        return out;
    }

    static ParamSet *set_a_;
    static ParamSet *set_b_;
};

ParamSet *Fusion::set_a_ = nullptr;
ParamSet *Fusion::set_b_ = nullptr;

// ---------------------------------------------------------------------
// Differential: fused vs unfused vs reference
// ---------------------------------------------------------------------

TEST_F(Fusion, FusedKeyswitchBitIdenticalAcrossConfigs)
{
    const auto cfgs = configs();
    ASSERT_GE(cfgs.size(), 20u);
    // At every ISA level the host supports.
    for_each_isa([&] {
        for (const auto &cfg : cfgs) {
            SCOPED_TRACE(::testing::Message()
                         << cfg.engine << " d_num="
                         << cfg.set->params.d_num << " level=" << cfg.level);
            const EngineId engine = EngineRegistry::parse(cfg.engine);
            RnsPoly d2 = random_eval_poly(cfg.set->ctx, cfg.level,
                                          5000 + cfg.level);
            const auto ref =
                keyswitch_klss(d2, cfg.set->klss_rlk, cfg.set->ctx);
            const auto unfused = keyswitch_klss_pipeline(
                d2, cfg.set->klss_rlk, cfg.set->ctx,
                ExecPolicy::fixed(engine, /*fuse=*/false));
            const auto fused = keyswitch_klss_pipeline(
                d2, cfg.set->klss_rlk, cfg.set->ctx,
                ExecPolicy::fixed(engine, /*fuse=*/true));
            EXPECT_TRUE(poly_eq(unfused.first, ref.first));
            EXPECT_TRUE(poly_eq(unfused.second, ref.second));
            EXPECT_TRUE(poly_eq(fused.first, ref.first));
            EXPECT_TRUE(poly_eq(fused.second, ref.second));
            EXPECT_TRUE(poly_eq(fused.first, unfused.first));
            EXPECT_TRUE(poly_eq(fused.second, unfused.second));
        }
    });
}

TEST_F(Fusion, FusedBitExactAcrossThreadCounts)
{
    const auto cfgs = configs();
    // References once, at the default thread count.
    std::vector<std::pair<RnsPoly, RnsPoly>> refs;
    std::vector<RnsPoly> inputs;
    for (const auto &cfg : cfgs) {
        inputs.push_back(random_eval_poly(cfg.set->ctx, cfg.level,
                                          6000 + cfg.level));
        refs.push_back(keyswitch_klss(inputs.back(), cfg.set->klss_rlk,
                                      cfg.set->ctx));
    }
    for (size_t threads : {1u, 2u, 7u, 16u}) {
        ThreadPool::set_global_threads(threads);
        for (size_t i = 0; i < cfgs.size(); ++i) {
            const auto &cfg = cfgs[i];
            SCOPED_TRACE(::testing::Message()
                         << cfg.engine << " d_num="
                         << cfg.set->params.d_num << " level="
                         << cfg.level << " threads=" << threads);
            const auto got = keyswitch_klss_pipeline(
                inputs[i], cfg.set->klss_rlk, cfg.set->ctx,
                ExecPolicy::fixed(EngineRegistry::parse(cfg.engine),
                                  /*fuse=*/true));
            EXPECT_TRUE(poly_eq(got.first, refs[i].first));
            EXPECT_TRUE(poly_eq(got.second, refs[i].second));
        }
    }
    ThreadPool::set_global_threads(0); // back to NEO_NUM_THREADS
}

// ---------------------------------------------------------------------
// Counters: the element-wise passes really moved into neighbours
// ---------------------------------------------------------------------

TEST_F(Fusion, CountersProveEliminatedElementwisePasses)
{
    auto &s = *set_a_;
    const size_t level = s.ctx.max_level();
    RnsPoly d2 = random_eval_poly(s.ctx, level, 7001);

    std::map<std::string, u64, std::less<>> unfused;
    {
        obs::Scope scope;
        (void)keyswitch_klss_pipeline(
            d2, s.klss_rlk, s.ctx,
            ExecPolicy::fixed(EngineId::fp64_tcu, /*fuse=*/false));
        unfused = scope.registry().counters();
    }
    obs::Scope scope;
    (void)keyswitch_klss_pipeline(
        d2, s.klss_rlk, s.ctx,
        ExecPolicy::fixed(EngineId::fp64_tcu, /*fuse=*/true));
    const auto fused = scope.registry().counters();

    auto get = [](const auto &m, const char *k) -> u64 {
        auto it = m.find(k);
        return it == m.end() ? 0 : it->second;
    };

    // Unfused: standalone passes only. Two ModDown fixes (one per
    // ciphertext component) and one twiddle pass per MatrixNtt call.
    EXPECT_EQ(get(unfused, "pass.moddown_fix"), 2u);
    EXPECT_GT(get(unfused, "pass.ntt_twist"), 0u);
    EXPECT_EQ(get(unfused, "fuse.moddown_fix"), 0u);
    EXPECT_EQ(get(unfused, "fuse.ntt_twist"), 0u);

    // Fused: the same element-wise work rides in the neighbours —
    // every pass the unfused run launched is accounted as folded.
    EXPECT_EQ(get(fused, "fuse.moddown_fix"), 2u);
    EXPECT_EQ(get(fused, "fuse.ntt_twist"),
              get(unfused, "pass.ntt_twist"));
    EXPECT_EQ(get(fused, "pass.moddown_fix"), 0u);
    EXPECT_EQ(get(fused, "pass.ntt_twist"), 0u);

    // The fused run issues fewer kernel spans: each eliminated pass
    // was a `stage` span (ntt_twist per transform + moddown_fix × 2).
    const u64 eliminated = get(unfused, "pass.ntt_twist") + 2;
    EXPECT_EQ(get(fused, "span.stage") + eliminated,
              get(unfused, "span.stage"));

    // ...while the real kernel categories are untouched: fusion moves
    // element-wise epilogues, never transforms, conversions or GEMMs.
    for (const char *cat : {"span.ntt", "span.bconv", "span.gemm",
                            "span.ip"}) {
        SCOPED_TRACE(cat);
        EXPECT_EQ(get(fused, cat), get(unfused, cat));
    }
}

// ---------------------------------------------------------------------
// Cost model: fewer kernels, fewer launches, one graph replay
// ---------------------------------------------------------------------

TEST_F(Fusion, ModelSchedulesFewerKernelsAndLaunchesWhenFused)
{
    const auto params = ckks::paper_set('C');
    model::ModelConfig off;
    model::ModelConfig on;
    on.policy.fuse = true;
    const model::KernelModel m_off(params, off);
    const model::KernelModel m_on(params, on);

    for (size_t level : {params.max_level, size_t{20}, size_t{5}}) {
        SCOPED_TRACE(::testing::Message() << "level=" << level);
        const auto k_off = m_off.keyswitch_kernels_named(level);
        const auto k_on = m_on.keyswitch_kernels_named(level);
        // The ModDown fix kernel disappears outright.
        EXPECT_LT(k_on.size(), k_off.size());

        const auto a_off = m_off.run_attributed(k_off);
        const auto a_on = m_on.run_attributed(k_on);
        EXPECT_LT(a_on.schedule.launches, a_off.schedule.launches);
        EXPECT_EQ(a_off.fused_kernels, 0u);
        EXPECT_GT(a_on.fused_kernels, 0u);
        // Fusion also trims the intermediate's DRAM round trip, so the
        // fused schedule is strictly cheaper.
        EXPECT_LT(a_on.seconds, a_off.seconds);
    }
}

TEST_F(Fusion, GraphCaptureReplaysScheduleWithOneLaunch)
{
    const auto params = ckks::paper_set('C');
    model::ModelConfig cfg;
    cfg.policy.fuse = true;
    cfg.policy.graph = true;
    const model::KernelModel m(params, cfg);
    model::ModelConfig nograph = cfg;
    nograph.policy.graph = false;
    const model::KernelModel m_ng(params, nograph);

    const auto att =
        m.run_attributed(m.keyswitch_kernels_named(params.max_level));
    const auto att_ng = m_ng.run_attributed(
        m_ng.keyswitch_kernels_named(params.max_level));

    // ISSUE acceptance: launches collapse to ≤ 2 and the schedule is
    // no longer launch-bound.
    EXPECT_EQ(att.schedule.launches, 1.0);
    EXPECT_EQ(att.schedule.graph_launches, 1.0);
    EXPECT_EQ(att.schedule.captured_launches,
              att_ng.schedule.launches);
    EXPECT_NE(att.schedule.bound(), gpusim::Bound::launch);
    EXPECT_LT(att.seconds, att_ng.seconds);
}

} // namespace
} // namespace neo
