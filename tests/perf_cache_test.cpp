/**
 * Hot-path precomputation caches — differential correctness suite.
 *
 * The precomputation of the steady-state key-switch path (the
 * context's ckks::KeySwitchPrecomp, the KLSS key's operand cache, and
 * the per-thread Workspace arena) is pure memoization:
 * they must never change a single output bit. These tests pin that
 * down two ways:
 *
 *   1. keyswitch_klss_pipeline with caches cold and warm is
 *      bit-identical to the reference ckks::keyswitch_klss across
 *      21 (level, d_num, engine) configurations;
 *   2. the same holds under 1 / 2 / 7 / 16 worker threads, at every
 *      ISA level the host supports, and for
 *      Evaluator::mul / rotate routed through the pipeline.
 *
 * Assigning a new key into a live key object drops the operands it
 * had prepared, so the next keyswitch uses the new key's material.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "neo/pipeline.h"
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

bool
ct_eq(const Ciphertext &a, const Ciphertext &b)
{
    return a.level == b.level && poly_eq(a.c0, b.c0) &&
           poly_eq(a.c1, b.c1);
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

struct PerfCache : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        set_a_ = new ParamSet(5, 2, 101);
        set_b_ = new ParamSet(4, 4, 202);
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

ParamSet *PerfCache::set_a_ = nullptr;
ParamSet *PerfCache::set_b_ = nullptr;

// ---------------------------------------------------------------------
// Keyswitch: cold and warm caches vs reference
// ---------------------------------------------------------------------

TEST_F(PerfCache, KeyswitchColdAndWarmMatchReference)
{
    const auto cfgs = configs();
    ASSERT_GE(cfgs.size(), 20u);
    for (const auto &cfg : cfgs) {
        SCOPED_TRACE(::testing::Message()
                     << cfg.engine << " d_num="
                     << cfg.set->params.d_num << " level=" << cfg.level);
        const auto policy =
            ExecPolicy::fixed(EngineRegistry::parse(cfg.engine));
        RnsPoly d2 = random_eval_poly(cfg.set->ctx, cfg.level,
                                      1000 + cfg.level);
        const auto ref =
            keyswitch_klss(d2, cfg.set->klss_rlk, cfg.set->ctx);

        // Cold run populates the caches; warm run consumes them.
        const auto cold = keyswitch_klss_pipeline(
            d2, cfg.set->klss_rlk, cfg.set->ctx, policy);
        const auto warm = keyswitch_klss_pipeline(
            d2, cfg.set->klss_rlk, cfg.set->ctx, policy);
        EXPECT_TRUE(poly_eq(cold.first, ref.first));
        EXPECT_TRUE(poly_eq(cold.second, ref.second));
        EXPECT_TRUE(poly_eq(warm.first, ref.first));
        EXPECT_TRUE(poly_eq(warm.second, ref.second));
    }
}

TEST_F(PerfCache, KeyswitchBitExactAcrossThreadCounts)
{
    const auto cfgs = configs();
    // References once, at the default thread count.
    std::vector<std::pair<RnsPoly, RnsPoly>> refs;
    std::vector<RnsPoly> inputs;
    for (const auto &cfg : cfgs) {
        inputs.push_back(random_eval_poly(cfg.set->ctx, cfg.level,
                                          2000 + cfg.level));
        refs.push_back(
            keyswitch_klss(inputs.back(), cfg.set->klss_rlk,
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
                ExecPolicy::fixed(EngineRegistry::parse(cfg.engine)));
            EXPECT_TRUE(poly_eq(got.first, refs[i].first));
            EXPECT_TRUE(poly_eq(got.second, refs[i].second));
        }
    }
    ThreadPool::set_global_threads(0); // back to NEO_NUM_THREADS
}

TEST_F(PerfCache, KeyswitchBitExactAtEveryIsaLevel)
{
    const auto cfgs = configs();
    for_each_isa([&] {
        for (const auto &cfg : cfgs) {
            SCOPED_TRACE(::testing::Message()
                         << cfg.engine << " d_num="
                         << cfg.set->params.d_num << " level=" << cfg.level);
            RnsPoly d2 = random_eval_poly(cfg.set->ctx, cfg.level,
                                          4000 + cfg.level);
            const auto ref =
                keyswitch_klss(d2, cfg.set->klss_rlk, cfg.set->ctx);
            const auto got = keyswitch_klss_pipeline(
                d2, cfg.set->klss_rlk, cfg.set->ctx,
                ExecPolicy::fixed(EngineRegistry::parse(cfg.engine)));
            EXPECT_TRUE(poly_eq(got.first, ref.first));
            EXPECT_TRUE(poly_eq(got.second, ref.second));
        }
    });
}

// ---------------------------------------------------------------------
// Evaluator ops routed through the cached pipeline
// ---------------------------------------------------------------------

TEST_F(PerfCache, MulAndRotateThroughPipelineMatchReference)
{
    auto &s = *set_a_;
    const EvalKeyBundle keys =
        s.keygen.eval_key_bundle(s.sk, {1, 3}, false, true);
    Encryptor enc(s.ctx, 31);
    Rng rng(77);
    std::vector<Complex> slots(s.ctx.encoder().slot_count());
    for (auto &v : slots)
        v = Complex(2.0 * rng.uniform_real() - 1.0,
                    2.0 * rng.uniform_real() - 1.0);
    const Ciphertext ca = enc.encrypt_symmetric(
        s.ctx.encode(slots, s.ctx.max_level()), s.sk, s.keygen);
    std::reverse(slots.begin(), slots.end());
    const Ciphertext cb = enc.encrypt_symmetric(
        s.ctx.encode(slots, s.ctx.max_level()), s.sk, s.keygen);

    const Evaluator ref(s.ctx, KeySwitchMethod::klss);
    const Ciphertext mul_ref = ref.mul(ca, cb, keys);
    const Ciphertext rot1_ref = ref.rotate(ca, 1, keys);
    const Ciphertext rot3_ref = ref.rotate(ca, 3, keys);

    for (const char *name : {"scalar", "fp64_tcu", "int8_tcu"}) {
        SCOPED_TRACE(name);
        Evaluator ev(s.ctx, KeySwitchMethod::klss);
        ev.set_klss_keyswitch(
            [policy = ExecPolicy::fixed(EngineRegistry::parse(name))](
                const RnsPoly &d2, const KlssEvalKey &evk,
                const CkksContext &ctx) {
                return keyswitch_klss_pipeline(d2, evk, ctx, policy);
            });
        // Twice: the first populates the caches, the second hits them.
        for (int run = 0; run < 2; ++run) {
            EXPECT_TRUE(ct_eq(ev.mul(ca, cb, keys), mul_ref)) << run;
            EXPECT_TRUE(ct_eq(ev.rotate(ca, 1, keys), rot1_ref)) << run;
            EXPECT_TRUE(ct_eq(ev.rotate(ca, 3, keys), rot3_ref)) << run;
        }
    }
}

// ---------------------------------------------------------------------
// Key reassignment drops the operands prepared from the old key
// ---------------------------------------------------------------------

TEST_F(PerfCache, AssignedKeySwitchesWithItsOwnMaterial)
{
    auto &s = *set_a_;
    const size_t level = s.ctx.max_level();
    const RnsPoly d2 = random_eval_poly(s.ctx, level, 3000);
    KeyGenerator other(s.ctx, 303);
    const SecretKey sk_b = other.secret_key();
    const EvalKey rlk_b = other.relin_key(sk_b);
    const KlssEvalKey klss_b = other.to_klss(rlk_b);
    const auto policy = ExecPolicy::fixed(EngineId::fp64_tcu);

    // KLSS: the pipeline prepares per-level IP operands inside the key.
    KlssEvalKey klss = s.klss_rlk;
    (void)keyswitch_klss_pipeline(d2, klss, s.ctx, policy);
    klss = klss_b;
    const auto klss_got = keyswitch_klss_pipeline(d2, klss, s.ctx, policy);
    const KlssEvalKey klss_fresh = klss_b;
    const auto klss_want =
        keyswitch_klss_pipeline(d2, klss_fresh, s.ctx, policy);
    EXPECT_TRUE(poly_eq(klss_got.first, klss_want.first));
    EXPECT_TRUE(poly_eq(klss_got.second, klss_want.second));

    // Hybrid: the key switch reads the key's limbs in place and
    // prepares nothing on the key, so an assigned key must switch with
    // its own material like a fresh copy of it.
    EvalKey rlk = s.keygen.relin_key(s.sk);
    (void)keyswitch_hybrid(d2, rlk, s.ctx);
    rlk = rlk_b;
    const auto hyb_got = keyswitch_hybrid(d2, rlk, s.ctx);
    const EvalKey rlk_fresh = rlk_b;
    const auto hyb_want = keyswitch_hybrid(d2, rlk_fresh, s.ctx);
    EXPECT_TRUE(poly_eq(hyb_got.first, hyb_want.first));
    EXPECT_TRUE(poly_eq(hyb_got.second, hyb_want.second));
}

} // namespace
} // namespace neo
