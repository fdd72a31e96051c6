/**
 * @file
 * Concurrency stress suite (ctest label `concurrency`).
 *
 * Hammers every process-wide shared-state module from NTHREADS threads
 * at once, and the keyswitch pipeline and the hybrid key switches from
 * as many callers sharing a context and a key. Under a plain build
 * these tests check the functional contracts (stable references, exact
 * merge totals, bit-exact keyswitch outputs); their real value
 * is under `-DNEO_SANITIZE=ON` with ThreadSanitizer, where any locking
 * hole in the annotated modules becomes a hard failure. Together with the clang `-Wthread-safety`
 * CI leg this gives both static and dynamic coverage of the same
 * invariants.
 *
 * Every test joins all threads before asserting, so failures are
 * deterministic even though the interleavings are not.
 */
#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/context.h"
#include "ckks/hoisting.h"
#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "ckks/ks_precomp.h"
#include "ckks/params.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "neo/pipeline.h"
#include "obs/obs.h"

using namespace neo;
using namespace neo::ckks;

namespace {

constexpr int NTHREADS = 16;

/// Run @p fn on NTHREADS threads, all released at once, and join.
template <typename Fn>
void
hammer(Fn fn)
{
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(NTHREADS);
    for (int t = 0; t < NTHREADS; ++t)
        pool.emplace_back([&, t] {
            ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            fn(t);
        });
    while (ready.load() != NTHREADS)
        std::this_thread::yield();
    go.store(true);
    for (auto &th : pool)
        th.join();
}

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

} // namespace

// ---------------------------------------------------------------------
// KeySwitchPrecomp: lock-free reads of the plan the context built
// ---------------------------------------------------------------------

TEST(Concurrency, KeySwitchPrecompLevelsStableUnderConcurrentReads)
{
    CkksParams params = CkksParams::test_params(64, 6, 2);
    CkksContext ctx(params);
    const KeySwitchPrecomp &pre = ctx.precomp();
    const size_t nlevels = ctx.max_level() + 1;

    // level() promises a stable reference into the plan the context
    // built: the address every thread sees for a given level must be
    // identical while 16 threads read it without a lock.
    std::vector<std::atomic<const KeySwitchPrecomp::Level *>> seen(nlevels);
    for (auto &s : seen)
        s.store(nullptr);

    hammer([&](int t) {
        for (int i = 0; i < 50; ++i) {
            size_t l = (t + i) % nlevels;
            const auto &lv = pre.level(l);
            EXPECT_EQ(lv.active.size(), l + 1);
            const KeySwitchPrecomp::Level *expect = nullptr;
            if (!seen[l].compare_exchange_strong(expect, &lv)) {
                EXPECT_EQ(expect, &lv);
            }
        }
    });
}

// ---------------------------------------------------------------------
// obs::Registry: concurrent writers + merge_from
// ---------------------------------------------------------------------

TEST(Concurrency, RegistrySharedWritersExactTotals)
{
    obs::Registry reg;
    constexpr int ITERS = 500;

    hammer([&](int t) {
        for (int i = 0; i < ITERS; ++i) {
            reg.add("stress.ops");
            reg.add_value("stress.bytes", 8.0);
            reg.observe("stress.lat_us", double(t * ITERS + i));
            reg.max_value("stress.peak", double(t * ITERS + i));
            reg.add_gemm(16, 16, 1 + i % 2);
            reg.record_event("stress", obs::cat::gemm, u32(t), 0, 1);
            // Concurrent reads while writers are active.
            (void)reg.counter("stress.ops");
        }
    });

    const u64 total = u64(NTHREADS) * ITERS;
    EXPECT_EQ(reg.counter("stress.ops"), total);
    EXPECT_EQ(reg.value("stress.peak"), double(total - 1));
    EXPECT_EQ(reg.counter("gemm.calls"), total);
    EXPECT_EQ(reg.counter("span.gemm"), total);
}

TEST(Concurrency, RegistryMergeFromShards)
{
    // The per-shard pattern neo/shard.cpp uses: each worker owns a
    // private registry, the root merges them. Merging from all threads
    // into one root while the shards are still being written elsewhere
    // is not the contract; merge-after-join totals must be exact.
    std::vector<obs::Registry> shards(NTHREADS);
    constexpr int ITERS = 300;

    hammer([&](int t) {
        for (int i = 0; i < ITERS; ++i) {
            shards[t].add("shard.ops");
            shards[t].observe("shard.lat_us", double(i));
        }
    });

    obs::Registry root;
    // merge_from locks both registries; interleave merges from
    // several threads to exercise that path too (each shard is merged
    // exactly once).
    std::atomic<int> next{0};
    hammer([&](int) {
        for (int s; (s = next.fetch_add(1)) < NTHREADS;)
            root.merge_from(shards[s]);
    });

    EXPECT_EQ(root.counter("shard.ops"), u64(NTHREADS) * ITERS);
}

// ---------------------------------------------------------------------
// keyswitch_klss_pipeline: many callers on shared contexts and keys
// ---------------------------------------------------------------------

TEST(Concurrency, PipelineKeyswitchesFromManyCallers)
{
    // Each call builds its own kernels. What callers share is the
    // context's lazily built precomp levels and the key's IP-operand
    // cache; fresh contexts and keys make this their first, contended
    // use.
    struct Set
    {
        Set(size_t levels, size_t d_num, u64 seed)
            : ctx(CkksParams::test_params(256, levels, d_num)),
              rlk(relin_key(ctx, seed))
        {
        }

        static KlssEvalKey
        relin_key(const CkksContext &ctx, u64 seed)
        {
            KeyGenerator keygen(ctx, seed);
            return keygen.to_klss(keygen.relin_key(keygen.secret_key()));
        }

        CkksContext ctx;
        KlssEvalKey rlk;
    };
    const Set a(5, 2, 303);
    const Set b(4, 4, 404);

    struct Case
    {
        const Set *set;
        RnsPoly d2;
    };
    std::vector<Case> cases;
    for (const Set *s : {&a, &b}) {
        for (size_t level : {s->ctx.max_level(), s->ctx.max_level() - 1})
            cases.push_back(
                {s, random_eval_poly(s->ctx, level, 9600 + cases.size())});
    }

    const ExecPolicy policy = ExecPolicy::fixed(EngineId::fp64_tcu, true);
    std::vector<std::pair<RnsPoly, RnsPoly>> got(NTHREADS);
    hammer([&](int t) {
        const Case &c = cases[t % cases.size()];
        got[t] =
            keyswitch_klss_pipeline(c.d2, c.set->rlk, c.set->ctx, policy);
    });

    for (size_t ci = 0; ci < cases.size(); ++ci) {
        const Case &c = cases[ci];
        const auto want = keyswitch_klss(c.d2, c.set->rlk, c.set->ctx);
        for (size_t t = ci; t < NTHREADS; t += cases.size()) {
            EXPECT_TRUE(poly_eq(got[t].first, want.first)) << t;
            EXPECT_TRUE(poly_eq(got[t].second, want.second)) << t;
        }
    }
}

// ---------------------------------------------------------------------
// Hybrid key switches: many callers on one context and one key bundle
// ---------------------------------------------------------------------

TEST(Concurrency, HybridKeySwitchesShareOneKey)
{
    // The hybrid inner product reads the key's limbs in place, so the
    // callers share the key bundle read-only and the context's lazily
    // built precomp levels, with no lock on the key. Levels spread over
    // 0..L, so every caller reads a different window of the same parts.
    const CkksContext ctx(CkksParams::test_params(256, 5, 2));
    KeyGenerator keygen(ctx, 505);
    const std::vector<i64> steps = {1, 3};
    const EvalKeyBundle keys =
        keygen.eval_key_bundle(keygen.secret_key(), steps);
    const size_t levels = ctx.max_level() + 1;

    std::vector<Ciphertext> cts;
    for (size_t level = 0; level < levels; ++level)
        cts.push_back({random_eval_poly(ctx, level, 9700 + 2 * level),
                       random_eval_poly(ctx, level, 9701 + 2 * level), level,
                       1.0});

    struct Result
    {
        std::pair<RnsPoly, RnsPoly> switched;
        std::vector<Ciphertext> rotated;
    };
    auto run = [&](size_t level) {
        const Ciphertext &ct = cts[level];
        return Result{keyswitch_hybrid(ct.c1, keys.rlk, ctx),
                      rotate_hoisted(ct, steps, keys.galois, ctx)};
    };

    std::vector<Result> got(NTHREADS);
    hammer([&](int t) { got[t] = run(t % levels); });

    // The single-threaded run, on one pool executor.
    ThreadPool::set_global_threads(1);
    for (size_t level = 0; level < levels; ++level) {
        const Result want = run(level);
        for (size_t t = level; t < NTHREADS; t += levels) {
            EXPECT_TRUE(poly_eq(got[t].switched.first, want.switched.first))
                << t;
            EXPECT_TRUE(
                poly_eq(got[t].switched.second, want.switched.second))
                << t;
            ASSERT_EQ(got[t].rotated.size(), steps.size());
            for (size_t k = 0; k < steps.size(); ++k) {
                EXPECT_TRUE(
                    poly_eq(got[t].rotated[k].c0, want.rotated[k].c0))
                    << t << " step " << steps[k];
                EXPECT_TRUE(
                    poly_eq(got[t].rotated[k].c1, want.rotated[k].c1))
                    << t << " step " << steps[k];
            }
        }
    }
    ThreadPool::set_global_threads(0);
}
