/**
 * @file
 * Concurrency stress suite (ctest label `concurrency`).
 *
 * Hammers every process-wide shared-state module from NTHREADS threads
 * at once. Under a plain build these tests check the functional
 * contracts (stable references, exact merge totals); their real value
 * is under `-DNEO_SANITIZE=ON` with ThreadSanitizer, where any locking
 * hole in the annotated modules becomes a hard failure. Together with the clang `-Wthread-safety`
 * CI leg this gives both static and dynamic coverage of the same
 * invariants.
 *
 * Every test joins all threads before asserting, so failures are
 * deterministic even though the interleavings are not.
 */
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/context.h"
#include "ckks/ks_precomp.h"
#include "ckks/params.h"
#include "common/types.h"
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

} // namespace

// ---------------------------------------------------------------------
// KeySwitchPrecomp: lazy per-level build under contention
// ---------------------------------------------------------------------

TEST(Concurrency, KeySwitchPrecompLazyBuildRace)
{
    CkksParams params = CkksParams::test_params(64, 6, 2);
    CkksContext ctx(params);
    const KeySwitchPrecomp &pre = ctx.precomp();
    const size_t nlevels = ctx.max_level() + 1;

    // level() promises a stable reference: the address every thread
    // sees for a given level must be identical, even when 16 threads
    // race to trigger the first (lazy) build.
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
            reg.set_gauge("stress.last_thread", double(t));
            reg.add_gauge("stress.inflight", (i % 2 == 0) ? 1.0 : -1.0);
            // Concurrent reads while writers are active.
            (void)reg.counter("stress.ops");
        }
    });

    EXPECT_EQ(reg.counter("stress.ops"), u64(NTHREADS) * ITERS);
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
