/**
 * neo::tune — the per-site engine autotuner's contracts:
 *  - every `neo.tune/1` entry carries a score per engine,
 *  - tuning is deterministic across repeated runs and worker-thread
 *    counts (the table is model-driven, never wall-clock-driven),
 *  - an autotuned pipeline run is bit-identical to every fixed engine
 *    and to the reference keyswitch at every ISA level (the
 *    tuner only chooses which correct engine runs), and records its
 *    per-site decisions as tune.site.* counters,
 *  - each dispatched stage runs the engine the model prices it on
 *    (one resolver: ExecPolicy::engine_at, called by the pipeline
 *    and by KernelModel::engine_at),
 *  - the tuned mix dominates: modeled keyswitch time at every level
 *    is never slower than the best uniform engine (the neo.bench/1
 *    gate's invariant),
 *  - the checked-in neo.tune.json is exactly what the tuner emits
 *    today (freshness).
 */
#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/backends.h"
#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "neo/engine.h"
#include "neo/pipeline.h"
#include "obs/obs.h"
#include "prof/prof.h"
#include "tensor/gemm.h"
#include "tune/tuner.h"
#include "tune/tuning_table.h"

#include "isa_sweep.h"

using namespace neo;
using namespace neo::ckks;

namespace {

CkksParams
test_params()
{
    return CkksParams::test_params(256, 5, 2);
}

tune::TuningTable
tuned_table()
{
    return tune::Tuner().tune(test_params());
}

std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
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

bool
poly_eq(const RnsPoly &a, const RnsPoly &b)
{
    if (a.limbs() != b.limbs() || a.n() != b.n())
        return false;
    return std::equal(a.data(), a.data() + a.limbs() * a.n(), b.data());
}

} // namespace

// ---------------------------------------------------------------------
// Table contents
// ---------------------------------------------------------------------

TEST(TuneTable, EntriesCarryScoresForEveryEngine)
{
    const auto table = tuned_table();
    for (const auto &e : table.entries()) {
        ASSERT_EQ(e.scores.size(), EngineRegistry::ids().size())
            << e.stage << " L" << e.level;
        // The decision must be one of the scored engines, and no
        // scored engine may be negative.
        bool found = false;
        for (const auto &s : e.scores) {
            EXPECT_GE(s.seconds, 0.0);
            found = found || s.engine == e.engine;
        }
        EXPECT_TRUE(found) << e.stage << " L" << e.level;
    }
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

TEST(TuneDeterminism, RepeatedRunsAndThreadCountsAgree)
{
    const std::string reference = tuned_table().to_json();
    EXPECT_EQ(tuned_table().to_json(), reference);
    for (size_t threads : {1u, 2u, 7u, 16u}) {
        ThreadPool::set_global_threads(threads);
        EXPECT_EQ(tuned_table().to_json(), reference)
            << "threads=" << threads;
    }
    ThreadPool::set_global_threads(0);
}

// ---------------------------------------------------------------------
// Differential: auto vs fixed engines vs reference
// ---------------------------------------------------------------------

TEST(TuneDifferential, AutoBitIdenticalToFixedAndReference)
{
    const CkksParams params = test_params();
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 11);
    const SecretKey sk = keygen.secret_key();
    const KlssEvalKey rlk = keygen.to_klss(keygen.relin_key(sk));

    const auto table = tuned_table();
    const ExecPolicy auto_policy = table.policy();
    ASSERT_TRUE(auto_policy.is_auto());

    // At every ISA level the host supports.
    for_each_isa([&] {
        for (size_t level : {5u, 3u, 1u}) {
            RnsPoly d2 = random_eval_poly(ctx, level, 9000 + level);
            const auto ref = keyswitch_klss(d2, rlk, ctx);
            for (size_t threads : {1u, 2u, 7u, 16u}) {
                ThreadPool::set_global_threads(threads);
                const auto got =
                    keyswitch_klss_pipeline(d2, rlk, ctx, auto_policy);
                EXPECT_TRUE(poly_eq(got.first, ref.first))
                    << "level=" << level << " threads=" << threads;
                EXPECT_TRUE(poly_eq(got.second, ref.second))
                    << "level=" << level << " threads=" << threads;
                for (const EngineId id : EngineRegistry::ids()) {
                    const auto fixed = keyswitch_klss_pipeline(
                        d2, rlk, ctx, ExecPolicy::fixed(id));
                    EXPECT_TRUE(poly_eq(fixed.first, got.first))
                        << EngineRegistry::name(id) << " level=" << level
                        << " threads=" << threads;
                    EXPECT_TRUE(poly_eq(fixed.second, got.second))
                        << EngineRegistry::name(id) << " level=" << level
                        << " threads=" << threads;
                }
            }
        }
    });
    ThreadPool::set_global_threads(0);
}

TEST(TuneDifferential, AutoRunRecordsSiteCountersFixedRunDoesNot)
{
    const CkksParams params = test_params();
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 13);
    const SecretKey sk = keygen.secret_key();
    const KlssEvalKey rlk = keygen.to_klss(keygen.relin_key(sk));
    RnsPoly d2 = random_eval_poly(ctx, 5, 4242);

    const auto table = tuned_table();
    u64 site_counters = 0;
    {
        obs::Scope scope;
        (void)keyswitch_klss_pipeline(d2, rlk, ctx, table.policy());
        for (const auto &[name, value] : scope.registry().counters())
            if (name.rfind("tune.site.", 0) == 0)
                site_counters += value;
    }
    // One decision per engine-dispatched stage of the pipeline.
    EXPECT_EQ(site_counters, 6u);

    obs::Scope scope;
    (void)keyswitch_klss_pipeline(d2, rlk, ctx,
                                  ExecPolicy::fixed(EngineId::fp64_tcu));
    for (const auto &[name, value] : scope.registry().counters())
        EXPECT_NE(name.rfind("tune.site.", 0), 0u) << name;
}

TEST(TuneDifferential, PipelineRunsTheEngineTheModelPrices)
{
    // One resolver: at every level, each engine-dispatched stage runs
    // the engine the model prices it on. The tuned table at these
    // parameters holds scalar decisions as well as tensor-core ones.
    const CkksParams params = test_params();
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 17);
    const SecretKey sk = keygen.secret_key();
    const KlssEvalKey rlk = keygen.to_klss(keygen.relin_key(sk));
    const ExecPolicy policy = tuned_table().policy();
    model::ModelConfig cfg;
    cfg.policy = policy;
    const model::KernelModel priced(params, cfg);

    size_t scalar_sites = 0;
    for (size_t level = 0; level <= params.max_level; ++level) {
        std::map<std::string, u64> want;
        for (const char *st : {stage::modup_bconv, stage::ntt_t, stage::ip,
                               stage::intt_t, stage::recover_bconv,
                               stage::ntt_q}) {
            const EngineId e = priced.engine_at(st, level);
            scalar_sites += e == EngineId::scalar;
            want[std::string("tune.site.") + st + "." +
                 std::string(EngineRegistry::name(e))] += 1;
        }
        RnsPoly d2 = random_eval_poly(ctx, level, 700 + level);
        obs::Scope scope;
        (void)keyswitch_klss_pipeline(d2, rlk, ctx, policy);
        std::map<std::string, u64> got;
        for (const auto &[name, value] : scope.registry().counters())
            if (name.rfind("tune.site.", 0) == 0)
                got[name] = value;
        EXPECT_EQ(got, want) << "level=" << level;
    }
    EXPECT_GT(scalar_sites, 0u);
}

// ---------------------------------------------------------------------
// Dominance: the bench gate's invariant, checked per level
// ---------------------------------------------------------------------

TEST(TuneDominance, TunedKeyswitchNeverSlowerThanBestUniform)
{
    for (const CkksParams &params :
         {test_params(), baselines::make_neo('C').params}) {
        model::ModelConfig cfg;
        cfg.policy = tune::Tuner().tune(params).policy();
        const model::KernelModel tuned(params, cfg);
        for (size_t level = 0; level <= params.max_level; ++level) {
            double best_uniform = std::numeric_limits<double>::max();
            for (const EngineId id : EngineRegistry::ids()) {
                model::ModelConfig ucfg;
                ucfg.policy.engine = id;
                best_uniform = std::min(
                    best_uniform,
                    model::KernelModel(params, ucfg)
                        .time(model::Op::keyswitch, level));
            }
            const double t = tuned.time(model::Op::keyswitch, level);
            EXPECT_LE(t, best_uniform * (1.0 + 1e-9))
                << "N=" << params.n << " level=" << level;
        }
    }
}

// ---------------------------------------------------------------------
// Freshness: the checked-in table is what the tuner emits today
// ---------------------------------------------------------------------

TEST(TuneFreshness, CheckedInTableMatchesTunerOutput)
{
    const std::string checked_in = read_file(NEO_TUNE_TABLE);
    EXPECT_EQ(prof::tuning_table_for_workloads().to_json() + "\n",
              checked_in)
        << "neo.tune.json is stale; regenerate with `neo-prof --tune` "
           "from the repository root";
}
