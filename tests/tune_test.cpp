/**
 * neo::tune — the per-site engine autotuner's contracts:
 *  - the `neo.tune/1` document round-trips (to_json -> parse ->
 *    to_json byte-identical) and matches the committed golden file,
 *  - tuning is deterministic across repeated runs and worker-thread
 *    counts (the table is model-driven, never wall-clock-driven),
 *  - an autotuned pipeline run is bit-identical to every fixed engine
 *    and to the reference keyswitch (the tuner only chooses which
 *    correct engine runs), and records its per-site decisions as
 *    tune.site.* counters,
 *  - the tuned mix dominates: modeled keyswitch time at every level
 *    is never slower than the best uniform engine (the neo.bench/1
 *    gate's invariant),
 *  - the checked-in neo.tune.json is exactly what the tuner emits
 *    today (freshness).
 */
#include <algorithm>
#include <fstream>
#include <limits>
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
#include "tune/tuner.h"
#include "tune/tuning_table.h"

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

/// ModelConfig that dispatches stages through @p table (fallback
/// @p fb), mirroring what neo::model_config builds for an auto policy.
model::ModelConfig
auto_config(const tune::TuningTable &table, const CkksParams &params,
            model::MatMulEngine fb)
{
    model::ModelConfig cfg;
    cfg.stage_engine = [&table, d_num = params.d_num, n = params.n,
                        fb](std::string_view st, size_t lvl) {
        const auto id = table.lookup(st, lvl, d_num, n);
        return id ? EngineRegistry::model_engine(*id) : fb;
    };
    return cfg;
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
// Serialization
// ---------------------------------------------------------------------

TEST(TuneTable, JsonRoundTripIsByteIdentical)
{
    const auto table = tuned_table();
    ASSERT_FALSE(table.empty());
    const std::string doc = table.to_json();
    const auto reparsed = tune::TuningTable::from_json(doc);
    EXPECT_EQ(reparsed.size(), table.size());
    EXPECT_EQ(reparsed.to_json(), doc);
    // Lookups survive the round trip.
    for (const auto &e : table.entries()) {
        const auto got = reparsed.lookup(e.stage, e.level, e.d_num, e.n);
        ASSERT_TRUE(got.has_value()) << e.stage << " L" << e.level;
        EXPECT_EQ(*got, e.engine) << e.stage << " L" << e.level;
    }
}

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

TEST(TuneTable, RejectsWrongSchemaAndBadEngine)
{
    EXPECT_THROW(tune::TuningTable::from_json(
                     "{\"schema\":\"neo.tune/2\",\"entries\":[]}"),
                 std::invalid_argument);
    EXPECT_THROW(
        tune::TuningTable::from_json(
            "{\"schema\":\"neo.tune/1\",\"entries\":[{\"stage\":\"ip\","
            "\"level\":0,\"d_num\":2,\"n\":256,\"engine\":\"warp\"}]}"),
        std::invalid_argument);
}

TEST(TuneTable, MatchesGoldenFile)
{
    // The committed golden pins the serialized form: field names,
    // ordering, number formatting and the tuner's decisions at the
    // functional test-scale parameters. When a model change moves a
    // decision on purpose, regenerate by writing
    // tune::Tuner().tune(CkksParams::test_params(256, 5, 2)) to the
    // golden path (see EXPERIMENTS.md).
    const std::string golden =
        read_file(std::string(NEO_TEST_DATA_DIR) +
                  "/tune_table_golden.json");
    EXPECT_EQ(tuned_table().to_json() + "\n", golden);
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
    ASSERT_TRUE(auto_policy.site_engine != nullptr);

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

// ---------------------------------------------------------------------
// Dominance: the bench gate's invariant, checked per level
// ---------------------------------------------------------------------

TEST(TuneDominance, TunedKeyswitchNeverSlowerThanBestUniform)
{
    for (const CkksParams &params :
         {test_params(), baselines::make_neo('C').params}) {
        const auto table = tune::Tuner().tune(params);
        const auto cfg =
            auto_config(table, params, model::MatMulEngine::tcu_fp64);
        const model::KernelModel tuned(params, cfg);
        for (size_t level = 0; level <= params.max_level; ++level) {
            double best_uniform = std::numeric_limits<double>::max();
            for (const EngineId id : EngineRegistry::ids()) {
                model::ModelConfig ucfg;
                ucfg.engine = EngineRegistry::model_engine(id);
                best_uniform = std::min(
                    best_uniform,
                    model::KernelModel(params, ucfg)
                        .keyswitch_time(level));
            }
            const double t = tuned.keyswitch_time(level);
            EXPECT_LE(t, best_uniform * (1.0 + 1e-9))
                << "N=" << params.n << " level=" << level;
        }
    }
}

// ---------------------------------------------------------------------
// Freshness: the checked-in table is what the tuner emits today
// ---------------------------------------------------------------------

#ifdef NEO_TUNE_TABLE
TEST(TuneFreshness, CheckedInTableMatchesTunerOutput)
{
    const std::string checked_in = read_file(NEO_TUNE_TABLE);
    EXPECT_EQ(prof::tuning_table_for_workloads().to_json() + "\n",
              checked_in)
        << "neo.tune.json is stale; regenerate with "
           "`neo-prof --tune --tuning-table neo.tune.json`";
}
#endif

// ---------------------------------------------------------------------
// Device-pinned decisions (multi-device sharding)
// ---------------------------------------------------------------------

TEST(TuneDevices, PinnedEntriesWinOverAgnosticAndRoundTrip)
{
    tune::TuningTable table;
    tune::SiteDecision agnostic;
    agnostic.stage = "ip";
    agnostic.level = 4;
    agnostic.d_num = 2;
    agnostic.n = 256;
    agnostic.engine = EngineId::fp64_tcu;
    table.add(agnostic);
    tune::SiteDecision pinned = agnostic;
    pinned.devices = 2;
    pinned.engine = EngineId::int8_tcu;
    table.add(pinned);

    // Historical lookups (devices omitted) see only the agnostic
    // entry; a 2-device run sees its pinned decision; a 4-device run
    // falls back to agnostic.
    EXPECT_EQ(table.lookup("ip", 4, 2, 256), EngineId::fp64_tcu);
    EXPECT_EQ(table.lookup("ip", 4, 2, 256, 2), EngineId::int8_tcu);
    EXPECT_EQ(table.lookup("ip", 4, 2, 256, 4), EngineId::fp64_tcu);

    // The `devices` key serializes only when nonzero, and survives a
    // round trip with the same semantics.
    const std::string doc = table.to_json();
    EXPECT_NE(doc.find("\"devices\": 2"), std::string::npos);
    const auto reparsed = tune::TuningTable::from_json(doc);
    EXPECT_EQ(reparsed.to_json(), doc);
    EXPECT_EQ(reparsed.lookup("ip", 4, 2, 256, 2), EngineId::int8_tcu);
    EXPECT_EQ(reparsed.lookup("ip", 4, 2, 256), EngineId::fp64_tcu);
}

TEST(TuneDevices, AgnosticTablesAreUnchangedOnDisk)
{
    // A table with no pinned entries must serialize exactly as before
    // the devices field existed (no "devices" key anywhere): the
    // checked-in neo.tune.json and its golden stay byte-identical.
    const auto table = tuned_table();
    for (const auto &e : table.entries())
        EXPECT_EQ(e.devices, 0u);
    EXPECT_EQ(table.to_json().find("\"devices\""), std::string::npos);
}

TEST(TuneDevices, PolicyResolvesPerDeviceCount)
{
    tune::TuningTable table;
    tune::SiteDecision pinned;
    pinned.stage = "ip";
    pinned.level = 4;
    pinned.d_num = 2;
    pinned.n = 256;
    pinned.devices = 2;
    pinned.engine = EngineId::scalar;
    table.add(pinned);

    ExecPolicy base;
    base.engine = EngineId::fp64_tcu;
    base.devices = 2;
    const auto policy = table.policy(base);
    SiteKey site{"ip", 4, 2, 256, 0.0, 2};
    EXPECT_EQ(policy.engine_at(site), EngineId::scalar);
    // The same site on one device misses the pinned entry and falls
    // back to the base engine.
    site.devices = 1;
    EXPECT_EQ(policy.engine_at(site), EngineId::fp64_tcu);
}

