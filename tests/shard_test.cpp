/**
 * Multi-device sharded keyswitch — differential suite (ctest label
 * `shard`).
 *
 * Sharding re-orders nothing and re-rounds nothing: a sharded run is
 * the same kernels over contiguous disjoint index ranges in
 * device-major order, so every output bit must match the
 * single-device pipeline and the reference keyswitch. These tests pin
 * that down, plus the cost-model side:
 *
 *   1. the shard partition rule covers every index exactly once, for
 *      any (total, devices);
 *   2. keyswitch_klss_pipeline with devices ∈ {1, 2, 4} is
 *      bit-identical to the reference across 21 (level, d_num,
 *      engine) configurations, every ISA level and 1/2/7/16
 *      worker threads;
 *   3. ckks::mod_down is bit-identical under device-sharded limb
 *      loops, fused and unfused;
 *   4. the comm.* metrics of a sharded neo-prof keyswitch artifact
 *      equal the analytic limb-partition formulas, byte for byte,
 *      and the pipeline itself records no modeled.*, comm.* or hbm.*
 *      series at any device count (only neo-prof prices the model);
 *   5. the modeled crossover exists: at paper scale, a ≥2-device
 *      NVLink shard beats the single-device schedule, while the PCIe
 *      ring does not enjoy the same gain (the fig_multi_device
 *      story); attribution rows sum to the makespan exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "ckks/paper_params.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "gpusim/topology.h"
#include "neo/pipeline.h"
#include "neo/shard.h"
#include "obs/obs.h"
#include "prof/prof.h"
#include "rns/partition.h"

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

struct Config
{
    ParamSet *set;
    size_t level;
    const char *engine;
};

struct Shard : public ::testing::Test
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
    /// {4, 3} levels × 3 GEMM engines — the fusion suite's sweep.
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

    static ExecPolicy
    policy(const char *engine, size_t devices,
           gpusim::Interconnect ic = gpusim::Interconnect::nvlink)
    {
        ExecPolicy p = ExecPolicy::fixed(EngineRegistry::parse(engine));
        p.devices = devices;
        p.interconnect = ic;
        return p;
    }

    static ParamSet *set_a_;
    static ParamSet *set_b_;
};

ParamSet *Shard::set_a_ = nullptr;
ParamSet *Shard::set_b_ = nullptr;

/// Analytic fabric bytes of one sharded keyswitch at @p level: the
/// limb-partition formula the CommPlan must reproduce. Every
/// collective moves D·(D−1) shards across the fabric; shards are
/// ceil-partitions of the stage's axis.
struct AnalyticBytes
{
    double allgather = 0;
    double reducescatter = 0;
    double total() const { return allgather + reducescatter; }
};

AnalyticBytes
analytic_bytes(const CkksParams &params, size_t level, size_t devices)
{
    const double limb =
        static_cast<double>(params.n) * 8.0 *
        static_cast<double>(params.batch);
    const auto ceil_shard = [devices](size_t total) {
        return static_cast<double>((total + devices - 1) / devices);
    };
    const double fabric =
        static_cast<double>(devices) * static_cast<double>(devices - 1);
    AnalyticBytes b;
    const double src = ceil_shard(level + 1) * limb;
    const double digits =
        ceil_shard(params.beta(level)) *
        static_cast<double>(params.klss_alpha_prime()) * limb;
    b.allgather = fabric * (src + digits);
    b.reducescatter = 2 * fabric * ceil_shard(level + 1) * limb;
    return b;
}

// ---------------------------------------------------------------------
// Partition rule
// ---------------------------------------------------------------------

TEST(ShardPartition, CoversEveryIndexExactlyOnce)
{
    for (size_t total : {1u, 2u, 5u, 6u, 7u, 16u, 37u})
        for (size_t devices : {1u, 2u, 3u, 4u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "total=" << total << " devices=" << devices);
            std::vector<int> seen(total, 0);
            size_t sum = 0;
            for (size_t d = 0; d < devices; ++d) {
                const auto sr = shard::shard_range(total, devices, d);
                sum += sr.count;
                for (size_t i = sr.first; i < sr.first + sr.count; ++i)
                    seen[i] += 1;
            }
            EXPECT_EQ(sum, total);
            EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                                    [](int c) { return c == 1; }));
        }
}

TEST(ShardPartition, MatchesEvenPartitionHelper)
{
    // shard_range and the rns helper must never drift apart: the
    // functional mod_down loops use one, the cost model the other.
    for (size_t total : {6u, 9u, 16u})
        for (size_t devices : {2u, 4u, 5u}) {
            const auto groups = make_even_partition(total, devices);
            ASSERT_EQ(groups.size(), devices);
            for (size_t d = 0; d < devices; ++d) {
                const auto sr = shard::shard_range(total, devices, d);
                EXPECT_EQ(sr.first, groups[d].first);
                EXPECT_EQ(sr.count, groups[d].count);
            }
        }
}

// ---------------------------------------------------------------------
// Differential: sharded vs single-device vs reference
// ---------------------------------------------------------------------

TEST_F(Shard, ShardedKeyswitchBitIdenticalAcrossConfigs)
{
    const auto cfgs = configs();
    ASSERT_GE(cfgs.size(), 21u);
    // At every ISA level the host supports.
    for_each_isa([&] {
        for (const auto &cfg : cfgs) {
            const auto d2 = random_eval_poly(cfg.set->ctx, cfg.level,
                                             9000 + cfg.level);
            const auto ref =
                keyswitch_klss(d2, cfg.set->klss_rlk, cfg.set->ctx);
            for (size_t devices : {1u, 2u, 4u}) {
                SCOPED_TRACE(::testing::Message()
                             << cfg.engine << " d_num="
                             << cfg.set->params.d_num << " level="
                             << cfg.level << " devices=" << devices);
                const auto got = keyswitch_klss_pipeline(
                    d2, cfg.set->klss_rlk, cfg.set->ctx,
                    policy(cfg.engine, devices));
                EXPECT_TRUE(poly_eq(got.first, ref.first));
                EXPECT_TRUE(poly_eq(got.second, ref.second));
            }
        }
    });
}

TEST_F(Shard, ShardedBitExactAcrossThreadCounts)
{
    const auto cfgs = configs();
    std::vector<std::pair<RnsPoly, RnsPoly>> refs;
    std::vector<RnsPoly> inputs;
    for (const auto &cfg : cfgs) {
        inputs.push_back(random_eval_poly(cfg.set->ctx, cfg.level,
                                          9100 + cfg.level));
        refs.push_back(keyswitch_klss(inputs.back(), cfg.set->klss_rlk,
                                      cfg.set->ctx));
    }
    for (size_t threads : {1u, 2u, 7u, 16u}) {
        ThreadPool::set_global_threads(threads);
        for (size_t devices : {1u, 2u, 4u})
            for (size_t i = 0; i < cfgs.size(); ++i) {
                const auto &cfg = cfgs[i];
                SCOPED_TRACE(::testing::Message()
                             << cfg.engine << " d_num="
                             << cfg.set->params.d_num << " level="
                             << cfg.level << " threads=" << threads
                             << " devices=" << devices);
                const auto got = keyswitch_klss_pipeline(
                    inputs[i], cfg.set->klss_rlk, cfg.set->ctx,
                    policy(cfg.engine, devices));
                EXPECT_TRUE(poly_eq(got.first, refs[i].first));
                EXPECT_TRUE(poly_eq(got.second, refs[i].second));
            }
    }
    ThreadPool::set_global_threads(0); // back to NEO_NUM_THREADS
}

TEST_F(Shard, ShardedFusedPipelineStaysBitIdentical)
{
    // Device sharding composes with element-wise fusion: both rewrite
    // loop structure only.
    auto &s = *set_a_;
    const size_t level = s.ctx.max_level();
    const auto d2 = random_eval_poly(s.ctx, level, 9200);
    const auto ref = keyswitch_klss(d2, s.klss_rlk, s.ctx);
    for (size_t devices : {2u, 4u}) {
        ExecPolicy p = policy("fp64_tcu", devices);
        p.fuse = true;
        const auto got =
            keyswitch_klss_pipeline(d2, s.klss_rlk, s.ctx, p);
        EXPECT_TRUE(poly_eq(got.first, ref.first));
        EXPECT_TRUE(poly_eq(got.second, ref.second));
    }
}

TEST_F(Shard, ModDownBitIdenticalUnderSharding)
{
    auto &s = *set_a_;
    const size_t level = s.ctx.max_level();
    Rng rng(9300);
    RnsPoly ext(s.ctx.n(),
                s.ctx.extended_mods(level), PolyForm::coeff);
    for (size_t i = 0; i < ext.limbs(); ++i)
        for (size_t l = 0; l < ext.n(); ++l)
            ext.limb(i)[l] = rng.uniform(ext.modulus(i).value());

    for (bool fuse : {false, true}) {
        const auto ref = ckks::mod_down(ext, level, s.ctx, fuse, 1);
        for (size_t devices : {2u, 3u, 4u}) {
            SCOPED_TRACE(::testing::Message()
                         << "fuse=" << fuse << " devices=" << devices);
            const auto got =
                ckks::mod_down(ext, level, s.ctx, fuse, devices);
            EXPECT_TRUE(poly_eq(got, ref));
        }
    }
}

// ---------------------------------------------------------------------
// Counters: modeled comm bytes equal the analytic partition formula
// ---------------------------------------------------------------------

TEST_F(Shard, CommCountersMatchAnalyticFormula)
{
    // neo-prof's primitive workloads run at set A's parameters
    // (test_params(256, 5, 2)), so the analytic formula takes set A's.
    auto &s = *set_a_;
    const size_t level = s.ctx.max_level();
    for (size_t devices : {2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "devices=" << devices);
        const auto metrics =
            prof::profile("keyswitch", policy("fp64_tcu", devices), level)
                .metrics;
        const auto get = [&metrics](const char *k) {
            const auto it = metrics.find(k);
            return it == metrics.end() ? -1.0 : it->second;
        };
        const auto expect = analytic_bytes(s.params, level, devices);
        EXPECT_DOUBLE_EQ(get("comm.bytes.allgather"), expect.allgather);
        EXPECT_DOUBLE_EQ(get("comm.bytes.reducescatter"),
                         expect.reducescatter);
        EXPECT_DOUBLE_EQ(get("comm.bytes.total"), expect.total());
        EXPECT_GT(get("comm.modeled.s"), 0.0);
    }
}

TEST_F(Shard, PipelineRecordsNoModeledCost)
{
    // The pipeline is the functional proof; pricing the model is
    // neo-prof's job. No registry series of the modeled families may
    // appear from a keyswitch, sharded or not.
    auto &s = *set_a_;
    const auto d2 =
        random_eval_poly(s.ctx, s.ctx.max_level(), 9500);
    const auto modeled = [](const std::string &k) {
        for (const char *prefix : {"modeled.", "comm.", "hbm."})
            if (k.rfind(prefix, 0) == 0)
                return true;
        return false;
    };
    for (size_t devices : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "devices=" << devices);
        obs::Scope scope;
        (void)keyswitch_klss_pipeline(d2, s.klss_rlk, s.ctx,
                                      policy("fp64_tcu", devices));
        const auto &reg = scope.registry();
        EXPECT_EQ(reg.counter("pipeline.keyswitch"), 1u);
        for (const auto &[k, v] : reg.values())
            EXPECT_FALSE(modeled(k)) << k << "=" << v;
        for (const auto &[k, v] : reg.counters())
            EXPECT_FALSE(modeled(k)) << k << "=" << v;
    }
}

TEST(ShardPlan, CommPlanMatchesAnalyticFormulaAcrossParams)
{
    // The plan's byte accounting against the closed form, across the
    // KLSS-capable paper sets, on both fabric shapes.
    for (char set : {'C', 'D', 'G'}) {
        const auto params = ckks::paper_set(set);
        for (size_t level :
             {params.max_level, params.max_level / 2, size_t{1}})
            for (size_t devices : {2u, 4u, 8u})
                for (auto ic : {gpusim::Interconnect::nvlink,
                                gpusim::Interconnect::pcie}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "set=" << set << " level=" << level
                                 << " devices=" << devices);
                    const auto topo = gpusim::Topology::preset(
                        ic, devices);
                    const auto plan =
                        shard::comm_plan(params, level, topo);
                    const auto expect =
                        analytic_bytes(params, level, devices);
                    EXPECT_DOUBLE_EQ(plan.allgather_bytes(),
                                     expect.allgather);
                    EXPECT_DOUBLE_EQ(plan.reducescatter_bytes(),
                                     expect.reducescatter);
                    EXPECT_DOUBLE_EQ(plan.total_bytes(),
                                     expect.total());
                    EXPECT_GT(plan.serial_time_s(), 0.0);
                }
    }
}

TEST(ShardPlan, SingleDevicePlanIsFree)
{
    const auto params = ckks::paper_set('C');
    const auto plan = shard::comm_plan(
        params, params.max_level, gpusim::Topology::single());
    EXPECT_DOUBLE_EQ(plan.total_bytes(), 0.0);
    EXPECT_DOUBLE_EQ(plan.serial_time_s(), 0.0);
}

// ---------------------------------------------------------------------
// Cost model: attribution invariant and the crossover
// ---------------------------------------------------------------------

TEST(ShardModel, AttributionRowsSumToMakespan)
{
    const auto params = ckks::paper_set('C');
    for (size_t devices : {1u, 2u, 4u}) {
        model::ModelConfig cfg;
        cfg.policy.devices = devices;
        const auto sc = shard::model_sharded_keyswitch(
            params, params.max_level, cfg);
        double sum = 0;
        for (const auto &row : sc.kernels)
            sum += row.modeled_s;
        EXPECT_NEAR(sum, sc.seconds, 1e-9 * sc.seconds)
            << "devices=" << devices;
        // Per-device rows exist and comm shows up only when sharded.
        EXPECT_EQ(sc.per_device.size(), devices);
        if (devices == 1) {
            EXPECT_DOUBLE_EQ(sc.comm_s, 0.0);
            EXPECT_TRUE(sc.links.empty());
        } else {
            EXPECT_GT(sc.comm_s, 0.0);
            EXPECT_EQ(sc.links.size(),
                      gpusim::Topology::nvlink(devices).num_links());
            for (const auto &lk : sc.links) {
                EXPECT_GT(lk.bytes, 0.0);
                EXPECT_GT(lk.utilization, 0.0);
                EXPECT_LE(lk.utilization, 1.0);
            }
        }
    }
}

TEST(ShardModel, NvlinkCrossoverExistsAtPaperScale)
{
    // ISSUE acceptance: at least one paper parameter set where the
    // sharded schedule on ≥2 NVLink devices beats single-device.
    bool crossover = false;
    char where = '?';
    // The KLSS-capable paper sets (the sharded pipeline is the KLSS
    // keyswitch; sets without α̃ have no key-digit structure to shard).
    for (char set : {'C', 'D', 'G'}) {
        const auto params = ckks::paper_set(set);
        model::ModelConfig cfg;
        cfg.policy.devices = 2;
        cfg.policy.interconnect = gpusim::Interconnect::nvlink;
        const auto sc = shard::model_sharded_keyswitch(
            params, params.max_level, cfg);
        EXPECT_GT(sc.seconds, 0.0);
        if (sc.seconds < sc.single_seconds) {
            crossover = true;
            where = set;
        }
    }
    EXPECT_TRUE(crossover);
    SCOPED_TRACE(::testing::Message() << "first win at set " << where);
}

TEST(ShardModel, PcieShardsSlowerThanNvlinkShards)
{
    // The crossover is a fabric property: the same shard plan priced
    // on the PCIe ring pays ≥ the NVLink fabric's collective bill.
    const auto params = ckks::paper_set('C');
    model::ModelConfig nv;
    nv.policy.devices = 4;
    nv.policy.interconnect = gpusim::Interconnect::nvlink;
    model::ModelConfig pc = nv;
    pc.policy.interconnect = gpusim::Interconnect::pcie;
    const auto a = shard::model_sharded_keyswitch(
        params, params.max_level, nv);
    const auto b = shard::model_sharded_keyswitch(
        params, params.max_level, pc);
    EXPECT_LT(a.seconds, b.seconds);
    EXPECT_GT(b.comm_s, a.comm_s);
    // Same compute shards, same analytic bytes — only time differs.
    EXPECT_DOUBLE_EQ(a.plan.total_bytes(), b.plan.total_bytes());
}

TEST(ShardModel, DevicesOneDegeneratesToSingleSchedule)
{
    // One device is *exactly* the single-device schedule — the same
    // time() figure and rows every unsharded profile reports — under a
    // fixed policy and under neo-prof's per-site autotune policy,
    // whose engines the shard model resolves itself.
    const ExecPolicy fixed;
    const ExecPolicy tuned = prof::tuning_table_for_workloads().policy();
    for (const CkksParams &params :
         {CkksParams::test_params(256, 5, 2), ckks::paper_set('C')}) {
        for (const ExecPolicy *policy : {&fixed, &tuned}) {
            model::ModelConfig cfg;
            cfg.policy = *policy;
            const model::KernelModel m(params, cfg);
            for (size_t l = 0; l <= params.max_level; ++l) {
                SCOPED_TRACE(::testing::Message()
                             << "N=" << params.n << " level=" << l
                             << " policy=" << policy->engine_name());
                const auto sc = shard::model_sharded_keyswitch(params, l, cfg);
                const auto att =
                    m.run_attributed(m.kernels(model::Op::keyswitch, l));
                EXPECT_GT(sc.seconds, 0.0);
                EXPECT_EQ(sc.seconds, sc.single_seconds);
                EXPECT_EQ(sc.seconds, att.seconds);
                EXPECT_DOUBLE_EQ(sc.speedup(), 1.0);
                ASSERT_EQ(sc.kernels.size(), att.kernels.size());
                for (size_t i = 0; i < att.kernels.size(); ++i) {
                    const auto &got = sc.kernels[i];
                    const auto &want = att.kernels[i];
                    EXPECT_EQ(got.name, want.name);
                    EXPECT_EQ(got.calls, want.calls) << want.name;
                    EXPECT_EQ(got.bytes, want.bytes) << want.name;
                    EXPECT_EQ(got.macs, want.macs) << want.name;
                    EXPECT_EQ(got.mod_ops, want.mod_ops) << want.name;
                    EXPECT_EQ(got.int_ops, want.int_ops) << want.name;
                }
            }
        }
    }
}

} // namespace
} // namespace neo
