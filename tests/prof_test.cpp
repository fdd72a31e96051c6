/**
 * neo::prof — the roofline profiler's contracts:
 *  - per-kernel rows decompose the modeled total exactly,
 *  - the functional keyswitch run's traced spans equal the analytic
 *    kernel counts (JSON totals == obs counters),
 *  - the artifact matches the committed golden file
 *    (tests/data/prof_report_golden.json),
 *  - compare() gates regressions / dropped metrics and skips wall
 *    time,
 *  - diff() attributes the delta between two artifacts per kernel and
 *    reproduces tests/data/prof_diff_golden.json byte for byte, and
 *  - the neo-prof CLI exits nonzero against a perturbed baseline and
 *    honours the --diff exit-code contract (0 clean / 1 gated /
 *    2 usage).
 */
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/json.h"
#include "prof/prof.h"

using namespace neo;

namespace {

double
rows_sum(const prof::Result &r)
{
    double s = 0;
    for (const auto &k : r.kernels)
        s += k.modeled_s;
    return s;
}

json::Value
artifact(const prof::Result &r)
{
    return json::Value::parse(prof::to_json(r));
}

/// metrics object -> flat map for test-side diffing.
std::map<std::string, double>
metric_map(const json::Value &doc)
{
    std::map<std::string, double> m;
    for (const auto &[k, v] : doc.at("metrics").as_object())
        m[k] = v.as_number();
    return m;
}

} // namespace

TEST(ProfModel, RowsSumToModeledTotal)
{
    for (const char *workload : {"mul", "rotate", "bootstrap"}) {
        for (const EngineId engine : EngineRegistry::ids()) {
            const auto name = EngineRegistry::name(engine);
            const auto r =
                prof::profile(workload, ExecPolicy::fixed(engine));
            ASSERT_FALSE(r.kernels.empty()) << workload << "/" << name;
            EXPECT_NEAR(rows_sum(r), r.modeled_total_s,
                        1e-9 * r.modeled_total_s)
                << workload << "/" << name;
            double frac = 0;
            for (const auto &k : r.kernels) {
                frac += k.fraction;
                EXPECT_TRUE(k.bound == "compute" || k.bound == "memory" ||
                            k.bound == "launch")
                    << k.name;
            }
            EXPECT_NEAR(frac, 1.0, 1e-9);
        }
    }
}

TEST(ProfModel, EnginesProduceDistinctTotals)
{
    const auto fp64 =
        prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu));
    const auto scalar =
        prof::profile("mul", ExecPolicy::fixed(EngineId::scalar));
    const auto int8 =
        prof::profile("mul", ExecPolicy::fixed(EngineId::int8_tcu));
    EXPECT_NE(fp64.modeled_total_s, scalar.modeled_total_s);
    EXPECT_NE(fp64.modeled_total_s, int8.modeled_total_s);
}

TEST(ProfModel, UnknownNamesThrow)
{
    EXPECT_THROW(prof::profile("nope", ExecPolicy{}),
                 std::invalid_argument);
    EXPECT_THROW(EngineRegistry::parse("warp_tcu"),
                 std::invalid_argument);
}

TEST(ProfKeyswitch, SpansMatchAnalyticCountsAndObsCounters)
{
    const auto r = prof::profile("keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu));
    EXPECT_EQ(r.mode, "functional");
    ASSERT_FALSE(r.expected_spans.empty());
    for (const auto &[name, want] : r.expected_spans) {
        const auto it = r.spans.find("span." + name);
        ASSERT_NE(it, r.spans.end()) << "span." << name;
        EXPECT_EQ(it->second, want) << "span." << name;
    }
    // The GEMM counter (bumped per emulated matmul) agrees with the
    // span count, tying the artifact to the obs registry totals.
    ASSERT_TRUE(r.spans.count("gemm.calls"));
    EXPECT_EQ(r.spans.at("gemm.calls"), r.expected_spans.at("gemm"));
    EXPECT_GT(r.wall_s, 0.0);
    EXPECT_NEAR(rows_sum(r), r.modeled_total_s,
                1e-9 * r.modeled_total_s);
}

TEST(ProfArtifact, JsonCarriesSchemaAndTotals)
{
    const auto r = prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu));
    const auto doc = artifact(r);
    EXPECT_EQ(doc.at("schema").as_string(), prof::kSchema);
    EXPECT_EQ(doc.at("kind").as_string(), "profile");
    EXPECT_EQ(doc.at("workload").as_string(), "mul");
    EXPECT_EQ(doc.at("engine").as_string(), "fp64_tcu");
    EXPECT_DOUBLE_EQ(doc.at("totals").at("modeled_s").as_number(),
                     r.modeled_total_s);
    const auto &kernels = doc.at("kernels").as_array();
    ASSERT_EQ(kernels.size(), r.kernels.size());
    double sum = 0;
    for (const auto &k : kernels)
        sum += k.at("modeled_s").as_number();
    EXPECT_NEAR(sum, doc.at("totals").at("modeled_s").as_number(),
                1e-9 * r.modeled_total_s);
    // The flat metrics mirror the structured totals.
    const auto m = metric_map(doc);
    EXPECT_DOUBLE_EQ(m.at("modeled.total_s"), r.modeled_total_s);
    EXPECT_DOUBLE_EQ(m.at("bytes.total"), r.bytes);
}

TEST(ProfArtifact, MatchesGoldenFile)
{
    const auto golden = json::Value::parse_file(
        std::string(NEO_TEST_DATA_DIR) + "/prof_report_golden.json");
    const auto cur = artifact(prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu)));
    EXPECT_EQ(cur.at("schema").as_string(),
              golden.at("schema").as_string());
    EXPECT_EQ(cur.at("workload").as_string(),
              golden.at("workload").as_string());
    const auto want = metric_map(golden);
    const auto got = metric_map(cur);
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[k, v] : want) {
        ASSERT_TRUE(got.count(k)) << k;
        EXPECT_NEAR(got.at(k), v, 1e-9 * std::abs(v) + 1e-15) << k;
    }
}

TEST(ProfOptions, FusedProfileFoldsModdownRows)
{
    const auto off = prof::profile(
        "keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu));
    const auto on = prof::profile(
        "keyswitch",
        ExecPolicy::fixed(EngineId::fp64_tcu, /*fuse=*/true));

    auto has_row = [](const prof::Result &r, const char *name) {
        for (const auto &k : r.kernels)
            if (k.name == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has_row(off, "moddown_fix"));
    EXPECT_TRUE(has_row(off, "moddown_bconv"));
    EXPECT_FALSE(has_row(off, "moddown_fused"));
    EXPECT_TRUE(has_row(on, "moddown_fused"));
    EXPECT_FALSE(has_row(on, "moddown_fix"));

    EXPECT_EQ(off.fused_kernels, 0u);
    EXPECT_GT(on.fused_kernels, 0u);
    EXPECT_LT(on.launches, off.launches);
    EXPECT_LT(on.modeled_total_s, off.modeled_total_s);
    // Fusion is an accounting change, not a precision change: the
    // functional pipeline underneath stays bit-identical, so the rows
    // still decompose the total exactly.
    EXPECT_NEAR(rows_sum(on), on.modeled_total_s,
                1e-9 * on.modeled_total_s);
}

TEST(ProfOptions, GraphCaptureRemovesLaunchBound)
{
    const auto off = prof::profile(
        "keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu));
    const auto on = prof::profile(
        "keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu,
                                       /*fuse=*/true, /*graph=*/true));

    // ISSUE acceptance: one graph replay instead of 12 per-kernel
    // launches, and the schedule is no longer launch-bound.
    EXPECT_EQ(on.launches, 1.0);
    EXPECT_EQ(on.graph_launches, 1.0);
    EXPECT_GT(off.launches, 2.0);
    EXPECT_EQ(off.graph_launches, 0.0);
    EXPECT_NE(on.bound, "launch");
    EXPECT_LT(on.modeled_total_s, off.modeled_total_s);
    // Per-row attribution re-prices launches at the effective graph
    // rate (schedule launch seconds spread over the captured nodes)
    // but still sums to the schedule total.
    EXPECT_NEAR(rows_sum(on), on.modeled_total_s,
                1e-9 * on.modeled_total_s);
    double on_launch = 0, off_launch = 0;
    for (const auto &k : on.kernels)
        on_launch += k.launch_s;
    for (const auto &k : off.kernels)
        off_launch += k.launch_s;
    EXPECT_LT(on_launch / on.modeled_total_s,
              off_launch / off.modeled_total_s);
}

TEST(ProfOptions, ArtifactCarriesOptionsAndNewTotals)
{
    const auto r = prof::profile(
        "mul", ExecPolicy::fixed(EngineId::fp64_tcu, /*fuse=*/true,
                                 /*graph=*/true));
    const auto doc = artifact(r);
    // The neo.bench/1 schema is extended, not broken: same schema id,
    // new totals fields, and an options block recording the axes.
    EXPECT_EQ(doc.at("schema").as_string(), prof::kSchema);
    EXPECT_TRUE(doc.at("options").at("fuse").as_bool());
    EXPECT_TRUE(doc.at("options").at("graph").as_bool());
    EXPECT_DOUBLE_EQ(doc.at("totals").at("graph_launches").as_number(),
                     r.graph_launches);
    EXPECT_DOUBLE_EQ(doc.at("totals").at("fused_kernels").as_number(),
                     static_cast<double>(r.fused_kernels));
    EXPECT_EQ(doc.at("totals").at("launches").as_number(), 1.0);
}

TEST(ProfSharded, ArtifactCarriesDevicesCommAndPerLinkRows)
{
    ExecPolicy p = ExecPolicy::fixed(EngineId::fp64_tcu,
                                     /*fuse=*/true, /*graph=*/true);
    p.devices = 2;
    p.interconnect = gpusim::Interconnect::nvlink;
    const auto r = prof::profile("keyswitch", p);
    EXPECT_EQ(r.devices, 2u);
    EXPECT_EQ(r.topology, "nvlink");
    // Per-device rows: one per device, their compute+comm shares
    // matching the totals the metrics gate on.
    ASSERT_EQ(r.per_device.size(), 2u);
    // nvlink(2) is fully connected: n(n-1) directed links.
    ASSERT_EQ(r.links.size(), 2u);
    for (const auto &lk : r.links) {
        EXPECT_GT(lk.bytes, 0.0);
        EXPECT_GT(lk.busy_s, 0.0);
        EXPECT_GT(lk.utilization, 0.0);
    }
    const auto doc = artifact(r);
    EXPECT_EQ(doc.at("devices").as_number(), 2.0);
    EXPECT_EQ(doc.at("topology").as_string(), "nvlink");
    ASSERT_EQ(doc.at("per_device").as_array().size(), 2u);
    ASSERT_EQ(doc.at("links").as_array().size(), 2u);
    const auto m = metric_map(doc);
    EXPECT_GT(m.at("comm.bytes.total"), 0.0);
    EXPECT_GT(m.at("comm.modeled.s"), 0.0);
    EXPECT_GT(m.at("modeled.single_device.s"), 0.0);
    // comm rows ride the kernel table, so --diff attributes them.
    bool comm_row = false;
    for (const auto &k : r.kernels)
        comm_row |= k.name.rfind("comm.", 0) == 0;
    EXPECT_TRUE(comm_row);
}

TEST(ProfSharded, SingleDeviceArtifactOmitsShardKeys)
{
    // Historical artifacts must stay byte-identical: no devices /
    // topology / per_device / links keys and no comm.* metrics
    // without --devices > 1.
    const auto doc = artifact(prof::profile(
        "keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu)));
    EXPECT_EQ(doc.find("devices"), nullptr);
    EXPECT_EQ(doc.find("topology"), nullptr);
    EXPECT_EQ(doc.find("per_device"), nullptr);
    EXPECT_EQ(doc.find("links"), nullptr);
    for (const auto &[k, v] : doc.at("metrics").as_object())
        EXPECT_NE(k.rfind("comm.", 0), 0u) << k;
}

TEST(ProfArtifact, MatchesFusedGoldenFile)
{
    // Same contract as MatchesGoldenFile, for the fuse+graph artifact:
    // the metric map must match tests/data/prof_report_fused_golden.json
    // key-for-key. The old golden (unfused) is still compared by
    // MatchesGoldenFile above, so both schema generations stay pinned.
    const auto golden = json::Value::parse_file(
        std::string(NEO_TEST_DATA_DIR) + "/prof_report_fused_golden.json");
    const auto cur = artifact(prof::profile(
        "mul", ExecPolicy::fixed(EngineId::fp64_tcu, /*fuse=*/true,
                                 /*graph=*/true)));
    EXPECT_EQ(cur.at("schema").as_string(),
              golden.at("schema").as_string());
    EXPECT_EQ(cur.at("workload").as_string(),
              golden.at("workload").as_string());
    EXPECT_TRUE(golden.at("options").at("fuse").as_bool());
    EXPECT_TRUE(golden.at("options").at("graph").as_bool());
    const auto want = metric_map(golden);
    const auto got = metric_map(cur);
    ASSERT_EQ(got.size(), want.size());
    for (const auto &[k, v] : want) {
        ASSERT_TRUE(got.count(k)) << k;
        EXPECT_NEAR(got.at(k), v, 1e-9 * std::abs(v) + 1e-15) << k;
    }
    // The PR 3 parser contract: compare() accepts the extended
    // artifact on both sides.
    EXPECT_TRUE(prof::compare(golden, cur).empty());
}

TEST(ProfCompare, SelfCompareIsClean)
{
    const auto doc = artifact(prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu)));
    EXPECT_TRUE(prof::compare(doc, doc).empty());
}

TEST(ProfCompare, DetectsInjectedRegression)
{
    const auto r = prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu));
    const auto cur = artifact(r);
    // Baseline with every metric 20% lower than current -> everything
    // regresses past the default 10% threshold.
    auto shrunk = r;
    for (auto &[k, v] : shrunk.metrics)
        v /= 1.2;
    const auto base = artifact(shrunk);
    const auto regs = prof::compare(base, cur);
    EXPECT_EQ(regs.size(), shrunk.metrics.size());
    for (const auto &reg : regs)
        EXPECT_NEAR(reg.ratio, 1.2, 1e-9);
    // A 20% threshold tolerates the same delta.
    prof::CompareOptions loose;
    loose.threshold = 0.25;
    EXPECT_TRUE(prof::compare(base, cur, loose).empty());
}

TEST(ProfCompare, MissingMetricIsARegression)
{
    auto r = prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu));
    const auto base = artifact(r);
    r.metrics.erase("bytes.total");
    const auto cur = artifact(r);
    const auto regs = prof::compare(base, cur);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "bytes.total");
    EXPECT_EQ(regs[0].ratio, 0.0);
}

TEST(ProfCompare, WallTimeSkippedUnlessGated)
{
    auto slow = prof::profile("keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu));
    auto fast = slow;
    fast.wall_s = slow.wall_s / 100.0;
    fast.metrics["wall.total_s"] = fast.wall_s;
    // Machine noise on the wall clock must not gate by default...
    EXPECT_TRUE(prof::compare(artifact(fast), artifact(slow)).empty());
    // ...but can be opted into.
    prof::CompareOptions gated;
    gated.gate_wall = true;
    const auto regs = prof::compare(artifact(fast), artifact(slow), gated);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "wall.total_s");
}

TEST(ProfDist, RepeatEmitsDistSubObject)
{
    const auto r = prof::profile(
        "keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu), 0,
        /*repeat=*/3);
    ASSERT_TRUE(r.dist.count("wall.total_s"));
    const prof::Dist &d = r.dist.at("wall.total_s");
    // The median sample is both the headline wall time and the p50.
    EXPECT_EQ(d.p50, r.wall_s);
    EXPECT_LE(d.p50, d.p95);
    EXPECT_LE(d.p95, d.max);
    EXPECT_GT(d.p50, 0.0);
    const auto doc = artifact(r);
    const json::Value *dist = doc.find("dist");
    ASSERT_NE(dist, nullptr);
    EXPECT_DOUBLE_EQ(
        dist->at("wall.total_s").at("p95").as_number(), d.p95);
}

TEST(ProfDist, SingleRunArtifactOmitsDistKey)
{
    // repeat == 1 must keep the historical key set byte for byte.
    const auto r = prof::profile(
        "keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu));
    EXPECT_TRUE(r.dist.empty());
    EXPECT_EQ(artifact(r).find("dist"), nullptr);
    EXPECT_EQ(prof::to_json(r).find("\"dist\""), std::string::npos);
}

namespace {

json::Value
diff_fixture(const char *name)
{
    return json::Value::parse_file(std::string(NEO_TEST_DATA_DIR) + "/" +
                                   name);
}

} // namespace

TEST(ProfDiff, SelfDiffIsCleanAndFullyAttributed)
{
    const auto doc = artifact(
        prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu)));
    const auto d = prof::diff(doc, doc);
    EXPECT_FALSE(d.gated());
    EXPECT_TRUE(d.spans.empty());
    EXPECT_TRUE(d.metrics.empty());
    ASSERT_FALSE(d.kernels.empty()); // every kernel listed, all flat
    for (const auto &k : d.kernels) {
        EXPECT_EQ(k.delta, 0.0) << k.name;
        EXPECT_EQ(k.ratio, 1.0) << k.name;
    }
}

TEST(ProfDiff, AttributesDeltaAcrossKernelUnion)
{
    // fuse off vs on changes the kernel set (moddown_fix/_bconv fold
    // into moddown_fused): the diff must cover the union and its
    // kernel shares must decompose the total movement exactly.
    const auto base = artifact(prof::profile(
        "keyswitch", ExecPolicy::fixed(EngineId::fp64_tcu)));
    const auto cur = artifact(prof::profile(
        "keyswitch",
        ExecPolicy::fixed(EngineId::fp64_tcu, /*fuse=*/true)));
    const auto d = prof::diff(base, cur);
    EXPECT_LT(d.cur_total_s, d.base_total_s);

    bool fused = false, fix = false;
    double share_sum = 0;
    for (const auto &k : d.kernels) {
        fused |= k.name == "moddown_fused";
        fix |= k.name == "moddown_fix";
        share_sum += k.share;
    }
    EXPECT_TRUE(fused);
    EXPECT_TRUE(fix);
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    // |delta| descending.
    for (size_t i = 1; i < d.kernels.size(); ++i)
        EXPECT_GE(std::abs(d.kernels[i - 1].delta),
                  std::abs(d.kernels[i].delta));
    // The fused run is faster, but fusion renames kernel rows — the
    // gate still fires on the dropped modeled.kernel.moddown_* keys
    // (ratio 0 marks a dropped metric, not a slowdown), preserving
    // compare()'s renames-can't-drop-coverage contract.
    EXPECT_TRUE(d.gated());
    for (const auto &reg : d.regressions)
        EXPECT_EQ(reg.ratio, 0.0) << reg.metric;
    // The reverse direction carries genuine slowdowns (ratio > 1).
    const auto rev = prof::diff(cur, base);
    ASSERT_TRUE(rev.gated());
    bool real_slowdown = false;
    for (const auto &reg : rev.regressions)
        real_slowdown |= reg.ratio > 1.0;
    EXPECT_TRUE(real_slowdown);
}

TEST(ProfDiff, MatchesGoldenFile)
{
    const auto d = prof::diff(diff_fixture("prof_diff_base.json"),
                              diff_fixture("prof_diff_cur.json"));
    // The checked-in pair encodes an ntt regression plus a new ip
    // kernel: attribution splits the 0.3 ms movement 2:1.
    ASSERT_GE(d.kernels.size(), 3u);
    EXPECT_EQ(d.kernels[0].name, "ntt");
    EXPECT_NEAR(d.kernels[0].share, 2.0 / 3.0, 1e-9);
    EXPECT_EQ(d.kernels[1].name, "ip");
    EXPECT_NEAR(d.kernels[1].share, 1.0 / 3.0, 1e-9);
    EXPECT_TRUE(d.gated());

    std::ifstream golden(std::string(NEO_TEST_DATA_DIR) +
                         "/prof_diff_golden.json");
    ASSERT_TRUE(golden.is_open());
    std::stringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(prof::diff_to_json(d) + "\n", want.str());
}

TEST(ProfDiff, HandlesBenchKindArtifactsWithoutKernels)
{
    // bench_util artifacts have no kernels array: the diff degrades to
    // a metrics comparison instead of throwing.
    const auto base = json::Value::parse(
        R"({"schema":"neo.bench/1","kind":"bench","id":"x",)"
        R"("metrics":{"a":1,"b":2}})");
    const auto cur = json::Value::parse(
        R"({"schema":"neo.bench/1","kind":"bench","id":"x",)"
        R"("metrics":{"a":1,"b":3}})");
    const auto d = prof::diff(base, cur);
    EXPECT_TRUE(d.kernels.empty());
    ASSERT_EQ(d.metrics.size(), 1u);
    EXPECT_EQ(d.metrics[0].name, "b");
    EXPECT_EQ(d.metrics[0].delta, 1.0);
    EXPECT_TRUE(d.gated()); // b regressed 50%
}

#ifdef NEO_PROF_BIN
namespace {

int
run_cli(const std::string &args)
{
    const int status =
        std::system((std::string(NEO_PROF_BIN) + " " + args).c_str());
    return WEXITSTATUS(status);
}

} // namespace

TEST(ProfCli, BaselineGateExitsNonzeroOnRegression)
{
    const std::string dir = ::testing::TempDir();
    const std::string cur_path = dir + "/prof_cli_current.json";
    const std::string base_path = dir + "/prof_cli_baseline.json";

    ASSERT_EQ(run_cli("mul --engine fp64_tcu --json " + cur_path +
                      " >/dev/null"),
              0);

    // Self-compare: clean.
    EXPECT_EQ(run_cli("mul --engine fp64_tcu --baseline " + cur_path +
                      " >/dev/null"),
              0);

    // Perturb the baseline 20% downward: the live run now reads as a
    // >=10% regression and the gate must fail the build.
    auto r = prof::profile("mul", ExecPolicy::fixed(EngineId::fp64_tcu));
    for (auto &[k, v] : r.metrics)
        v /= 1.2;
    prof::write_json(r, base_path);
    EXPECT_EQ(run_cli("mul --engine fp64_tcu --baseline " + base_path +
                      " >/dev/null"),
              1);

    // Usage errors are distinct from regressions.
    EXPECT_EQ(run_cli("definitely-not-a-workload >/dev/null 2>&1"), 2);
}

TEST(ProfCli, DiffExitCodeContract)
{
    const std::string base =
        std::string(NEO_TEST_DATA_DIR) + "/prof_diff_base.json";
    const std::string cur =
        std::string(NEO_TEST_DATA_DIR) + "/prof_diff_cur.json";
    // Self-diff: clean.
    EXPECT_EQ(run_cli("--diff " + base + " " + base + " >/dev/null"), 0);
    // The checked-in pair regresses past the default threshold.
    EXPECT_EQ(run_cli("--diff " + base + " " + cur + " >/dev/null"), 1);
    // A loose threshold tolerates it.
    EXPECT_EQ(run_cli("--diff " + base + " " + cur +
                      " --threshold 0.6 >/dev/null"),
              0);
    // Usage / IO errors are distinct from gating.
    EXPECT_EQ(run_cli("--diff " + base + " /no/such.json"
                      " >/dev/null 2>&1"),
              2);
    EXPECT_EQ(run_cli("--diff " + base + " >/dev/null 2>&1"), 2);

    // --json writes the machine-readable report (golden-pinned via
    // the library test above).
    const std::string out = ::testing::TempDir() + "/prof_cli_diff.json";
    EXPECT_EQ(run_cli("--diff " + base + " " + cur + " --json " + out +
                      " >/dev/null"),
              1);
    const auto doc = json::Value::parse_file(out);
    EXPECT_EQ(doc.at("schema").as_string(), prof::kDiffSchema);
    EXPECT_TRUE(doc.at("gated").as_bool());
}
#endif
