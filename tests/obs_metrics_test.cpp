/**
 * neo::obs telemetry suite (PR 8): histogram bucket scheme and
 * percentile semantics, gauges with high-water marks, cross-registry
 * merge, and the two new exporters against golden files.
 *
 * The load-bearing assertions are the determinism tests: the same
 * observation multiset must produce bit-identical bucket counts and
 * percentiles at 1/2/7/16 worker threads (synthetic values recorded
 * from inside parallel_for), and a fixed keyswitch workload must
 * produce identical work.* histograms across thread counts (wall-clock
 * lat.* series are excluded — durations are real time, not
 * deterministic).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "ckks/keygen.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "neo/pipeline.h"
#include "obs/obs.h"

namespace neo {
namespace {

using namespace ckks;
using obs::HistogramSnapshot;

std::string
golden_path(const char *name)
{
    return std::string(NEO_TEST_DATA_DIR) + "/" + name;
}

std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------
// Bucket scheme
// ---------------------------------------------------------------------

TEST(ObsHistogram, BucketIndexEdges)
{
    // Everything below 1 (and non-finite garbage) is the underflow
    // bucket; 1.0 starts the first real octave.
    EXPECT_EQ(HistogramSnapshot::bucket_index(0.0), 0);
    EXPECT_EQ(HistogramSnapshot::bucket_index(0.999), 0);
    EXPECT_EQ(HistogramSnapshot::bucket_index(-5.0), 0);
    EXPECT_EQ(HistogramSnapshot::bucket_index(
                  std::numeric_limits<double>::quiet_NaN()),
              0);
    EXPECT_EQ(HistogramSnapshot::bucket_index(1.0), 1);

    // Octave e=0 splits at 1, 1.25, 1.5, 1.75.
    EXPECT_EQ(HistogramSnapshot::bucket_index(1.24), 1);
    EXPECT_EQ(HistogramSnapshot::bucket_index(1.25), 2);
    EXPECT_EQ(HistogramSnapshot::bucket_index(1.5), 3);
    EXPECT_EQ(HistogramSnapshot::bucket_index(1.75), 4);
    EXPECT_EQ(HistogramSnapshot::bucket_index(2.0), 5);

    // Top bucket clamps everything at or above 2^64.
    const i32 top = HistogramSnapshot::kNumBuckets - 1;
    EXPECT_EQ(HistogramSnapshot::bucket_index(std::ldexp(1.0, 64)), top);
    EXPECT_EQ(HistogramSnapshot::bucket_index(
                  std::numeric_limits<double>::infinity()),
              top);
    EXPECT_EQ(HistogramSnapshot::bucket_index(std::ldexp(1.75, 63)), top);
}

TEST(ObsHistogram, EveryBucketContainsItsEdgesAndBoundsItsValues)
{
    for (i32 idx = 1; idx < HistogramSnapshot::kNumBuckets; ++idx) {
        const double lo = HistogramSnapshot::bucket_lower(idx);
        const double hi = HistogramSnapshot::bucket_upper(idx);
        ASSERT_LT(lo, hi);
        // Edge ratio ≤ 1.25 bounds the percentile overestimate.
        EXPECT_LE(hi / lo, 1.25 + 1e-12) << idx;
        // The inclusive lower edge maps into the bucket.
        EXPECT_EQ(HistogramSnapshot::bucket_index(lo), idx);
    }
    EXPECT_EQ(HistogramSnapshot::bucket_lower(0), 0.0);
    EXPECT_EQ(HistogramSnapshot::bucket_upper(0), 1.0);
}

TEST(ObsHistogram, PercentileSemantics)
{
    obs::Registry reg;
    // 100 observations 1..100: p50 covers the 50th smallest, p99 the
    // 99th; the bucket upper edge bounds them within 25%.
    for (int v = 1; v <= 100; ++v)
        reg.observe("work.test", v);
    const HistogramSnapshot h = reg.histogram("work.test");
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.min, 1.0);
    EXPECT_EQ(h.max, 100.0);
    EXPECT_EQ(h.sum, 5050.0);

    for (double p : {0.50, 0.95, 0.99}) {
        const double exact = std::ceil(p * 100);
        const double got = h.percentile(p);
        EXPECT_GE(got, exact) << p;
        EXPECT_LE(got, exact * 1.25) << p;
    }
    // The highest populated bucket reports the exact max; p outside
    // (0,1) pins to the exact extremes.
    EXPECT_EQ(h.percentile(1.0), 100.0);
    EXPECT_EQ(h.percentile(2.0), 100.0);
    EXPECT_EQ(h.percentile(0.0), 1.0);
    EXPECT_EQ(h.percentile(-1.0), 1.0);
    // A single-bucket histogram answers every quantile with its max.
    obs::Registry one;
    one.observe("x", 42.0);
    EXPECT_EQ(one.histogram("x").percentile(0.5), 42.0);
}

TEST(ObsHistogram, SnapshotMergeMatchesCombinedRecording)
{
    obs::Registry whole, part1, part2;
    Rng rng(123);
    for (int i = 0; i < 500; ++i) {
        const double v = static_cast<double>(rng.uniform(1u << 20));
        whole.observe("h", v);
        (i % 2 == 0 ? part1 : part2).observe("h", v);
    }
    HistogramSnapshot merged = part1.histogram("h");
    merged.merge(part2.histogram("h"));
    const HistogramSnapshot want = whole.histogram("h");
    EXPECT_EQ(merged.buckets, want.buckets);
    EXPECT_EQ(merged.count, want.count);
    EXPECT_EQ(merged.sum, want.sum);
    EXPECT_EQ(merged.min, want.min);
    EXPECT_EQ(merged.max, want.max);
}

// ---------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------

TEST(ObsGauges, SetAddMaxAndHighWater)
{
    obs::Registry reg;
    reg.set_gauge("g", 10);
    reg.add_gauge("g", 5);
    EXPECT_EQ(reg.gauge("g").current, 15);
    EXPECT_EQ(reg.gauge("g").high_water, 15);
    reg.add_gauge("g", -12);
    EXPECT_EQ(reg.gauge("g").current, 3);
    EXPECT_EQ(reg.gauge("g").high_water, 15); // marks never fall
    reg.max_gauge("g", 8);
    EXPECT_EQ(reg.gauge("g").current, 8);
    reg.max_gauge("g", 2); // below current: no-op
    EXPECT_EQ(reg.gauge("g").current, 8);
    EXPECT_EQ(reg.gauge("g").high_water, 15);
    reg.set_gauge("g", 1);
    EXPECT_EQ(reg.gauge("g").current, 1);
}

TEST(ObsGauges, FreeProbesAreNoOpsWithoutSink)
{
    // Must not crash or leak state into a later scope.
    obs::observe("nosink.h", 1.0);
    obs::set_gauge("nosink.g", 1.0);
    obs::add_gauge("nosink.g", 1.0);
    obs::max_gauge("nosink.g", 1.0);
    obs::Scope scope;
    EXPECT_EQ(scope.registry().gauges().count("nosink.g"), 0u);
    EXPECT_EQ(scope.registry().histograms().count("nosink.h"), 0u);
}

// ---------------------------------------------------------------------
// merge_from
// ---------------------------------------------------------------------

TEST(ObsMerge, MergeFromFoldsEverySeries)
{
    obs::Registry::Options ev;
    ev.record_events = true;
    obs::Registry dst(ev), src(ev);
    dst.add("c", 1);
    src.add("c", 2);
    src.add_value("v", 1.5);
    dst.observe("h", 2.0);
    src.observe("h", 3.0);
    dst.set_gauge("g", 50);
    src.set_gauge("g", 10); // newer level, lower mark
    src.add_gemm(16, 16, 16);
    src.record_event("leaf", obs::cat::ntt, 0, 100, 10);

    dst.merge_from(src);
    EXPECT_EQ(dst.counter("c"), 3u);
    EXPECT_EQ(dst.value("v"), 1.5);
    EXPECT_EQ(dst.histogram("h").count, 2u);
    EXPECT_EQ(dst.histogram("h").min, 2.0);
    EXPECT_EQ(dst.histogram("h").max, 3.0);
    // Gauge: other's current level, max of the high-water marks.
    EXPECT_EQ(dst.gauge("g").current, 10);
    EXPECT_EQ(dst.gauge("g").high_water, 50);
    EXPECT_EQ(dst.gemm_shapes().size(), 1u);
    ASSERT_EQ(dst.events().size(), 1u); // src's leaf event came across
}

TEST(ObsMerge, MergedEventsLandOnDestinationTimeline)
{
    obs::Registry::Options ev;
    ev.record_events = true;
    obs::Registry dst(ev);
    obs::Registry src(ev); // constructed after dst: later epoch
    src.record_event("leaf", obs::cat::ntt, 0, 1000, 10);
    dst.merge_from(src);
    bool found = false;
    for (const auto &e : dst.events()) {
        if (e.name != "leaf")
            continue;
        found = true;
        // src's epoch is at or after dst's, so the re-based timestamp
        // cannot move backwards.
        EXPECT_GE(e.ts_ns, 1000);
        EXPECT_EQ(e.dur_ns, 10);
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------

TEST(ObsDeterminism, SyntheticHistogramIdenticalAt1_2_7_16Threads)
{
    // The same multiset of values observed from worker threads must
    // produce byte-identical snapshots regardless of the thread count
    // or interleaving: bucket placement is value-only, and the sum is
    // exact integer accumulation below 2^53.
    std::vector<double> values(10000);
    Rng rng(7);
    for (auto &v : values)
        v = static_cast<double>(rng.uniform(1ull << 40));

    std::vector<HistogramSnapshot> snaps;
    for (size_t threads : {1u, 2u, 7u, 16u}) {
        ThreadPool::set_global_threads(threads);
        obs::Scope scope;
        parallel_for(0, values.size(), [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i)
                obs::observe("work.synthetic", values[i]);
        });
        snaps.push_back(scope.registry().histogram("work.synthetic"));
    }
    ThreadPool::set_global_threads(0);
    for (size_t i = 1; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[i].buckets, snaps[0].buckets);
        EXPECT_EQ(snaps[i].count, snaps[0].count);
        EXPECT_EQ(snaps[i].sum, snaps[0].sum);
        EXPECT_EQ(snaps[i].min, snaps[0].min);
        EXPECT_EQ(snaps[i].max, snaps[0].max);
        for (double p : {0.5, 0.95, 0.99})
            EXPECT_EQ(snaps[i].percentile(p), snaps[0].percentile(p));
    }
}

TEST(ObsDeterminism, KeyswitchWorkHistogramsIdenticalAcrossThreads)
{
    const CkksParams params = CkksParams::test_params(256, 5, 2);
    const CkksContext ctx(params);
    KeyGenerator keygen(ctx, 17);
    const KlssEvalKey rlk = keygen.to_klss(keygen.relin_key(
        keygen.secret_key()));
    Rng rng(99);
    RnsPoly d2(ctx.n(), ctx.active_mods(5), PolyForm::eval);
    for (size_t i = 0; i < d2.limbs(); ++i)
        for (size_t l = 0; l < d2.n(); ++l)
            d2.limb(i)[l] = rng.uniform(d2.modulus(i).value());
    // Warm the key's IP operands and the level's precomp so every
    // measured run is steady-state.
    (void)keyswitch_klss_pipeline(d2, rlk, ctx);

    std::vector<std::map<std::string, HistogramSnapshot, std::less<>>>
        runs;
    for (size_t threads : {1u, 2u, 7u, 16u}) {
        ThreadPool::set_global_threads(threads);
        obs::Scope scope;
        (void)keyswitch_klss_pipeline(d2, rlk, ctx);
        auto all = scope.registry().histograms();
        // Drop the wall-clock latency series: durations are real
        // time. Everything else (work.*) is value-deterministic.
        for (auto it = all.begin(); it != all.end();)
            it = it->first.rfind("lat.", 0) == 0 ? all.erase(it)
                                                 : std::next(it);
        runs.push_back(std::move(all));
    }
    ThreadPool::set_global_threads(0);
    ASSERT_FALSE(runs[0].empty());
    EXPECT_TRUE(runs[0].count("work.keyswitch.limbs"));
    EXPECT_TRUE(runs[0].count("work.gemm.flops"));
    for (size_t i = 1; i < runs.size(); ++i) {
        ASSERT_EQ(runs[i].size(), runs[0].size()) << i;
        for (const auto &[name, h] : runs[0]) {
            const auto &other = runs[i].at(name);
            EXPECT_EQ(other.buckets, h.buckets) << name;
            EXPECT_EQ(other.count, h.count) << name;
            EXPECT_EQ(other.sum, h.sum) << name;
            for (double p : {0.5, 0.95, 0.99})
                EXPECT_EQ(other.percentile(p), h.percentile(p)) << name;
        }
    }
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

/// Fixed registry content for the exporter goldens: everything is
/// injected (timestamps included), so the export is reproducible.
void
fill_metrics_golden(obs::Registry &reg)
{
    // A two-thread span timeline with nesting on tid 0:
    // pipeline(0..10000) > modup(1000..4000) > ntt(1500..2500);
    // a sibling leaf on tid 1.
    reg.record_event("ntt_fwd", obs::cat::ntt, 0, 1500, 1000);
    reg.record_event("pipeline_modup", obs::cat::stage, 0, 1000, 3000);
    reg.record_event("keyswitch", obs::cat::stage, 0, 0, 10000);
    reg.record_event("gemm_tile", obs::cat::gemm, 1, 2000, 250);
    reg.add("ks.ntt_limbs", 7);
    reg.add_gemm(256, 16, 16);
    reg.observe("work.keyswitch.limbs", 6);
    reg.observe("work.keyswitch.limbs", 6);
    reg.observe("work.keyswitch.limbs", 3);
    reg.set_gauge("plane_cache.resident_bytes", 8192);
    reg.add_gauge("plane_cache.resident_bytes", -4096);
    reg.add_value("modeled.keyswitch.s", 0.25);
}

obs::Registry::Options
with_events()
{
    obs::Registry::Options opts;
    opts.record_events = true;
    return opts;
}

TEST(ObsExporters, OpenMetricsMatchesGoldenFile)
{
    obs::Registry reg(with_events());
    fill_metrics_golden(reg);
    std::ostringstream out;
    obs::export_openmetrics(reg, out);
    EXPECT_EQ(out.str(), read_file(golden_path("obs_openmetrics_golden.txt")));
    // Structural spot checks, so a golden regen can't silently drop
    // the series the scrape contract promises.
    const std::string s = out.str();
    for (const char *needle :
         {"neo_ks_ntt_limbs_total 7", "# EOF",
          "neo_lat_stage_ns_bucket{le=", "neo_lat_stage_ns_p50",
          "neo_lat_stage_keyswitch_ns_p99",
          "neo_work_keyswitch_limbs_count 3",
          "neo_plane_cache_resident_bytes 4096",
          "neo_plane_cache_resident_bytes_high_water 8192"})
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
}

TEST(ObsExporters, FlamegraphMatchesGoldenFile)
{
    obs::Registry reg(with_events());
    fill_metrics_golden(reg);
    std::ostringstream out;
    obs::export_flamegraph(reg, out);
    EXPECT_EQ(out.str(), read_file(golden_path("obs_flame_golden.txt")));
    // The nested ntt is a leaf under keyswitch;modup, and every line
    // carries exclusive (self) time.
    const std::string s = out.str();
    EXPECT_NE(s.find("keyswitch;pipeline_modup;ntt_fwd 1000\n"),
              std::string::npos);
    EXPECT_NE(s.find("keyswitch;pipeline_modup 2000\n"),
              std::string::npos);
    EXPECT_NE(s.find("keyswitch 7000\n"), std::string::npos);
    EXPECT_NE(s.find("gemm_tile 250\n"), std::string::npos);
}

TEST(ObsExporters, ChromeExportByteStableUnderTidReorder)
{
    // The same spans recorded in a different arrival order (the racy
    // part of thread-index assignment) must export byte-identically:
    // the exporter orders by (tid, ts, name, dur), none of which
    // depend on arrival.
    obs::Registry a(with_events()), b(with_events());
    fill_metrics_golden(a);
    obs::Registry &r = b;
    r.record_event("gemm_tile", obs::cat::gemm, 1, 2000, 250);
    r.record_event("keyswitch", obs::cat::stage, 0, 0, 10000);
    r.record_event("ntt_fwd", obs::cat::ntt, 0, 1500, 1000);
    r.record_event("pipeline_modup", obs::cat::stage, 0, 1000, 3000);
    r.add("ks.ntt_limbs", 7);
    r.add_gemm(256, 16, 16);
    r.observe("work.keyswitch.limbs", 6);
    r.observe("work.keyswitch.limbs", 6);
    r.observe("work.keyswitch.limbs", 3);
    r.set_gauge("plane_cache.resident_bytes", 8192);
    r.add_gauge("plane_cache.resident_bytes", -4096);
    r.add_value("modeled.keyswitch.s", 0.25);

    std::ostringstream oa, ob;
    obs::export_chrome_json(a, oa);
    obs::export_chrome_json(b, ob);
    EXPECT_EQ(oa.str(), ob.str());

    // Tie case: same ts on two tids — tid-major order breaks the tie.
    obs::Registry t1(with_events()), t2(with_events());
    t1.record_event("x", obs::cat::ntt, 0, 500, 10);
    t1.record_event("x", obs::cat::ntt, 1, 500, 10);
    t2.record_event("x", obs::cat::ntt, 1, 500, 10);
    t2.record_event("x", obs::cat::ntt, 0, 500, 10);
    std::ostringstream o1, o2;
    obs::export_chrome_json(t1, o1);
    obs::export_chrome_json(t2, o2);
    EXPECT_EQ(o1.str(), o2.str());
}

TEST(ObsExporters, SummaryShowsGaugesAndHistograms)
{
    obs::Registry reg(with_events());
    fill_metrics_golden(reg);
    std::ostringstream out;
    obs::export_summary(reg, out);
    const std::string s = out.str();
    for (const char *needle :
         {"plane_cache.resident_bytes", "high water",
          "work.keyswitch.limbs", "p50", "p99"})
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
}

} // namespace
} // namespace neo
