/**
 * neo::obs telemetry suite: histogram bucket scheme and percentile
 * semantics, the series derived from spans and GEMM shapes,
 * cross-registry merge, and the OpenMetrics and flamegraph exporters
 * against golden files.
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
// Derived series
// ---------------------------------------------------------------------

TEST(ObsRegistry, FreeProbesAreNoOpsWithoutSink)
{
    // Must not crash or leak state into a later scope.
    obs::add("nosink.c");
    obs::observe("nosink.h", 1.0);
    obs::Scope scope;
    EXPECT_EQ(scope.registry().counters().count("nosink.c"), 0u);
    EXPECT_EQ(scope.registry().histograms().count("nosink.h"), 0u);
    // With a sink installed the same probes land in it.
    obs::add("nosink.c", 3);
    obs::observe("nosink.h", 1.0);
    EXPECT_EQ(scope.counter("nosink.c"), 3u);
    EXPECT_EQ(scope.registry().histogram("nosink.h").count, 1u);
}

TEST(ObsRegistry, DerivedSeriesFollowFromSpansAndShapes)
{
    // Every span is stored once, under its (category, name); every
    // GEMM once, under its shape. The span counters, wall totals,
    // latency histograms and GEMM call/FLOP series are derived when
    // read, so check each against a histogram built from the same
    // durations by hand.
    struct Closed {
        const char *name;
        const char *cat;
        i64 dur_ns;
    };
    const std::vector<Closed> dst_spans = {
        {"tile", obs::cat::gemm, 250},    {"tile", obs::cat::gemm, 300},
        {"plane", obs::cat::gemm, 4000},  {"ntt_fwd", obs::cat::ntt, 900},
        {"ntt_inv", obs::cat::ntt, 1100}, {"intt_q", obs::cat::stage, 5000},
        {"ip", obs::cat::stage, 7000},
    };
    const std::vector<Closed> src_spans = {
        {"tile", obs::cat::gemm, 260},
        {"mntt_fwd", obs::cat::ntt, 12000},
        {"intt_q", obs::cat::stage, 5200},
        {"ntt_q", obs::cat::stage, 64},
    };
    obs::Registry dst, src;
    for (const Closed &sp : dst_spans)
        dst.record_event(sp.name, sp.cat, 0, 0, sp.dur_ns);
    for (const Closed &sp : src_spans)
        src.record_event(sp.name, sp.cat, 1, 0, sp.dur_ns);
    dst.add_gemm(256, 16, 16);
    dst.add_gemm(256, 16, 16);
    src.add_gemm(256, 16, 16);
    src.add_gemm(64, 8, 4);
    dst.merge_from(src);

    std::map<std::string, HistogramSnapshot> by_cat, by_name;
    for (const auto *list : {&dst_spans, &src_spans})
        for (const Closed &sp : *list) {
            by_cat[sp.cat].record(static_cast<double>(sp.dur_ns));
            by_name[std::string(sp.cat) + "." + sp.name].record(
                static_cast<double>(sp.dur_ns));
        }

    const auto counters = dst.counters();
    const auto values = dst.values();
    const auto hists = dst.histograms();
    for (const char *cat : {obs::cat::gemm, obs::cat::ntt, obs::cat::stage}) {
        SCOPED_TRACE(cat);
        const HistogramSnapshot &want = by_cat.at(cat);
        const std::string c(cat);
        EXPECT_EQ(counters.at("span." + c), want.count);
        EXPECT_EQ(values.at("wall." + c + ".ns"), want.sum);
        const HistogramSnapshot &lat = hists.at("lat." + c + ".ns");
        EXPECT_EQ(lat.buckets, want.buckets);
        EXPECT_EQ(lat.count, want.count);
        EXPECT_EQ(lat.sum, want.sum);
        EXPECT_EQ(lat.min, want.min);
        EXPECT_EQ(lat.max, want.max);
        // The single-name readers resolve the same derived series.
        EXPECT_EQ(dst.counter("span." + c), want.count);
        EXPECT_EQ(dst.value("wall." + c + ".ns"), want.sum);
        EXPECT_EQ(dst.histogram("lat." + c + ".ns").count, want.count);
    }
    EXPECT_EQ(counters.count("span.bconv"), 0u);

    // Per-name latency series exist for stage spans only.
    for (const char *name : {"intt_q", "ip", "ntt_q"}) {
        const auto &want = by_name.at(std::string("stage.") + name);
        const auto &got = hists.at(std::string("lat.stage.") + name + ".ns");
        EXPECT_EQ(got.buckets, want.buckets) << name;
        EXPECT_EQ(got.count, want.count) << name;
        EXPECT_EQ(got.sum, want.sum) << name;
    }
    for (const char *name : {"tile", "plane"})
        EXPECT_EQ(hists.count(std::string("lat.gemm.") + name + ".ns"), 0u)
            << name;
    for (const char *name : {"ntt_fwd", "ntt_inv", "mntt_fwd"})
        EXPECT_EQ(hists.count(std::string("lat.ntt.") + name + ".ns"), 0u)
            << name;

    // GEMM series from the two shapes: 3 calls of 256x16x16 and one
    // of 64x8x4.
    const u64 big = 2ull * 256 * 16 * 16, small = 2ull * 64 * 8 * 4;
    EXPECT_EQ(counters.at("gemm.calls"), 4u);
    EXPECT_EQ(counters.at("gemm.flops"), 3 * big + small);
    HistogramSnapshot want_flops;
    want_flops.record(static_cast<double>(big), 3);
    want_flops.record(static_cast<double>(small));
    const HistogramSnapshot &flops = hists.at("work.gemm.flops");
    EXPECT_EQ(flops.buckets, want_flops.buckets);
    EXPECT_EQ(flops.count, 4u);
    EXPECT_EQ(flops.sum, static_cast<double>(3 * big + small));
    EXPECT_EQ(flops.min, static_cast<double>(small));
    EXPECT_EQ(flops.max, static_cast<double>(big));
    const auto shapes = dst.gemm_shapes();
    ASSERT_EQ(shapes.size(), 2u);
    EXPECT_EQ((shapes.at(obs::GemmShape{256, 16, 16})), 3u);
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
    src.add_gemm(16, 16, 16);
    src.record_event("leaf", obs::cat::ntt, 0, 100, 10);

    dst.merge_from(src);
    EXPECT_EQ(dst.counter("c"), 3u);
    EXPECT_EQ(dst.value("v"), 1.5);
    EXPECT_EQ(dst.histogram("h").count, 2u);
    EXPECT_EQ(dst.histogram("h").min, 2.0);
    EXPECT_EQ(dst.histogram("h").max, 3.0);
    EXPECT_EQ(dst.gemm_shapes().size(), 1u);
    ASSERT_EQ(dst.events().size(), 1u); // src's leaf event came across
}

TEST(ObsMerge, MergeFromKeepsTheLargerHighWaterMark)
{
    // A high-water mark is a maximum, so merging takes the larger
    // mark instead of adding the two.
    obs::Registry dst, src;
    dst.max_value("m", 50);
    src.max_value("m", 10);
    src.max_value("fresh", 7);
    dst.merge_from(src);
    EXPECT_EQ(dst.value("m"), 50);
    EXPECT_EQ(dst.value("fresh"), 7);
    obs::Registry up;
    up.max_value("m", 80);
    dst.merge_from(up);
    EXPECT_EQ(dst.value("m"), 80);
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
          "neo_work_keyswitch_limbs_count 3", "neo_span_stage_total 2",
          "neo_wall_stage_ns 13000", "neo_gemm_calls_total 1",
          "neo_work_gemm_flops_count 1"})
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

TEST(ObsExporters, SummaryShowsValuesAndHistograms)
{
    obs::Registry reg(with_events());
    fill_metrics_golden(reg);
    std::ostringstream out;
    obs::export_summary(reg, out);
    const std::string s = out.str();
    for (const char *needle :
         {"modeled.keyswitch.s", "wall.stage.ns", "work.keyswitch.limbs",
          "p50", "p99"})
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
}

} // namespace
} // namespace neo
