/**
 * neo::obs — spans, counters, exporters, and the traced pipeline.
 *
 * The load-bearing assertion is TracedPipelineMatchesAnalyticCounts:
 * one keyswitch_klss_pipeline run must record exactly the GEMM / NTT /
 * BConv / IP span counts that keyswitch_pipeline_kernel_counts predicts
 * (the same numbers bench/table7_kernels prints) — the observability
 * layer and the closed-form kernel model agree invocation for
 * invocation.
 */
#include <gtest/gtest.h>

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

// ---------------------------------------------------------------------
// Spans and scopes
// ---------------------------------------------------------------------

TEST(ObsCore, ScopeInstallsAndRestoresSink)
{
    obs::Registry *ambient = obs::current();
    {
        obs::Scope outer;
        EXPECT_EQ(obs::current(), &outer.registry());
        {
            obs::Scope inner;
            EXPECT_EQ(obs::current(), &inner.registry());
            obs::Span span("nested", obs::cat::stage);
        }
        // The inner span was recorded in the inner scope only.
        EXPECT_EQ(outer.counter("span.stage"), 0u);
        EXPECT_EQ(obs::current(), &outer.registry());
    }
    EXPECT_EQ(obs::current(), ambient);
}

TEST(ObsCore, SpanNestingUnderParallelFor)
{
    obs::Scope::Options so;
    so.registry.record_events = true;
    obs::Scope scope(so);

    const size_t iters = 64;
    {
        obs::Span outer("outer", obs::cat::stage);
        parallel_for(0, iters, [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
                obs::Span inner("worker", obs::cat::ntt);
                (void)inner;
            }
        });
    }

    EXPECT_EQ(scope.counter("span.stage"), 1u);
    EXPECT_EQ(scope.counter("span.ntt"), iters);

    // Every worker span must fall inside the enclosing stage span's
    // [start, end) window — the timeline nests even across threads.
    auto events = scope.registry().events();
    ASSERT_EQ(events.size(), iters + 1);
    const obs::TraceEvent *outer_ev = nullptr;
    for (const auto &e : events)
        if (e.name == "outer")
            outer_ev = &e;
    ASSERT_NE(outer_ev, nullptr);
    for (const auto &e : events) {
        if (e.name != "worker")
            continue;
        EXPECT_GE(e.ts_ns, outer_ev->ts_ns);
        EXPECT_LE(e.ts_ns + e.dur_ns, outer_ev->ts_ns + outer_ev->dur_ns);
    }
}

TEST(ObsCore, EventCapIncrementsDroppedNotStored)
{
    obs::Registry::Options opts;
    opts.record_events = true;
    opts.max_events = 4;
    obs::Registry reg(opts);
    for (int i = 0; i < 10; ++i)
        reg.record_event("e", obs::cat::stage, 0, i, 1);
    EXPECT_EQ(reg.events().size(), 4u);
    EXPECT_EQ(reg.dropped_events(), 6u);
    // Counters keep counting past the event cap.
    EXPECT_EQ(reg.counter("span.stage"), 10u);
}

// ---------------------------------------------------------------------
// Engine registry
// ---------------------------------------------------------------------

TEST(ObsCore, PipelineEnginesFromName)
{
    // EngineRegistry is the one name <-> id mapping for the pipeline's
    // engines.
    for (const EngineId id : EngineRegistry::ids()) {
        EXPECT_EQ(EngineRegistry::parse(EngineRegistry::name(id)), id);
        EXPECT_EQ(EngineRegistry::try_parse(EngineRegistry::name(id)),
                  id);
    }
    EXPECT_THROW(EngineRegistry::parse("cuda"), std::invalid_argument);
    EXPECT_FALSE(EngineRegistry::try_parse("cuda").has_value());
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

/// Brace/bracket balance outside string literals — a cheap structural
/// well-formedness check for the chrome-trace JSON.
bool
json_balanced(const std::string &s)
{
    int brace = 0, bracket = 0;
    bool in_str = false, esc = false;
    for (char c : s) {
        if (in_str) {
            if (esc)
                esc = false;
            else if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
        case '"': in_str = true; break;
        case '{': ++brace; break;
        case '}': --brace; break;
        case '[': ++bracket; break;
        case ']': --bracket; break;
        default: break;
        }
        if (brace < 0 || bracket < 0)
            return false;
    }
    return brace == 0 && bracket == 0 && !in_str;
}

/// Fixed content shared by the exporter tests: two injected spans
/// with hand-picked timestamps, one counter, one GEMM.
void
fill_golden(obs::Registry &reg)
{
    reg.record_event("ntt_fwd", obs::cat::ntt, 0, 1000, 500);
    reg.record_event("gemm_tile", obs::cat::gemm, 1, 2000, 250);
    reg.add("ks.ntt_limbs", 7);
    reg.add_gemm(16, 16, 16);
}

obs::Registry::Options
with_events()
{
    obs::Registry::Options opts;
    opts.record_events = true;
    return opts;
}

TEST(ObsExport, ChromeJsonMatchesGoldenFile)
{
    obs::Registry reg(with_events());
    fill_golden(reg);
    std::ostringstream out;
    obs::export_chrome_json(reg, out);

    std::ifstream golden(std::string(NEO_TEST_DATA_DIR) +
                         "/obs_trace_golden.json");
    ASSERT_TRUE(golden.is_open()) << "missing tests/data golden file";
    std::stringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(out.str(), want.str());
    EXPECT_TRUE(json_balanced(out.str()));
}

TEST(ObsExport, SummaryListsCountersValuesAndShapes)
{
    obs::Registry reg(with_events());
    fill_golden(reg);
    std::ostringstream out;
    obs::export_summary(reg, out);
    const std::string s = out.str();
    for (const char *needle :
         {"ks.ntt_limbs", "span.ntt", "span.gemm", "gemm.calls",
          "wall.ntt.ns", "16x16x16"})
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
}

// ---------------------------------------------------------------------
// Traced pipeline
// ---------------------------------------------------------------------

struct ObsPipeline : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        params_ = new CkksParams(CkksParams::test_params(256, 5, 2));
        ctx_ = new CkksContext(*params_);
        KeyGenerator keygen(*ctx_, 17);
        SecretKey sk = keygen.secret_key();
        klss_rlk_ =
            new KlssEvalKey(keygen.to_klss(keygen.relin_key(sk)));
    }

    static void
    TearDownTestSuite()
    {
        delete klss_rlk_;
        delete ctx_;
        delete params_;
    }

    static RnsPoly
    random_eval_poly(size_t level, u64 seed)
    {
        Rng rng(seed);
        RnsPoly p(ctx_->n(), ctx_->active_mods(level), PolyForm::eval);
        for (size_t i = 0; i < p.limbs(); ++i)
            for (size_t l = 0; l < p.n(); ++l)
                p.limb(i)[l] = rng.uniform(p.modulus(i).value());
        return p;
    }

    static CkksParams *params_;
    static CkksContext *ctx_;
    static KlssEvalKey *klss_rlk_;
};

CkksParams *ObsPipeline::params_ = nullptr;
CkksContext *ObsPipeline::ctx_ = nullptr;
KlssEvalKey *ObsPipeline::klss_rlk_ = nullptr;

TEST_F(ObsPipeline, TracedPipelineMatchesAnalyticCounts)
{
    for (size_t level : {5u, 3u}) {
        RnsPoly d2 = random_eval_poly(level, 40 + level);
        obs::Scope scope;
        (void)keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_);

        const auto want =
            keyswitch_pipeline_kernel_counts(*ctx_, level);
        ASSERT_GT(want.gemm, 0u);
        ASSERT_GT(want.ntt, 0u);
        EXPECT_EQ(scope.counter("span.gemm"), want.gemm) << level;
        EXPECT_EQ(scope.counter("span.ntt"), want.ntt) << level;
        EXPECT_EQ(scope.counter("span.bconv"), want.bconv) << level;
        EXPECT_EQ(scope.counter("span.ip"), want.ip) << level;
        // Every GEMM span came from an engine call that also recorded
        // its shape.
        EXPECT_EQ(scope.counter("gemm.calls"), want.gemm) << level;
        EXPECT_EQ(scope.counter("pipeline.keyswitch"), 1u);
        EXPECT_GT(scope.registry().value("modeled.keyswitch.s"), 0.0);
    }
}

TEST_F(ObsPipeline, CountersDeterministicAcrossThreadCounts)
{
    RnsPoly d2 = random_eval_poly(5, 77);
    // Warm the hot-path caches (pipeline kernels, key operands) so both
    // measured runs are steady-state and count the same work.
    (void)keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_);
    std::map<std::string, u64, std::less<>> totals[2];
    const size_t threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        ThreadPool::set_global_threads(threads[i]);
        obs::Scope scope;
        (void)keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_);
        totals[i] = scope.registry().counters();
    }
    ThreadPool::set_global_threads(0); // back to NEO_NUM_THREADS
    EXPECT_EQ(totals[0], totals[1]);
    EXPECT_FALSE(totals[0].empty());
}

TEST_F(ObsPipeline, GlobalSinkCapturesPipelineWhenTraced)
{
    // Under the obs_trace_export ctest entry (NEO_TRACE=json) this
    // runs one keyswitch against the process-global registry, so the
    // exported trace carries a full kernel timeline. Without an
    // ambient sink it exercises the probes-compile-to-nothing path.
    RnsPoly d2 = random_eval_poly(5, 13);
    obs::Registry *ambient = obs::current();
    const u64 before =
        ambient ? ambient->counter("pipeline.keyswitch") : 0;
    (void)keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_);
    if (ambient != nullptr) {
        EXPECT_EQ(ambient->counter("pipeline.keyswitch"), before + 1);
    }
}

TEST_F(ObsPipeline, PipelineTraceExportsWellFormedJson)
{
    obs::Scope::Options so;
    so.registry.record_events = true;
    obs::Scope scope(so);
    RnsPoly d2 = random_eval_poly(5, 91);
    (void)keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_);

    std::ostringstream out;
    obs::export_chrome_json(scope.registry(), out);
    const std::string json = out.str();
    EXPECT_TRUE(json_balanced(json));
    for (const char *needle :
         {"\"traceEvents\"", "\"keyswitch_klss_pipeline\"",
          "\"pipeline_modup\"", "\"mntt_fwd\"", "\"neoCounters\"",
          "\"neoGemmShapes\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    EXPECT_EQ(scope.registry().dropped_events(), 0u);
}

} // namespace
} // namespace neo
