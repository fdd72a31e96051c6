#include "obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "common/json.h"
#include "common/table.h"
#include "common/workspace.h"

namespace neo::obs {

namespace detail {
std::atomic<Registry *> g_current{nullptr};
} // namespace detail

static i64
steady_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

u32
thread_index()
{
    static std::atomic<u32> next{0};
    thread_local u32 idx = next.fetch_add(1, std::memory_order_relaxed);
    return idx;
}

// ---------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------

i32
HistogramSnapshot::bucket_index(double v)
{
    // NaN, negatives and everything below 1 share the underflow
    // bucket; latencies/byte counts recorded by the built-in probes
    // are integers ≥ 0, so only zeros land here in practice.
    if (!(v >= 1.0))
        return 0;
    int e = std::ilogb(v); // floor(log2 v); exact for finite doubles
    if (e > kMaxExp)
        return kNumBuckets - 1;
    // Mantissa in [1, 2); ldexp is exact, so sub-bucket placement is
    // bit-deterministic.
    const double m = std::ldexp(v, -e);
    int j = static_cast<int>((m - 1.0) * kSubBuckets);
    if (j > kSubBuckets - 1)
        j = kSubBuckets - 1;
    return 1 + e * kSubBuckets + j;
}

double
HistogramSnapshot::bucket_lower(i32 idx)
{
    if (idx <= 0)
        return 0.0;
    const i32 k = idx - 1;
    const int e = k / kSubBuckets;
    const int j = k % kSubBuckets;
    return std::ldexp(1.0 + 0.25 * j, e);
}

double
HistogramSnapshot::bucket_upper(i32 idx)
{
    if (idx < 0)
        return 0.0;
    if (idx == 0)
        return 1.0;
    if (idx >= kNumBuckets - 1)
        return std::ldexp(1.0, kMaxExp + 1); // 2^64
    return bucket_lower(idx + 1);
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    if (p <= 0.0)
        return min;
    if (p >= 1.0)
        return max;
    u64 rank = static_cast<u64>(
        std::ceil(p * static_cast<double>(count)));
    rank = std::max<u64>(1, std::min(rank, count));
    u64 cum = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        cum += buckets[i].second;
        if (cum >= rank) {
            // The top populated bucket reports the exact max (the
            // rank-th observation can be no larger).
            if (i + 1 == buckets.size())
                return max;
            return bucket_upper(buckets[i].first);
        }
    }
    return max; // unreachable when invariants hold
}

namespace {

/// Add @p times to bucket @p idx, keeping the buckets sorted by index.
void
bump(std::vector<std::pair<i32, u64>> &buckets, i32 idx, u64 times)
{
    auto it = std::lower_bound(buckets.begin(), buckets.end(),
                               std::pair<i32, u64>{idx, 0});
    if (it == buckets.end() || it->first != idx)
        it = buckets.insert(it, {idx, 0});
    it->second += times;
}

/// The entry for @p name, inserted as @p init when missing: only a
/// name's first record allocates its key.
template <class Map>
typename Map::mapped_type &
entry(Map &map, std::string_view name, typename Map::mapped_type init = {})
{
    auto it = map.find(name);
    if (it == map.end())
        it = map.emplace(std::string(name), std::move(init)).first;
    return it->second;
}

/// The value stored under @p name in a reader's snapshot, or zero.
template <class Map>
typename Map::mapped_type
lookup(const Map &map, std::string_view name)
{
    auto it = map.find(name);
    return it == map.end() ? typename Map::mapped_type{} : it->second;
}

} // namespace

void
HistogramSnapshot::record(double v, u64 times)
{
    if (times == 0)
        return;
    bump(buckets, bucket_index(v), times);
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    count += times;
    sum += v * static_cast<double>(times);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    for (const auto &[idx, c] : other.buckets)
        bump(buckets, idx, c);
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    sum += other.sum;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

Registry::Registry() : Registry(Options{}) {}

Registry::Registry(Options opts) : opts_(opts), epoch_ns_(steady_ns()) {}

i64
Registry::now_ns() const
{
    return steady_ns() - epoch_ns_;
}

void
Registry::add(std::string_view name, u64 delta)
{
    LockGuard lock(mu_);
    entry(t_.counters, name) += delta;
}

void
Registry::add_value(std::string_view name, double delta)
{
    LockGuard lock(mu_);
    entry(t_.values, name) += delta;
}

void
Registry::max_value(std::string_view name, double v)
{
    LockGuard lock(mu_);
    double &mark = entry(t_.marks, name, v);
    mark = std::max(mark, v);
}

void
Registry::observe(std::string_view name, double v)
{
    LockGuard lock(mu_);
    entry(t_.hists, name).record(v);
}

void
Registry::add_gemm(size_t m, size_t n, size_t k)
{
    LockGuard lock(mu_);
    t_.gemm_shapes[GemmShape{m, n, k}] += 1;
}

void
Registry::record_event(std::string_view name, const char *cat, u32 tid,
                       i64 ts_ns, i64 dur_ns)
{
    LockGuard lock(mu_);
    entry(entry(t_.spans, cat), name).record(static_cast<double>(dur_ns));
    if (!opts_.record_events)
        return;
    if (t_.events.size() >= opts_.max_events) {
        ++t_.dropped;
        return;
    }
    t_.events.push_back(TraceEvent{std::string(name), cat, tid, ts_ns, dur_ns});
}

std::map<std::string, u64, std::less<>>
Registry::counters() const
{
    LockGuard lock(mu_);
    auto out = t_.counters;
    for (const auto &[category, names] : t_.spans) {
        u64 &spans = out["span." + category];
        for (const auto &[name, h] : names)
            spans += h.count;
    }
    for (const auto &[shape, calls] : t_.gemm_shapes) {
        out["gemm.calls"] += calls;
        out["gemm.flops"] += calls * shape.flops();
    }
    return out;
}

std::map<std::string, double, std::less<>>
Registry::values() const
{
    LockGuard lock(mu_);
    auto out = t_.values;
    out.insert(t_.marks.begin(), t_.marks.end());
    for (const auto &[category, names] : t_.spans) {
        double &wall = out["wall." + category + ".ns"];
        for (const auto &[name, h] : names)
            wall += h.sum;
    }
    return out;
}

Registry::Histograms
Registry::histograms() const
{
    LockGuard lock(mu_);
    auto out = t_.hists;
    for (const auto &[category, names] : t_.spans) {
        // Per-name latency series only for the coarse-grained op/stage
        // categories: kernel categories have too many call sites.
        const bool per_name = category == cat::op || category == cat::stage;
        HistogramSnapshot &lat = out["lat." + category + ".ns"];
        for (const auto &[name, h] : names) {
            lat.merge(h);
            if (per_name)
                out["lat." + category + "." + name + ".ns"].merge(h);
        }
    }
    // Per-call FLOP distribution: deterministic across thread counts
    // (it depends only on the call mix, not on timing).
    for (const auto &[shape, calls] : t_.gemm_shapes)
        out["work.gemm.flops"].record(static_cast<double>(shape.flops()),
                                      calls);
    return out;
}

u64
Registry::counter(std::string_view name) const
{
    return lookup(counters(), name);
}

double
Registry::value(std::string_view name) const
{
    return lookup(values(), name);
}

HistogramSnapshot
Registry::histogram(std::string_view name) const
{
    return lookup(histograms(), name);
}

void
Registry::merge_from(const Registry &other)
{
    if (&other == this)
        return;
    // Copy `other`'s tables under its own lock first, then lock
    // ourselves: no thread ever holds both locks, so merges cannot
    // deadlock.
    Tables src;
    {
        LockGuard lock(other.mu_);
        src = other.t_;
    }
    // Both epochs come from the same steady clock, so this shift
    // re-bases `other`'s event timestamps onto our epoch exactly.
    const i64 shift = other.epoch_ns_ - epoch_ns_;

    LockGuard lock(mu_);
    for (const auto &[name, v] : src.counters)
        t_.counters[name] += v;
    for (const auto &[name, v] : src.values)
        t_.values[name] += v;
    for (const auto &[name, v] : src.marks) {
        double &mark = entry(t_.marks, name, v);
        mark = std::max(mark, v);
    }
    for (const auto &[name, h] : src.hists)
        t_.hists[name].merge(h);
    for (const auto &[category, names] : src.spans)
        for (const auto &[name, h] : names)
            t_.spans[category][name].merge(h);
    for (const auto &[shape, calls] : src.gemm_shapes)
        t_.gemm_shapes[shape] += calls;
    t_.dropped += src.dropped;
    if (!opts_.record_events)
        return;
    for (TraceEvent &e : src.events) {
        if (t_.events.size() >= opts_.max_events) {
            ++t_.dropped;
            continue;
        }
        e.ts_ns += shift;
        t_.events.push_back(std::move(e));
    }
}

std::map<GemmShape, u64>
Registry::gemm_shapes() const
{
    LockGuard lock(mu_);
    return t_.gemm_shapes;
}

std::vector<TraceEvent>
Registry::events() const
{
    LockGuard lock(mu_);
    return t_.events;
}

u64
Registry::dropped_events() const
{
    LockGuard lock(mu_);
    return t_.dropped;
}

// ---------------------------------------------------------------------
// Activation
// ---------------------------------------------------------------------

Activate::Activate(Registry *r)
{
    if (r == nullptr)
        return;
    prev_ = detail::g_current.exchange(r, std::memory_order_acq_rel);
    active_ = true;
}

Activate::~Activate()
{
    if (active_)
        detail::g_current.store(prev_, std::memory_order_release);
}

Scope::Scope() : Scope(Options{}) {}

Scope::Scope(Options opts) : reg_(opts.registry)
{
    if (!opts.activate)
        return;
    prev_ = detail::g_current.exchange(&reg_, std::memory_order_acq_rel);
    active_ = true;
}

Scope::~Scope()
{
    if (active_)
        detail::g_current.store(prev_, std::memory_order_release);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

void
export_chrome_json(const Registry &reg, std::ostream &out)
{
    auto events = reg.events();
    // Sort by (tid, ts, name): thread-index assignment order races
    // with the first span's timestamp, so a ts-major order is not
    // byte-stable across runs at fixed inputs — a tid-major order is
    // (each lane's events are totally ordered by its own clock).
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.ts_ns != b.ts_ns)
                      return a.ts_ns < b.ts_ns;
                  if (a.name != b.name)
                      return a.name < b.name;
                  return a.dur_ns < b.dur_ns;
              });
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const auto &e : events) {
        if (!first)
            out << ",";
        first = false;
        out << "\n{\"name\":" << json::escape(e.name) << ",\"cat\":\""
            << e.cat << "\",\"ph\":\"X\",\"pid\":1"
            << ",\"tid\":" << e.tid
            << strfmt(",\"ts\":%.3f,\"dur\":%.3f}",
                      static_cast<double>(e.ts_ns) / 1e3,
                      static_cast<double>(e.dur_ns) / 1e3);
    }
    out << "\n],\n\"displayTimeUnit\":\"ns\",\n\"neoCounters\":{";
    first = true;
    for (const auto &[name, v] : reg.counters()) {
        if (!first)
            out << ",";
        first = false;
        out << "\n" << json::escape(name) << ":" << v;
    }
    out << "},\n\"neoValues\":{";
    first = true;
    for (const auto &[name, v] : reg.values()) {
        if (!first)
            out << ",";
        first = false;
        out << "\n" << json::escape(name) << strfmt(":%.6g", v);
    }
    out << "},\n\"neoGemmShapes\":{";
    first = true;
    for (const auto &[shape, count] : reg.gemm_shapes()) {
        if (!first)
            out << ",";
        first = false;
        out << strfmt("\n\"%llux%llux%llu\":%llu",
                      static_cast<unsigned long long>(shape.m),
                      static_cast<unsigned long long>(shape.n),
                      static_cast<unsigned long long>(shape.k),
                      static_cast<unsigned long long>(count));
    }
    out << strfmt("},\n\"neoDroppedEvents\":%llu\n}\n",
                  static_cast<unsigned long long>(reg.dropped_events()));
}

/// Human-readable metric value: time for .ns/.s series, bytes for
/// byte series, %.6g otherwise.
static std::string
shown_metric(const std::string &name, double v)
{
    if (name.size() > 3 && name.compare(name.size() - 3, 3, ".ns") == 0)
        return format_time(v / 1e9);
    if (name.find("bytes") != std::string::npos)
        return format_bytes(v);
    if (name.size() > 2 && name.compare(name.size() - 2, 2, ".s") == 0)
        return format_time(v);
    return strfmt("%.6g", v);
}

void
export_summary(const Registry &reg, std::ostream &out)
{
    out << "== neo::obs summary ==\n";
    TextTable counters;
    counters.header({"counter", "total"});
    for (const auto &[name, v] : reg.counters())
        counters.row({name, strfmt("%llu", static_cast<unsigned long long>(v))});
    out << counters.str();

    auto values = reg.values();
    if (!values.empty()) {
        TextTable vt;
        vt.header({"value", "total"});
        for (const auto &[name, v] : values)
            vt.row({name, shown_metric(name, v)});
        out << "\n" << vt.str();
    }

    auto hists = reg.histograms();
    if (!hists.empty()) {
        TextTable ht;
        ht.header({"histogram", "count", "p50", "p95", "p99", "max"});
        for (const auto &[name, h] : hists)
            ht.row({name,
                    strfmt("%llu", static_cast<unsigned long long>(h.count)),
                    shown_metric(name, h.percentile(0.50)),
                    shown_metric(name, h.percentile(0.95)),
                    shown_metric(name, h.percentile(0.99)),
                    shown_metric(name, h.max)});
        out << "\n" << ht.str();
    }

    auto shapes = reg.gemm_shapes();
    if (!shapes.empty()) {
        TextTable st;
        st.header({"gemm shape (MxNxK)", "calls"});
        for (const auto &[shape, count] : shapes)
            st.row({strfmt("%llux%llux%llu",
                           static_cast<unsigned long long>(shape.m),
                           static_cast<unsigned long long>(shape.n),
                           static_cast<unsigned long long>(shape.k)),
                    strfmt("%llu", static_cast<unsigned long long>(count))});
        out << "\n" << st.str();
    }
    if (reg.dropped_events() != 0)
        out << strfmt("\ndropped events: %llu\n",
                      static_cast<unsigned long long>(reg.dropped_events()));
}

// ---------------------------------------------------------------------
// OpenMetrics exposition
// ---------------------------------------------------------------------

/// `neo_` + name with every non-[a-zA-Z0-9_] byte mapped to '_'.
static std::string
om_name(std::string_view raw)
{
    std::string out = "neo_";
    for (char c : raw) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

void
export_openmetrics(const Registry &reg, std::ostream &out)
{
    const auto type_line = [&out](const std::string &n, const char *type) {
        out << "# TYPE " << n << ' ' << type << '\n';
    };

    for (const auto &[name, v] : reg.counters()) {
        const std::string n = om_name(name);
        type_line(n, "counter");
        out << n << "_total " << v << '\n';
    }
    for (const auto &[name, v] : reg.values()) {
        const std::string n = om_name(name);
        type_line(n, "gauge");
        out << n << ' ' << json::number_to_string(v) << '\n';
    }
    for (const auto &[name, h] : reg.histograms()) {
        const std::string n = om_name(name);
        type_line(n, "histogram");
        u64 cum = 0;
        for (const auto &[idx, c] : h.buckets) {
            cum += c;
            out << n << "_bucket{le=\""
                << json::number_to_string(
                       HistogramSnapshot::bucket_upper(idx))
                << "\"} " << cum << '\n';
        }
        out << n << "_bucket{le=\"+Inf\"} " << h.count << '\n';
        out << n << "_sum " << json::number_to_string(h.sum) << '\n';
        out << n << "_count " << h.count << '\n';
        static constexpr struct {
            const char *suffix;
            double p;
        } kQuantiles[] = {{"_p50", 0.50},
                          {"_p95", 0.95},
                          {"_p99", 0.99},
                          {"_max", 1.0}};
        for (const auto &q : kQuantiles) {
            type_line(n + q.suffix, "gauge");
            out << n << q.suffix << ' '
                << json::number_to_string(h.percentile(q.p)) << '\n';
        }
    }
    if (reg.dropped_events() != 0) {
        type_line("neo_obs_dropped_events", "counter");
        out << "neo_obs_dropped_events_total " << reg.dropped_events()
            << '\n';
    }
    out << "# EOF\n";
}

// ---------------------------------------------------------------------
// Collapsed-stack flamegraph
// ---------------------------------------------------------------------

void
export_flamegraph(const Registry &reg, std::ostream &out)
{
    auto events = reg.events();
    // Per-lane processing order: parents start no later than their
    // children and outlive them, so (ts asc, dur desc) visits each
    // parent before its children on the same tid.
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.ts_ns != b.ts_ns)
                      return a.ts_ns < b.ts_ns;
                  if (a.dur_ns != b.dur_ns)
                      return a.dur_ns > b.dur_ns;
                  return a.name < b.name;
              });

    struct Frame {
        const TraceEvent *e;
        i64 end_ns;
        i64 child_ns = 0;
    };
    std::map<std::string, i64> flame; // stack path -> exclusive ns
    std::vector<Frame> stack;
    const auto pop_top = [&flame, &stack]() {
        const Frame f = stack.back();
        stack.pop_back();
        const i64 self = f.e->dur_ns - f.child_ns;
        if (self > 0) {
            std::string path;
            for (const Frame &g : stack) {
                path += g.e->name;
                path += ';';
            }
            path += f.e->name;
            flame[path] += self;
        }
        if (!stack.empty())
            stack.back().child_ns += f.e->dur_ns;
    };

    for (size_t i = 0; i < events.size(); ++i) {
        if (i > 0 && events[i].tid != events[i - 1].tid)
            while (!stack.empty())
                pop_top();
        const TraceEvent &e = events[i];
        while (!stack.empty() && stack.back().end_ns <= e.ts_ns)
            pop_top();
        stack.push_back(Frame{&e, e.ts_ns + e.dur_ns, 0});
    }
    while (!stack.empty())
        pop_top();

    for (const auto &[path, self_ns] : flame)
        out << path << ' ' << self_ns << '\n';
}

// ---------------------------------------------------------------------
// NEO_TRACE bootstrap
// ---------------------------------------------------------------------

namespace {

enum class TraceMode { off, summary, json, openmetrics, flamegraph };

struct GlobalTrace {
    TraceMode mode = TraceMode::off;
    std::string path;         // empty: summary→stderr, json→neo_trace.json
    Registry *registry = nullptr; // leaked: must outlive atexit handlers
};

GlobalTrace &
global_trace()
{
    // Magic-static init is thread-safe; mutation is confined to
    // process start/exit paths. neo-lint: allow(thread-unsafe-static)
    static GlobalTrace g;
    return g;
}

void
export_global_at_exit()
{
    auto &g = global_trace();
    if (g.registry == nullptr || g.mode == TraceMode::off)
        return;
    if (g.mode == TraceMode::json || g.mode == TraceMode::openmetrics ||
        g.mode == TraceMode::flamegraph) {
        const char *fallback = g.mode == TraceMode::json ? "neo_trace.json"
                               : g.mode == TraceMode::openmetrics
                                   ? "neo_metrics.txt"
                                   : "neo_flame.txt";
        const char *what = g.mode == TraceMode::json ? "chrome trace"
                           : g.mode == TraceMode::openmetrics
                               ? "OpenMetrics exposition"
                               : "collapsed-stack flamegraph";
        std::string path = g.path.empty() ? fallback : g.path;
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "neo::obs: cannot write %s to %s\n", what,
                         path.c_str());
            return;
        }
        if (g.mode == TraceMode::json)
            export_chrome_json(*g.registry, out);
        else if (g.mode == TraceMode::openmetrics)
            export_openmetrics(*g.registry, out);
        else
            export_flamegraph(*g.registry, out);
        std::fprintf(stderr, "neo::obs: wrote %s to %s\n", what,
                     path.c_str());
    } else if (g.path.empty()) {
        std::ostringstream out;
        export_summary(*g.registry, out);
        std::fputs(out.str().c_str(), stderr);
    } else {
        std::ofstream out(g.path);
        if (out)
            export_summary(*g.registry, out);
        else
            std::fprintf(stderr, "neo::obs: cannot write summary to %s\n",
                         g.path.c_str());
    }
}

/// Workspace arena stats sink (common/ cannot link obs, so the arena
/// reports through a function-pointer hook installed here).
void
workspace_stats(size_t reused, size_t fresh, size_t high_water)
{
    Registry *r = current();
    if (r == nullptr)
        return;
    if (reused != 0)
        r->add_value("ws.bytes_reused", static_cast<double>(reused));
    if (fresh != 0)
        r->add_value("ws.fresh_bytes", static_cast<double>(fresh));
    if (high_water != 0)
        r->max_value("ws.high_water_bytes", static_cast<double>(high_water));
}

/// Runs init_from_env() before main() so NEO_TRACE needs no code hook.
struct EnvBootstrap {
    EnvBootstrap()
    {
        set_workspace_stats_hook(&workspace_stats);
        init_from_env();
    }
} env_bootstrap;

} // namespace

void
init_from_env()
{
    // init_from_env runs at process start, before any worker threads
    // exist. neo-lint: allow(thread-unsafe-static)
    static bool done = false;
    if (done)
        return;
    done = true;

    const char *spec = std::getenv("NEO_TRACE");
    if (spec == nullptr || *spec == '\0')
        return;
    std::string s(spec);
    auto &g = global_trace();
    std::string mode = s;
    auto colon = s.find(':');
    if (colon != std::string::npos) {
        mode = s.substr(0, colon);
        g.path = s.substr(colon + 1);
    }
    if (const char *f = std::getenv("NEO_TRACE_FILE"); f != nullptr && *f)
        g.path = f;

    if (mode == "summary")
        g.mode = TraceMode::summary;
    else if (mode == "json")
        g.mode = TraceMode::json;
    else if (mode == "openmetrics")
        g.mode = TraceMode::openmetrics;
    else if (mode == "flamegraph")
        g.mode = TraceMode::flamegraph;
    else {
        std::fprintf(stderr,
                     "neo::obs: unknown NEO_TRACE mode '%s' "
                     "(want summary|json|openmetrics|flamegraph[:path])\n",
                     mode.c_str());
        return;
    }

    Registry::Options opts;
    opts.record_events =
        (g.mode == TraceMode::json || g.mode == TraceMode::flamegraph);
    // Leaked by design (see GlobalTrace). neo-lint: allow(naked-new)
    g.registry = new Registry(opts);
    detail::g_current.store(g.registry, std::memory_order_release);
    std::atexit(export_global_at_exit);
}

} // namespace neo::obs
