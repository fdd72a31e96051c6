#include "obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    std::map<i32, u64> merged(buckets.begin(), buckets.end());
    for (const auto &[idx, c] : other.buckets)
        merged[idx] += c;
    buckets.assign(merged.begin(), merged.end());
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
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
    auto it = counters_.find(name);
    if (it == counters_.end())
        counters_.emplace(std::string(name), delta);
    else
        it->second += delta;
}

void
Registry::add_value(std::string_view name, double delta)
{
    LockGuard lock(mu_);
    auto it = values_.find(name);
    if (it == values_.end())
        values_.emplace(std::string(name), delta);
    else
        it->second += delta;
}

void
Registry::max_value(std::string_view name, double v)
{
    LockGuard lock(mu_);
    auto it = values_.find(name);
    if (it == values_.end())
        values_.emplace(std::string(name), v);
    else
        it->second = std::max(it->second, v);
}

void
Registry::observe_locked(std::string_view name, double v)
{
    auto it = hists_.find(name);
    if (it == hists_.end())
        it = hists_.emplace(std::string(name), Hist{}).first;
    Hist &h = it->second;
    h.buckets[HistogramSnapshot::bucket_index(v)] += 1;
    if (h.count == 0) {
        h.min = v;
        h.max = v;
    } else {
        h.min = std::min(h.min, v);
        h.max = std::max(h.max, v);
    }
    ++h.count;
    h.sum += v;
}

void
Registry::observe(std::string_view name, double v)
{
    LockGuard lock(mu_);
    observe_locked(name, v);
}

void
Registry::set_gauge(std::string_view name, double v)
{
    LockGuard lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(std::string(name), Gauge{}).first;
    it->second.current = v;
    it->second.high_water = std::max(it->second.high_water, v);
}

void
Registry::add_gauge(std::string_view name, double delta)
{
    LockGuard lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(std::string(name), Gauge{}).first;
    it->second.current += delta;
    it->second.high_water =
        std::max(it->second.high_water, it->second.current);
}

void
Registry::max_gauge(std::string_view name, double v)
{
    LockGuard lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(std::string(name), Gauge{}).first;
    it->second.current = std::max(it->second.current, v);
    it->second.high_water =
        std::max(it->second.high_water, it->second.current);
}

void
Registry::add_gemm(size_t m, size_t n, size_t k)
{
    const u64 flops = 2ull * m * n * k;
    LockGuard lock(mu_);
    counters_["gemm.calls"] += 1;
    counters_["gemm.flops"] += flops;
    gemm_shapes_[GemmShape{m, n, k}] += 1;
    // Work histogram: per-call FLOP distribution. Deterministic across
    // thread counts (depends only on the call mix, not timing).
    observe_locked("work.gemm.flops", static_cast<double>(flops));
}

void
Registry::record_event(std::string_view name, const char *cat, u32 tid,
                       i64 ts_ns, i64 dur_ns)
{
    LockGuard lock(mu_);
    {
        std::string key = "span.";
        key += cat;
        counters_[key] += 1;
        key += ".ns";
        key.replace(0, 4, "wall");
        values_[key] += static_cast<double>(dur_ns);
    }
    {
        // Latency histograms: one per category, plus one per span
        // name for the coarse-grained op/stage categories (kernel
        // categories have too many call sites for per-name series).
        std::string key = "lat.";
        key += cat;
        key += ".ns";
        observe_locked(key, static_cast<double>(dur_ns));
        if (std::strcmp(cat, cat::op) == 0 ||
            std::strcmp(cat, cat::stage) == 0) {
            std::string named = "lat.";
            named += cat;
            named += '.';
            named += name;
            named += ".ns";
            observe_locked(named, static_cast<double>(dur_ns));
        }
    }
    if (!opts_.record_events)
        return;
    if (events_.size() >= opts_.max_events) {
        ++dropped_;
        return;
    }
    events_.push_back(TraceEvent{std::string(name), cat, tid, ts_ns, dur_ns});
}

u64
Registry::counter(std::string_view name) const
{
    LockGuard lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
Registry::value(std::string_view name) const
{
    LockGuard lock(mu_);
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

std::map<std::string, u64, std::less<>>
Registry::counters() const
{
    LockGuard lock(mu_);
    return counters_;
}

std::map<std::string, double, std::less<>>
Registry::values() const
{
    LockGuard lock(mu_);
    return values_;
}

Registry::Gauge
Registry::gauge(std::string_view name) const
{
    LockGuard lock(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? Gauge{} : it->second;
}

std::map<std::string, Registry::Gauge, std::less<>>
Registry::gauges() const
{
    LockGuard lock(mu_);
    return gauges_;
}

/// Snapshot conversion (caller holds no lock; `h` is a stable copy).
static HistogramSnapshot
snapshot_hist(const std::map<i32, u64> &buckets, u64 count, double sum,
              double min, double max)
{
    HistogramSnapshot s;
    s.buckets.assign(buckets.begin(), buckets.end());
    s.count = count;
    s.sum = sum;
    s.min = min;
    s.max = max;
    return s;
}

HistogramSnapshot
Registry::histogram(std::string_view name) const
{
    LockGuard lock(mu_);
    auto it = hists_.find(name);
    if (it == hists_.end())
        return HistogramSnapshot{};
    const Hist &h = it->second;
    return snapshot_hist(h.buckets, h.count, h.sum, h.min, h.max);
}

std::map<std::string, HistogramSnapshot, std::less<>>
Registry::histograms() const
{
    LockGuard lock(mu_);
    std::map<std::string, HistogramSnapshot, std::less<>> out;
    for (const auto &[name, h] : hists_)
        out.emplace(name,
                    snapshot_hist(h.buckets, h.count, h.sum, h.min, h.max));
    return out;
}

void
Registry::merge_from(const Registry &other)
{
    if (&other == this)
        return;
    // Snapshot `other` under its own lock first, then lock ourselves:
    // no thread ever holds both locks, so merges cannot deadlock.
    const auto counters = other.counters();
    const auto values = other.values();
    const auto gauges = other.gauges();
    const auto hists = other.histograms();
    const auto shapes = other.gemm_shapes();
    const auto events = other.events();
    const u64 dropped = other.dropped_events();
    // Both epochs come from the same steady clock, so this shift
    // re-bases `other`'s event timestamps onto our epoch exactly.
    const i64 shift = other.epoch_ns_ - epoch_ns_;

    LockGuard lock(mu_);
    for (const auto &[name, v] : counters)
        counters_[name] += v;
    for (const auto &[name, v] : values)
        values_[name] += v;
    for (const auto &[name, g] : gauges) {
        Gauge &dst = gauges_[name];
        dst.current = g.current; // the newer reading wins
        dst.high_water = std::max(dst.high_water, g.high_water);
    }
    for (const auto &[name, s] : hists) {
        Hist &h = hists_[name];
        for (const auto &[idx, c] : s.buckets)
            h.buckets[idx] += c;
        if (h.count == 0) {
            h.min = s.min;
            h.max = s.max;
        } else if (s.count != 0) {
            h.min = std::min(h.min, s.min);
            h.max = std::max(h.max, s.max);
        }
        h.count += s.count;
        h.sum += s.sum;
    }
    for (const auto &[shape, c] : shapes)
        gemm_shapes_[shape] += c;
    dropped_ += dropped;
    if (opts_.record_events) {
        for (const TraceEvent &e : events) {
            if (events_.size() >= opts_.max_events) {
                ++dropped_;
                continue;
            }
            TraceEvent copy = e;
            copy.ts_ns += shift;
            events_.push_back(std::move(copy));
        }
    }
}

std::map<GemmShape, u64>
Registry::gemm_shapes() const
{
    LockGuard lock(mu_);
    return gemm_shapes_;
}

std::vector<TraceEvent>
Registry::events() const
{
    LockGuard lock(mu_);
    return events_;
}

u64
Registry::dropped_events() const
{
    LockGuard lock(mu_);
    return dropped_;
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

/// JSON string escape (control chars, quote, backslash).
static void
json_escape(std::ostream &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            out << "\\\"";
            break;
        case '\\':
            out << "\\\\";
            break;
        case '\n':
            out << "\\n";
            break;
        case '\t':
            out << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out << strfmt("\\u%04x", c);
            else
                out << c;
        }
    }
}

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
        out << "\n{\"name\":\"";
        json_escape(out, e.name);
        out << "\",\"cat\":\"" << e.cat << "\",\"ph\":\"X\",\"pid\":1"
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
        out << "\n\"";
        json_escape(out, name);
        out << "\":" << v;
    }
    out << "},\n\"neoValues\":{";
    first = true;
    for (const auto &[name, v] : reg.values()) {
        if (!first)
            out << ",";
        first = false;
        out << "\n\"";
        json_escape(out, name);
        out << strfmt("\":%.6g", v);
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
        for (const auto &[name, v] : values) {
            std::string shown;
            if (name.size() > 3 && name.compare(name.size() - 3, 3, ".ns") == 0)
                shown = format_time(v / 1e9);
            else if (name.find("bytes") != std::string::npos)
                shown = format_bytes(v);
            else if (name.size() > 2 &&
                     name.compare(name.size() - 2, 2, ".s") == 0)
                shown = format_time(v);
            else
                shown = strfmt("%.6g", v);
            vt.row({name, shown});
        }
        out << "\n" << vt.str();
    }

    /// Human-readable metric value: time for .ns/.s series, bytes for
    /// byte series, %.6g otherwise.
    const auto shown_metric = [](const std::string &name, double v) {
        if (name.size() > 3 && name.compare(name.size() - 3, 3, ".ns") == 0)
            return format_time(v / 1e9);
        if (name.find("bytes") != std::string::npos)
            return format_bytes(v);
        if (name.size() > 2 && name.compare(name.size() - 2, 2, ".s") == 0)
            return format_time(v);
        return strfmt("%.6g", v);
    };

    auto gauges = reg.gauges();
    if (!gauges.empty()) {
        TextTable gt;
        gt.header({"gauge", "current", "high water"});
        for (const auto &[name, g] : gauges)
            gt.row({name, shown_metric(name, g.current),
                    shown_metric(name, g.high_water)});
        out << "\n" << gt.str();
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
    for (const auto &[name, g] : reg.gauges()) {
        const std::string n = om_name(name);
        type_line(n, "gauge");
        out << n << ' ' << json::number_to_string(g.current) << '\n';
        type_line(n + "_high_water", "gauge");
        out << n << "_high_water "
            << json::number_to_string(g.high_water) << '\n';
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
    if (high_water != 0) {
        r->max_value("ws.high_water_bytes", static_cast<double>(high_water));
        // Arena gauges: aggregate peak across arenas plus one lane
        // per thread index (arenas are thread-local, so the per-lane
        // series is the per-thread peak the tid maps to).
        const double hw = static_cast<double>(high_water);
        r->max_gauge("ws.arena.peak_bytes", hw);
        r->max_gauge("ws.arena.peak_bytes.t" +
                         std::to_string(thread_index()),
                     hw);
    }
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
