#pragma once
/**
 * neo::obs — low-overhead tracing + metrics layer.
 *
 * The layer is built around a Registry: a sink for named monotonic
 * counters, accumulated values (bytes, modeled seconds), high-water
 * marks, deterministic log-bucketed work histograms, span durations,
 * a GEMM shape histogram and (optionally) timestamped trace events.
 * Each probe stores its fact once; the span counters, wall totals,
 * latency histograms and GEMM call/FLOP series are derived from the
 * span and shape tables when the registry is read. A process-wide
 * "current" registry pointer selects the active sink:
 *
 *  - When no registry is installed (the default), every probe —
 *    Span construction, add(), observe() — reduces to one relaxed
 *    atomic load and a branch, so instrumented hot paths run at full
 *    speed.
 *  - `NEO_TRACE=summary|json|openmetrics|flamegraph[:path]` installs a
 *    process-global registry at startup and exports it at exit
 *    (plain-text summary table, chrome://tracing JSON loadable in
 *    Perfetto, OpenMetrics text exposition, or a collapsed-stack
 *    flamegraph loadable in speedscope).
 *  - Tests install a Scope, which owns a private registry, makes it
 *    current for the scope's lifetime and restores the previous sink
 *    on destruction, so counter assertions stay deterministic even
 *    when the suite runs under an ambient NEO_TRACE.
 *
 * Counter totals are deterministic across thread counts: every probe
 * increments exactly once per kernel invocation and addition is
 * commutative, so `NEO_NUM_THREADS` only reorders, never changes,
 * the totals. Trace-event ordering is not deterministic (events carry
 * wall-clock timestamps); exporters sort by timestamp.
 *
 * Activation (Scope construction / Activate) is a process-global
 * switch intended for top-level phases — install from the driving
 * thread before fanning out, not concurrently from workers. Worker
 * threads only read the pointer.
 */
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"

namespace neo::obs {

/// Span categories used by the built-in instrumentation. Exporters
/// and tests key on these strings; keep them in sync with DESIGN.md.
namespace cat {
inline constexpr const char *gemm = "gemm";   ///< one modular GEMM call
inline constexpr const char *ntt = "ntt";     ///< one per-limb (I)NTT
inline constexpr const char *bconv = "bconv"; ///< one BConv kernel/convert
inline constexpr const char *ip = "ip";       ///< one inner-product kernel
inline constexpr const char *stage = "stage"; ///< pipeline/keyswitch stage
inline constexpr const char *op = "op";       ///< CKKS evaluator operation
} // namespace cat

/// One completed span, chrome://tracing "X" (complete) event.
struct TraceEvent {
    std::string name;
    const char *cat; ///< static string, one of obs::cat::*
    u32 tid;         ///< small per-thread index (0 = first thread seen)
    i64 ts_ns;       ///< start, ns since the registry's epoch
    i64 dur_ns;
};

/// GEMM shape key for the shape histogram.
struct GemmShape {
    u64 m, n, k;
    /// FLOPs of one call: one multiply and one add per term.
    u64
    flops() const
    {
        return 2 * m * n * k;
    }
    bool
    operator<(const GemmShape &o) const
    {
        if (m != o.m)
            return m < o.m;
        if (n != o.n)
            return n < o.n;
        return k < o.k;
    }
};

/**
 * Snapshot of a deterministic log-bucketed value histogram. The
 * Registry also stores its histograms in this form.
 *
 * Bucket boundaries are fixed at compile time: every power-of-two
 * octave [2^e, 2^(e+1)) is split into four log-linear sub-buckets
 * with edges 2^e·{1, 1.25, 1.5, 1.75} for e in [0, 63]; everything
 * below 1 (including 0 and negatives) lands in bucket 0 and anything
 * at or above 2^64 in the top bucket. All edges are exactly
 * representable doubles, so bucket placement is bit-deterministic.
 *
 * Because bucket placement depends only on the observed value — never
 * on arrival order or thread — per-bucket counts, count, min and max
 * are identical across thread counts, and two snapshots merge by
 * adding counts. `sum` is an FP accumulation: exact (hence
 * order-independent) for integer observations totalling < 2^53, which
 * covers the integer-ns latency and integer work/byte series recorded
 * by the built-in probes.
 */
struct HistogramSnapshot {
    /// Per-octave sub-buckets; boundary ratio ≤ 1.25 between edges.
    static constexpr int kSubBuckets = 4;
    /// Highest octave exponent; values ≥ 2^(kMaxExp+1) clamp to the
    /// top bucket.
    static constexpr int kMaxExp = 63;
    /// Total addressable buckets (index 0 is the underflow bucket).
    static constexpr i32 kNumBuckets = 1 + kSubBuckets * (kMaxExp + 1);

    /// (bucket index, count), ascending by index, zero counts omitted.
    std::vector<std::pair<i32, u64>> buckets;
    u64 count = 0;
    double sum = 0;
    double min = 0; ///< exact smallest observation (valid when count>0)
    double max = 0; ///< exact largest observation (valid when count>0)

    /// Bucket index for value v (0 ≤ index < kNumBuckets).
    static i32 bucket_index(double v);
    /// Inclusive lower edge of bucket `idx` (bucket 0 → 0).
    static double bucket_lower(i32 idx);
    /// Exclusive upper edge of bucket `idx` (top bucket → 2^64).
    static double bucket_upper(i32 idx);

    /**
     * Deterministic quantile: the upper edge of the bucket holding
     * the ceil(p·count)-th smallest observation — except that the
     * highest populated bucket reports the exact max, so p≥1 returns
     * max; p≤0 returns the exact min. Relative overestimate is
     * bounded by the ≤1.25 edge ratio. Returns 0 when empty.
     */
    double percentile(double p) const;

    /// Record @p times observations of value @p v.
    void record(double v, u64 times = 1);
    /// Fold `other` into this snapshot (bucket-wise count addition).
    void merge(const HistogramSnapshot &other);
};

/**
 * Metrics + trace sink. All mutating methods are thread-safe; reads
 * taken while workers are still recording see a consistent snapshot.
 */
class Registry
{
  public:
    struct Options {
        /// Record TraceEvents (timeline). Counters are always on.
        bool record_events = false;
        /// Cap on stored events; overflow increments dropped_events().
        size_t max_events = 1u << 20;
    };

    Registry();
    explicit Registry(Options opts);

    // -- recording -----------------------------------------------------
    void add(std::string_view name, u64 delta = 1);
    void add_value(std::string_view name, double delta);
    /// Record one observation into the named log-bucketed histogram
    /// (see HistogramSnapshot for the bucket scheme).
    void observe(std::string_view name, double v);
    /// Keep the maximum of @p v and the stored mark (high-water
    /// marks, read through values()). Max is commutative and
    /// associative, so marks stay deterministic across thread counts
    /// like the sum counters, and merge_from keeps the larger mark.
    void max_value(std::string_view name, double v);
    /// One modular GEMM call of shape m×n×k: one count in the shape
    /// histogram, from which gemm.calls, gemm.flops (2mnk per call)
    /// and the work.gemm.flops histogram are derived when read.
    void add_gemm(size_t m, size_t n, size_t k);
    /// Record a finished span: one duration into the histogram of its
    /// (category, name) and, when events are on, one TraceEvent.
    /// Readers derive `span.<cat>`, `wall.<cat>.ns` and `lat.<cat>.ns`
    /// from every name of the category, and `lat.<cat>.<name>.ns` for
    /// op/stage spans. Exposed so the golden-file test can inject
    /// fixed-timestamp events.
    void record_event(std::string_view name, const char *cat, u32 tid,
                      i64 ts_ns, i64 dur_ns);

    /**
     * Fold `other` into this registry: sums, histograms, span
     * durations and GEMM shapes add; high-water marks keep the
     * larger; trace events are appended with timestamps re-based onto
     * this registry's epoch (both epochs come from the same steady
     * clock). Used by neo-prof to publish a scoped profiling run into
     * the ambient NEO_TRACE sink.
     */
    void merge_from(const Registry &other);

    // -- reading -------------------------------------------------------
    // The map readers return the stored series plus the derived ones;
    // the single-name readers look a name up in those maps.
    using Histograms = std::map<std::string, HistogramSnapshot, std::less<>>;
    u64 counter(std::string_view name) const;
    double value(std::string_view name) const;
    HistogramSnapshot histogram(std::string_view name) const;
    std::map<std::string, u64, std::less<>> counters() const;
    std::map<std::string, double, std::less<>> values() const;
    Histograms histograms() const;
    std::map<GemmShape, u64> gemm_shapes() const;
    std::vector<TraceEvent> events() const;
    u64 dropped_events() const;
    bool
    recording_events() const
    {
        return opts_.record_events;
    }

    /// ns since this registry's construction (steady clock).
    i64 now_ns() const;

  private:
    /// Every stored fact; merge_from copies it whole.
    struct Tables {
        std::map<std::string, u64, std::less<>> counters;
        std::map<std::string, double, std::less<>> values;
        /// High-water marks: kept apart so merges take the max.
        std::map<std::string, double, std::less<>> marks;
        Histograms hists;
        /// Span durations by category, then span name.
        std::map<std::string, Histograms, std::less<>> spans;
        std::map<GemmShape, u64> gemm_shapes;
        std::vector<TraceEvent> events;
        u64 dropped = 0;
    };

    Options opts_;
    const i64 epoch_ns_; ///< steady_clock ns at construction
    mutable Mutex mu_;
    Tables t_ NEO_GUARDED_BY(mu_);
};

namespace detail {
extern std::atomic<Registry *> g_current;
} // namespace detail

/// The active sink, or nullptr when observability is off. This is the
/// only check on the hot path.
inline Registry *
current()
{
    return detail::g_current.load(std::memory_order_acquire);
}

/// Small dense index for the calling thread (0 = first thread that
/// asked). Used as the chrome-trace tid so lanes stay readable.
u32 thread_index();

/**
 * RAII: make `r` the current sink, restore the previous one on
 * destruction. Activate(nullptr) is a no-op (keeps the ambient sink).
 */
class Activate
{
  public:
    explicit Activate(Registry *r);
    ~Activate();
    Activate(const Activate &) = delete;
    Activate &operator=(const Activate &) = delete;

  private:
    Registry *prev_ = nullptr;
    bool active_ = false;
};

/**
 * RAII test/phase sink: owns a Registry and (by default) installs it
 * as current for the scope's lifetime. Destroying a Scope restores
 * whatever sink was current before, so scopes nest.
 */
class Scope
{
  public:
    struct Options {
        Registry::Options registry;
        bool activate = true;
    };

    Scope();
    explicit Scope(Options opts);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Registry &
    registry()
    {
        return reg_;
    }
    const Registry &
    registry() const
    {
        return reg_;
    }
    u64
    counter(std::string_view name) const
    {
        return reg_.counter(name);
    }

  private:
    Registry reg_;
    Registry *prev_ = nullptr;
    bool active_ = false;
};

/**
 * RAII timed span. Captures the current sink at construction so the
 * record goes to the sink that was active when the work started, even
 * if a nested Scope is installed meanwhile. `name` and `cat` must be
 * string literals (stored by pointer until the span closes).
 */
class Span
{
  public:
    Span(const char *name, const char *cat)
        : reg_(current()), name_(name), cat_(cat)
    {
        if (reg_ != nullptr)
            start_ns_ = reg_->now_ns();
    }
    ~Span()
    {
        if (reg_ != nullptr)
            reg_->record_event(name_, cat_, thread_index(), start_ns_,
                               reg_->now_ns() - start_ns_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Registry *reg_;
    const char *name_;
    const char *cat_;
    i64 start_ns_ = 0;
};

// -- hot-path convenience probes ---------------------------------------
// Each reduces to one relaxed atomic load and a branch when no
// registry is installed.

/// Add to a counter in the current sink (if any).
inline void
add(std::string_view name, u64 delta = 1)
{
    if (Registry *r = current())
        r->add(name, delta);
}

/// Record one histogram observation into the current sink (if any).
inline void
observe(std::string_view name, double v)
{
    if (Registry *r = current())
        r->observe(name, v);
}

// -- exporters ---------------------------------------------------------

/// chrome://tracing JSON (object form). Extra top-level keys carry the
/// counters/values/shape histogram; Perfetto ignores them. Events are
/// sorted by (tid, ts, name, dur) so the export is byte-stable at
/// fixed inputs regardless of thread-index assignment order.
void export_chrome_json(const Registry &reg, std::ostream &out);
/// Plain-text summary table: counters, values, histogram percentiles,
/// GEMM shape histogram.
void export_summary(const Registry &reg, std::ostream &out);
/**
 * OpenMetrics/Prometheus text exposition: counters as `<name>_total`,
 * values (high-water marks included) as gauges, histograms as
 * cumulative `_bucket{le="..."}` series plus
 * `_sum`/`_count` and derived `_p50/_p95/_p99/_max` gauges.
 * Metric names are `neo_` + the registry name with every
 * non-[a-zA-Z0-9_] byte mapped to '_'. Terminated by `# EOF`.
 */
void export_openmetrics(const Registry &reg, std::ostream &out);
/**
 * Collapsed-stack flamegraph (Brendan Gregg / speedscope format):
 * one `root;frame;...;leaf <self_ns>` line per stack, sorted
 * lexicographically. Stacks are reconstructed per thread from the
 * span parent chain (an event is a child of the enclosing event on
 * the same tid); values are exclusive nanoseconds. Requires the
 * registry to record events.
 */
void export_flamegraph(const Registry &reg, std::ostream &out);

/// Parse NEO_TRACE ("summary", "json", "openmetrics", "flamegraph",
/// each optionally ":PATH"), install a process-global registry and
/// register an atexit exporter. Called once from a static
/// initializer; safe to call again (no-op). NEO_TRACE_FILE overrides
/// the output path (defaults: stderr for summary, neo_trace.json,
/// neo_metrics.txt, neo_flame.txt).
void init_from_env();

} // namespace neo::obs
