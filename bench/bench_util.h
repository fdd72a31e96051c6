/**
 * @file
 * Shared library for the per-figure/table benchmark binaries: each
 * binary regenerates one table or figure of the paper, prints the
 * paper's published values next to the model's, and (with `--json
 * <path>`) writes a schema-versioned `neo.bench/1` artifact whose
 * flat `metrics` map `neo-prof --diff` can gate on — the same
 * machinery CI uses for the profiler artifacts.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "common/types.h"
#include "neo/engine.h"

namespace neo::bench {

/// Standard banner naming the experiment being regenerated.
void banner(const char *id, const char *what);

/**
 * The benchmark `threads` knob: point the global pool at @p threads
 * executors (0 = honour NEO_NUM_THREADS / hardware concurrency) and
 * return the resulting count. Thread-swept benchmarks call this at
 * the top of each measurement so 1/2/4/8-thread numbers come from one
 * binary invocation.
 */
size_t use_threads(size_t threads);

/// "x.xx s (paper: y.yy)" cell.
std::string vs_paper(double ours, double paper);

/**
 * Command-line options shared by every figure/table binary:
 *   --json PATH    write the neo.bench/1 artifact to PATH
 *   --threads N    size the global thread pool (ThreadPool caps it)
 *   --repeat N     warmup once, then report the median of N timed
 *                  runs (benchmarks that measure wall time honour it;
 *                  purely modeled ones ignore it)
 *   --engine E     GEMM engine for the Neo rows: a registry name, or
 *                  "auto" for per-site tuned dispatch (benchmarks
 *                  that price GEMM kernels honour it; names are
 *                  validated against neo::EngineRegistry)
 * parse() exits 2 on unknown arguments or a --threads / --repeat that
 * is not a positive integer (and 0 after --help).
 */
struct Options
{
    std::string json_path;
    size_t threads = 0;
    size_t repeat = 1;
    /// Parsed --engine: fp64_tcu unless overridden, empty for "auto".
    std::optional<EngineId> engine = EngineId::fp64_tcu;

    static Options parse(int argc, char **argv);
};

/**
 * Machine-readable artifact accumulator. The binary records its
 * headline numbers as flat metrics while printing its usual tables;
 * write() emits
 *
 *   { "schema": "neo.bench/1", "kind": "bench", "id": ..,
 *     "title": .., "notes": {..}, "metrics": {..} }
 *
 * plus a "dist" sub-object (per-metric p50/p95/max) when any metric
 * was recorded via sample() with more than one sample — additive, so
 * single-run artifacts keep the historical key set.
 *
 * to the --json path (no-op when none was given), so every benchmark
 * gains a gate-able artifact without touching its stdout format.
 */
class Report
{
  public:
    Report(const Options &opts, const char *id, const char *title);

    /// Record one gate-able number (flat key, higher = worse for
    /// gating purposes; wall-clock metrics should embed "wall" in the
    /// key so the default compare skips them).
    void metric(std::string_view name, double value);
    /// Record a repeated measurement: the median becomes the flat
    /// metric @p name and, when more than one sample was taken, the
    /// p50/p95/max order statistics enter the artifact's `dist`
    /// sub-object (p50 = sorted element n/2, p95 = element
    /// ceil(0.95·n)−1 — the same convention as neo-prof --repeat).
    /// Samples need not be pre-sorted; empty is a no-op.
    void sample(std::string_view name, std::vector<double> samples);
    /// Free-form context (parameter set, units) carried in `notes`.
    void note(std::string_view key, std::string_view value);

    /// Write the artifact if --json was given. Returns the path
    /// written, or empty.
    std::string write() const;

  private:
    struct Dist
    {
        double p50, p95, max;
    };

    std::string json_path_;
    std::string id_;
    std::string title_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, Dist>> dists_;
};

} // namespace neo::bench
