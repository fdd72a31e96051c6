/**
 * @file
 * neo::prof — modeled-GPU roofline profiler and benchmark harness.
 *
 * Layered on neo::obs and the analytic kernel model: a profile run
 * executes one named workload under a chosen GEMM engine, joins every
 * traced span with its modeled cost, and produces
 *
 *  - a per-kernel roofline attribution report (modeled vs. wall time,
 *    bytes, bottleneck class, % of total — the Fig 13 lens applied to
 *    any workload), and
 *  - a schema-versioned JSON artifact (`neo.bench/1`, written as
 *    BENCH_<workload>.json) whose flat `metrics` map a baseline
 *    compare can gate on with per-metric relative thresholds.
 *
 * Workloads come in two modes:
 *  - functional ("keyswitch"): actually runs keyswitch_klss_pipeline
 *    on the emulated TCU under an obs::Scope, so the artifact carries
 *    real span counts (asserted equal to
 *    keyswitch_pipeline_kernel_counts) and wall time next to the
 *    modeled numbers;
 *  - modeled ("mul", "rotate", "bootstrap", "helr", "resnet20/32/56"):
 *    prices the operation/application schedule on the A100 model at
 *    paper-scale parameters (Set-C), where a functional run would be
 *    prohibitively slow on a CPU emulation.
 *
 * The invariant the artifact is tested against: the per-kernel
 * `modeled_s` rows sum to `totals.modeled_s` (run_attributed's
 * contract), so "% of total" is an exact decomposition.
 */
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "neo/exec_policy.h"
#include "tune/tuning_table.h"

namespace neo::prof {

/// Artifact schema identifier; bump on breaking layout changes.
inline constexpr const char *kSchema = "neo.bench/1";

/** One aggregated kernel row of the attribution report. */
struct KernelRow
{
    std::string name;
    u64 calls = 0;
    double modeled_s = 0; ///< share of totals.modeled_s (rows sum to it)
    double fraction = 0;  ///< modeled_s / totals.modeled_s
    double compute_s = 0;
    double memory_s = 0;
    double launch_s = 0;
    double bytes = 0;
    std::string bound; ///< "compute" | "memory" | "launch"
};

/**
 * Ablation switches for one profile run — the `--fuse` / `--graph`
 * axes of neo-prof. Both default off so profile() without options
 * reproduces the historical artifact exactly.
 */
struct ProfileOptions
{
    /// Fuse adjacent element-wise stages (ModDown fix into its BConv,
    /// twiddle passes into the NTT GEMMs) in both the functional
    /// pipeline and the cost model.
    bool fuse = false;
    /// Model CUDA-graph capture: the workload's kernel DAG replays
    /// with one amortized launch.
    bool graph = false;
};

/**
 * Distribution summary of repeated samples of one metric. Quantiles
 * are order statistics of the sorted sample vector (p50 = element
 * n/2, matching the median wall_s; p95 = element ceil(0.95·n)-1).
 */
struct Dist
{
    double p50 = 0;
    double p95 = 0;
    double max = 0;
};

/** Complete result of one profile run. */
struct Result
{
    std::string workload;
    std::string engine; ///< a registry engine name, or "auto"
    std::string mode;   ///< "functional" | "modeled"
    size_t level = 0;   ///< ciphertext level the workload ran at
    ProfileOptions options; ///< ablation switches this run used
    /// Tuning-table path backing an auto run ("" = tuned in-memory /
    /// fixed engine). Provenance only; carried into the artifact.
    std::string tuning_table;
    /// Devices the keyswitch sharded over (1 = single device; the
    /// historical artifacts). Serialized only when > 1.
    size_t devices = 1;
    /// Interconnect preset name ("nvlink"/"pcie") when devices > 1.
    std::string topology;

    double modeled_total_s = 0; ///< per-batched-ciphertext model time
    double wall_s = 0;          ///< functional runs only, else 0
    double bytes = 0;           ///< whole-batch DRAM traffic
    double launches = 0;
    /// Graph replays issued by the modeled schedule (0 with graph off).
    double graph_launches = 0;
    /// Element-wise stages the model folded into neighbours (0 unfused).
    u64 fused_kernels = 0;
    std::string bound;            ///< schedule-level bottleneck class
    double ip_valid_proportion = 0; ///< §4.5.3 gate input at this level

    std::vector<KernelRow> kernels;
    /// Per-device compute/communication split of the sharded makespan.
    /// Populated (and serialized) only when devices > 1.
    struct DeviceRow
    {
        size_t device = 0;
        double compute_s = 0;
        double comm_s = 0;
    };
    std::vector<DeviceRow> per_device;
    /// Per-link interconnect traffic and utilization over the modeled
    /// makespan. Populated (and serialized) only when devices > 1.
    struct LinkRow
    {
        size_t link = 0;
        double bytes = 0;
        double busy_s = 0;
        double utilization = 0;
    };
    std::vector<LinkRow> links;
    /// span.* / gemm.calls counters from the run's obs::Scope
    /// (functional mode only).
    std::map<std::string, u64> spans;
    /// Analytic counts the spans must equal (keyswitch only).
    std::map<std::string, u64> expected_spans;
    /// Flat gate-able metrics (all "higher is worse"); keys containing
    /// "wall" are machine-dependent and skipped by compare() unless
    /// gate_wall is set.
    std::map<std::string, double> metrics;
    /// Sample distributions for repeated metrics ("wall.total_s" when
    /// repeat > 1). Serialized as the artifact's "dist" sub-object;
    /// omitted when empty, so single-run artifacts keep the
    /// historical key set byte for byte.
    std::map<std::string, Dist> dist;
};

/// Workloads profile() accepts, in display order.
const std::vector<std::string> &workload_names();

/**
 * Run @p workload under @p policy and collect the attribution.
 * @p level selects the ciphertext level for the primitive workloads
 * (keyswitch/mul/rotate); 0 means "the parameter set's top level".
 * Application workloads price their full schedule and ignore @p level.
 *
 * Engine selection comes from the policy: a fixed policy reproduces
 * the historical single-engine runs; an autotune policy dispatches
 * per site. An autotune policy with no resolver is completed here —
 * policy.tuning_table (when set) is loaded, otherwise the canonical
 * table is tuned in-memory (tuning_table_for_workloads()). Functional
 * auto runs record one `tune.site.<stage>.<engine>` span per site
 * decision.
 *
 * @p repeat controls wall-clock sampling for functional workloads:
 * with repeat == 1 the single (cold) traced run is timed, matching the
 * historical behaviour; with repeat > 1 the traced run doubles as a
 * warmup that fills the hot-path caches (key-switch precomp, pipeline
 * kernels, key operands, workspace arenas) and wall_s is the
 * median of @p repeat steady-state samples. Span counters always come
 * from exactly one run. Modeled workloads ignore @p repeat.
 *
 * Throws std::invalid_argument for unknown names.
 */
Result profile(const std::string &workload, const ExecPolicy &policy,
               size_t level = 0, size_t repeat = 1);

/**
 * The canonical tuning table: every site of the parameter sets
 * neo-prof's workloads run at (the functional test-scale set and the
 * paper's Set C). Deterministic — the checked-in neo.tune.json is
 * exactly this table, and CI regenerates it to prove freshness.
 */
tune::TuningTable tuning_table_for_workloads();

/// Human-readable attribution report (stdout form of the artifact).
void print_report(const Result &r, std::ostream &out);

/// The artifact as a JSON document (schema kSchema).
std::string to_json(const Result &r);
/// to_json + write to @p path (with trailing newline).
void write_json(const Result &r, const std::string &path);

// ---------------------------------------------------------------- gating

struct CompareOptions
{
    /// Relative threshold: metric m regresses when
    /// current > baseline * (1 + threshold) (absolute slack 1e-12
    /// covers exact-zero baselines).
    double threshold = 0.10;
    /// Gate wall-clock metrics too (off by default: machine-dependent).
    bool gate_wall = false;
};

/** One metric that moved past its threshold. */
struct Regression
{
    std::string metric;
    double baseline = 0;
    double current = 0;
    double ratio = 0; ///< current / baseline (inf for 0 baselines)
};

/**
 * Compare two artifacts' `metrics` maps (baseline first). Returns the
 * regressed metrics; empty means "no regression". A metric present in
 * the baseline but missing from the current artifact is reported as a
 * regression (ratio 0), so renames can't silently drop coverage.
 * Both documents must carry schema kSchema.
 */
std::vector<Regression> compare(const json::Value &baseline,
                                const json::Value &current,
                                const CompareOptions &opts = {});

// ------------------------------------------------------------------ diff

/// Schema identifier of diff_to_json documents.
inline constexpr const char *kDiffSchema = "neo.diff/1";

/** One named quantity compared across two artifacts. */
struct DiffRow
{
    std::string name;
    double base = 0;
    double cur = 0;
    double delta = 0; ///< cur - base
    /// cur / base; 0 when base == 0 (kept finite for JSON export).
    double ratio = 0;
    /// delta / (cur total - base total): this row's share of the
    /// total modeled-time movement. 0 when the totals are equal or
    /// the row is not a time (spans/metrics rows).
    double share = 0;
};

/**
 * Explainable comparison of two neo.bench/1 artifacts (`neo-prof
 * --diff`): the total delta attributed per kernel, the changed span
 * counters and metrics, plus the same threshold gate compare()
 * applies — one report answers both "did it regress?" and "which
 * kernel moved?".
 */
struct DiffReport
{
    std::string base_workload, cur_workload;
    std::string base_engine, cur_engine;
    double base_total_s = 0, cur_total_s = 0; ///< totals.modeled_s
    double threshold = 0;
    /// All kernels of either artifact, |delta| descending (name
    /// ascending on ties); rows carry the delta share.
    std::vector<DiffRow> kernels;
    /// Changed span.*/counter rows (from the artifacts' `spans`).
    std::vector<DiffRow> spans;
    /// Changed metrics, excluding per-kernel times (in `kernels`).
    std::vector<DiffRow> metrics;
    /// Gate result: compare(baseline, current, opts).
    std::vector<Regression> regressions;

    bool
    gated() const
    {
        return !regressions.empty();
    }
};

/**
 * Build the attribution diff (baseline first). Both documents must
 * carry schema kSchema; artifacts without kernel rows (bench-harness
 * reports) yield an empty kernels table and still diff metrics.
 */
DiffReport diff(const json::Value &baseline, const json::Value &current,
                const CompareOptions &opts = {});

/// Human-readable attribution report (stdout form of --diff).
void print_diff(const DiffReport &d, std::ostream &out);

/// The diff as a JSON document (schema kDiffSchema); deterministic
/// given the two inputs, so reports golden-test cleanly.
std::string diff_to_json(const DiffReport &d);

} // namespace neo::prof
