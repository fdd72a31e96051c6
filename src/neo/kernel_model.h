/**
 * @file
 * Analytic performance model of Neo's kernels and operations on the
 * simulated A100.
 *
 * Every configuration switch corresponds to one of the paper's
 * optimizations (the Fig 14 ablation axes) or to a baseline's design
 * choice, so the same model instance prices Neo, TensorFHE, HEonGPU
 * and the CPU by flipping flags — never by per-backend constants.
 *
 * Sizing conventions: all costs are **per batch** (BatchSize
 * ciphertexts processed by one kernel, the paper's measurement unit).
 * A "limb" is one (polynomial, prime) residue vector of N
 * coefficients; ciphertext-side data scales with the batch, key-side
 * data does not.
 */
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ckks/params.h"
#include "gpusim/kernel_cost.h"
#include "gpusim/tcu_model.h"
#include "neo/engine.h"
#include "neo/exec_policy.h"

namespace neo::model {

/** Algorithm/mapping switches (Fig 14 axes + baseline choices). */
struct ModelConfig
{
    gpusim::DeviceSpec device = gpusim::DeviceSpec::a100();

    bool use_klss = true;        ///< KLSS vs Hybrid KeySwitch
    bool matmul_dataflow = true; ///< BConv/IP as matmul (Algs 2/4)
    bool radix16_ntt = true;     ///< ten-step NTT vs four-step
    bool tcu_ntt = true;         ///< NTT matmuls on the TCU at all
    bool kernel_fusion = true;   ///< §4.6 fusion
    bool multistream = true;     ///< §4.6 multi-stream overlap
    double ip_tcu_threshold = 0.80; ///< §4.5.3 valid-proportion gate
    /// Kernel grids sized by the ciphertext batch (TensorFHE/Neo
    /// style); unbatched systems parallelise within one ciphertext.
    bool batched_pipeline = true;
    /**
     * The execution policy priced: each stage's GEMM engine (fixed,
     * or per site through the policy's resolver), element-wise
     * fusion, graph capture, and the devices and interconnect
     * neo::shard prices. The same struct the pipeline runs.
     */
    ExecPolicy policy;
};

/**
 * The CKKS operations the model prices: Table 6's six, the keyswitch
 * inside HMULT and HROTATE, and the double rescale of WordSize-36
 * bootstrapping.
 */
enum class Op
{
    keyswitch,
    hmult,
    hrotate,
    pmult,
    hadd,
    padd,
    rescale,
    double_rescale,
};

/** Per-kernel and per-operation cost calculator. */
class KernelModel
{
  public:
    KernelModel(const ckks::CkksParams &params, const ModelConfig &cfg);

    const ModelConfig &config() const { return cfg_; }
    const ckks::CkksParams &params() const { return params_; }

    // ---- Kernel costs (per batch) ------------------------------------

    /// NTT or INTT of @p limbs batched limbs at @p word_bits.
    gpusim::KernelCost ntt(size_t limbs, int word_bits) const;
    /// Same, with the GEMM engine chosen per call (autotuned sites).
    gpusim::KernelCost ntt(size_t limbs, int word_bits,
                           EngineId engine) const;

    /**
     * BConv of @p in_limbs batched input limbs to @p out_limbs output
     * limbs (Alg 1 or Alg 2 per config).
     */
    gpusim::KernelCost bconv(size_t in_limbs, size_t out_limbs,
                             int word_in, int word_out) const;
    /// Same, with the GEMM engine chosen per call.
    gpusim::KernelCost bconv(size_t in_limbs, size_t out_limbs,
                             int word_in, int word_out,
                             EngineId engine) const;

    /**
     * IP over @p limbs auxiliary limbs with β input digits and β̃
     * output digits, for both ciphertext components (Alg 3 or 4).
     */
    gpusim::KernelCost ip(size_t beta, size_t beta_tilde, size_t limbs,
                          int word_bits) const;
    /**
     * Same, with the GEMM engine chosen per call. The §4.5.3
     * valid-proportion gate still downgrades fp64_tcu to scalar (the
     * CUDA cores) when the fragment utilisation is below
     * ip_tcu_threshold.
     */
    gpusim::KernelCost ip(size_t beta, size_t beta_tilde, size_t limbs,
                          int word_bits, EngineId engine) const;

    /// Element-wise modular multiply of @p limbs batched limbs.
    gpusim::KernelCost modmul(size_t limbs) const;
    /// Element-wise modular add of @p limbs batched limbs.
    gpusim::KernelCost modadd(size_t limbs) const;
    /// AUTO (automorphism permutation) of @p limbs batched limbs.
    gpusim::KernelCost auto_kernel(size_t limbs) const;

    /// The GEMM engine IP actually uses at level @p level (§4.5.3).
    EngineId ip_engine(size_t level) const;

    /**
     * The engine pricing @p stage at @p level: the policy's
     * ExecPolicy::engine_at for this parameter set's site, the call
     * the pipeline makes to pick the engine it runs.
     */
    EngineId engine_at(std::string_view stage, size_t level) const;

    // ---- Composite costs ----------------------------------------------

    /**
     * One kernel of a composite operation. Stage kernels carry their
     * neo::kStages name, the pipeline's span name; other rows
     * ("moddown_fix", the hybrid's "ntt_qp", ...) name their kernel.
     * Names are stable across engines so baselines compare
     * like-for-like.
     */
    struct NamedKernel
    {
        const char *name;
        gpusim::KernelCost cost;
        /// Element-wise stages folded into this kernel by
        /// ExecPolicy::fuse (0 when unfused).
        u64 fused = 0;
    };

    /**
     * One row of an attributed schedule: all invocations of one named
     * kernel, with its share of the schedule time. Time fields are
     * scaled so that summing `modeled_s` over all rows reproduces the
     * schedule total exactly (overlap gains and the occupancy derate
     * are distributed proportionally); bytes/op fields are raw work
     * sums for the whole batch.
     */
    struct KernelAttribution
    {
        std::string name;
        u64 calls = 0;
        double modeled_s = 0;  ///< scaled share of the schedule total
        double fraction = 0;   ///< modeled_s / schedule total
        double compute_s = 0;  ///< scaled compute phase
        double memory_s = 0;   ///< scaled memory phase
        double launch_s = 0;   ///< scaled launch overhead
        double bytes = 0;      ///< DRAM bytes (whole batch)
        double macs = 0;       ///< TCU MACs (whole batch)
        double mod_ops = 0;    ///< CUDA modular ops (whole batch)
        double int_ops = 0;    ///< plain INT32 ops (whole batch)
        u64 fused = 0;         ///< element-wise stages folded in

        /// Bottleneck class of this row (gpusim::roofline_bound).
        gpusim::Bound bound() const
        {
            return gpusim::roofline_bound(compute_s, memory_s, launch_s);
        }
    };

    /**
     * The row of @p rows named @p name, appended zeroed when absent,
     * so rows sum per kernel name in first-appearance order. The
     * schedule, shard and profile attributions all collect rows
     * through it.
     */
    static KernelAttribution &
    row_named(std::vector<KernelAttribution> &rows, std::string_view name);

    /** A schedule's time with its per-kernel roofline attribution. */
    struct AttributedSchedule
    {
        /// Per-batched-ciphertext schedule time.
        double seconds = 0;
        /// Raw whole-batch schedule totals (before occupancy/batch).
        gpusim::ScheduleResult schedule;
        /// Element-wise stages folded into neighbours across the
        /// whole schedule (sum of NamedKernel::fused).
        u64 fused_kernels = 0;
        /// One row per distinct kernel name, first-appearance order.
        std::vector<KernelAttribution> kernels;
    };

    /// The operation's kernels at @p level, in schedule order. The
    /// only place an operation's kernel list is written.
    std::vector<NamedKernel> kernels(Op op, size_t level) const;

    /// kernels(Op::keyswitch, level), under the name perfbench's
    /// replay compiles against.
    std::vector<NamedKernel> keyswitch_kernels_named(size_t level) const;

    /**
     * Wall time of one @p op at @p level, per batched ciphertext: the
     * schedule of kernels(op, level), equal to
     * run_attributed(kernels(op, level)).seconds bit for bit.
     */
    double time(Op op, size_t level) const;

    /**
     * Time for @p count rotations of the same ciphertext with a
     * shared ModUp (Halevi–Shoup hoisting; ckks/hoisting.h is the
     * functional counterpart). Only the Hybrid path hoists here.
     */
    double hrotate_hoisted_time(size_t level, size_t count) const;

    /**
     * The schedule of @p kernels with its per-kernel roofline
     * attribution. `sum(row.modeled_s) == result.seconds` is the
     * contract the profiler's JSON artifact is tested against.
     */
    AttributedSchedule
    run_attributed(const std::vector<NamedKernel> &kernels) const;

    // ---- Traffic introspection (Figs 2 and 15) -------------------------

    /** DRAM traffic of one KeySwitch, split by kernel family. */
    struct KeySwitchTraffic
    {
        double bconv = 0; ///< ModUp + Recover Limbs + ModDown conversions
        double ip = 0;
        double ntt = 0;   ///< NTT + INTT
        double other = 0;

        double total() const { return bconv + ip + ntt + other; }
    };

    KeySwitchTraffic keyswitch_traffic(size_t level) const;

  private:
    /// Cost of an integer GEMM on the configured engine.
    gpusim::KernelCost gemm(size_t m, size_t n, size_t k, int wa, int wb,
                            EngineId engine) const;
    /// @p engine after the §4.5.3 gate: fp64_tcu falls back to the
    /// CUDA cores when a β̃×β IP fragment is at most ip_tcu_threshold
    /// valid.
    EngineId ip_gate(EngineId engine, size_t beta,
                     size_t beta_tilde) const;
    /// @p kernels dispatched as one schedule under this config.
    gpusim::ScheduleResult
    schedule(const std::vector<gpusim::KernelCost> &kernels) const;
    /// Whole-batch schedule time -> time per batched ciphertext.
    double per_ciphertext(const gpusim::ScheduleResult &s) const;

    ckks::CkksParams params_;
    ModelConfig cfg_;
};

} // namespace neo::model
