/**
 * @file
 * The Neo execution pipeline: a functional KLSS KeySwitch whose every
 * stage runs through the paper's optimized kernels —
 *
 *   Mod Up        → BConvKernel::run_matmul_exact (Alg 2 + exactness)
 *   NTT / INTT    → MatrixNtt radix-16 (ten-step, §4.4)
 *   IP            → IpKernel::run_matmul (Alg 4)
 *   Recover Limbs → BConvKernel::run_matmul_exact per key-digit group
 *   Mod Down      → shared with the reference implementation
 *
 * with all matrix multiplications executed by an *emulated tensor
 * core* (or the scalar reference engine), selected per run — or per
 * kernel site — by a neo::ExecPolicy. The output is required to be
 * bit-identical to the reference keyswitch_klss for every policy —
 * the strongest functional statement of the paper's claim that the
 * TCU mapping is exact, not approximate.
 */
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "ckks/keyswitch.h"
#include "neo/exec_policy.h"
#include "neo/kernel_model.h"
#include "poly/mat_mul.h"
#include "tensor/gemm.h"

namespace neo {

/** Which GEMM implementation drives the pipeline's matrix stages. */
struct PipelineEngines
{
    ModMatMulFn same_mod = default_mat_mul();        ///< NTT GEMMs
    ModColMatMulFn per_column = scalar_col_matmul(); ///< BConv GEMMs
    ModSiteMatMulFn per_site = scalar_site_matmul(); ///< batched IP GEMM

    /// Everything through the emulated FP64 tensor core.
    static PipelineEngines fp64_tcu()
    {
        return {fp64_tcu_matmul(), fp64_tcu_col_matmul(),
                fp64_tcu_site_matmul()};
    }

    /// Scalar (CUDA-core analogue) reference engines.
    static PipelineEngines scalar() { return {}; }

    /// Everything through the emulated INT8 tensor core.
    static PipelineEngines int8_tcu()
    {
        return {int8_tcu_matmul(), int8_tcu_col_matmul(),
                int8_tcu_site_matmul()};
    }
};

/**
 * KLSS key switch of @p d2 through the Neo kernel pipeline under
 * @p policy. Same contract as ckks::keyswitch_klss; bit-identical
 * output for every policy.
 *
 * - policy.engine / policy.select: which bit-exact GEMM engine runs
 *   each matrix stage. With EngineSelect::autotune and a site_engine
 *   resolver (see tune::TuningTable::policy), each dispatched stage
 *   (modup_bconv, ntt_t, ip, intt_t, recover_bconv, ntt_q) resolves
 *   its engine from the (stage, level, d_num, N, valid) site key, and
 *   the run records one `tune.site.<stage>.<engine>` obs counter per
 *   decision so tests can prove which engine executed.
 * - policy.fuse: cross-kernel element-wise fusion — the NTT twiddle
 *   passes fold into the matrix-NTT gathers/writebacks and the
 *   ModDown scalar fix folds into its BConv epilogue. Bit-identical
 *   either way (tests/fusion_test.cpp is the differential proof).
 * - policy.graph: forwarded to the modeled-cost span so the recorded
 *   `modeled.keyswitch.s` prices the captured schedule.
 */
std::pair<RnsPoly, RnsPoly>
keyswitch_klss_pipeline(const RnsPoly &d2, const ckks::KlssEvalKey &evk,
                        const ckks::CkksContext &ctx,
                        const ExecPolicy &policy = {});

/**
 * A ckks::Evaluator::KlssKeySwitchFn that routes every KLSS key
 * switch through keyswitch_klss_pipeline under @p policy (captured by
 * value). The one-liner for Evaluator::set_klss_keyswitch.
 */
std::function<std::pair<RnsPoly, RnsPoly>(
    const RnsPoly &, const ckks::KlssEvalKey &, const ckks::CkksContext &)>
klss_keyswitch_fn(ExecPolicy policy);

/**
 * The cost-model configuration matching @p policy for @p params:
 * engine / fuse_elementwise / graph_capture, plus a per-stage engine
 * hook when the policy autotunes — so modeled costs (the pipeline's
 * modeled.keyswitch.s span, neo-prof artifacts) price exactly the
 * engines the policy dispatches.
 */
model::ModelConfig model_config(const ExecPolicy &policy,
                                const ckks::CkksParams &params);

/**
 * Analytic kernel-invocation counts for ONE keyswitch_klss_pipeline
 * run. These are closed-form predictions of the obs span counters
 * ("span.gemm", "span.ntt", "span.bconv", "span.ip") a traced run
 * records — bench/table7_kernels prints them and tests/obs_test
 * asserts the traced pipeline matches them exactly. Engine selection
 * (fixed or autotuned) never changes them.
 */
struct PipelineKernelCounts
{
    u64 gemm = 0;  ///< GEMM engine calls (MatrixNtt stages + BConv + IP)
    u64 ntt = 0;   ///< NTT/INTT transform invocations
    u64 bconv = 0; ///< base-conversion kernel invocations
    u64 ip = 0;    ///< inner-product kernel invocations
};

/// Counts for a keyswitch at @p level in @p ctx.
PipelineKernelCounts
keyswitch_pipeline_kernel_counts(const ckks::CkksContext &ctx,
                                 size_t level);

} // namespace neo
