/**
 * @file
 * The Neo execution pipeline: a functional KLSS KeySwitch run as the
 * eight keyswitch stages of neo/stage.h, in table order —
 *
 *   intt_q        → reference radix-2 INTT over Q
 *   modup_bconv   → BConvKernel::run_matmul_exact (Alg 2 + exactness)
 *   ntt_t, intt_t → MatrixNtt radix-16 over T (ten-step, §4.4)
 *   ip            → IpKernel::run_matmul_reordered (Alg 4)
 *   recover_bconv → BConvKernel::run_matmul_exact per key-digit group
 *   moddown_bconv → ckks::mod_down, shared with the reference
 *   ntt_q         → MatrixNtt radix-16 over Q
 *
 * each under one obs stage span named by its stage, so a traced run's
 * `lat.stage.<stage>.ns` lines up with neo-prof's
 * `modeled.kernel.<stage>.s`. The matrix stages run on an *emulated
 * tensor core* (or the scalar reference engine), selected per run —
 * or per stage — by a neo::ExecPolicy. The output is bit-identical to
 * the reference keyswitch_klss for every policy — the strongest
 * functional statement of the paper's claim that the TCU mapping is
 * exact, not approximate.
 */
#pragma once

#include <utility>
#include <vector>

#include "ckks/keyswitch.h"
#include "neo/exec_policy.h"
#include "neo/kernel_model.h"

namespace neo {

/**
 * KLSS key switch of @p d2 through the Neo kernel pipeline under
 * @p policy. Same contract as ckks::keyswitch_klss; bit-identical
 * output for every policy.
 *
 * - policy.engine / policy.site_engine: which bit-exact GEMM engine
 *   runs each matrix stage. A policy with a site_engine resolver
 *   (see tune::TuningTable::policy) autotunes: each dispatched stage
 *   (modup_bconv, ntt_t, ip, intt_t, recover_bconv, ntt_q) resolves
 *   its engine through ExecPolicy::engine_at from the (stage, level,
 *   d_num, N) site key — the call model::KernelModel::engine_at makes
 *   to price it — and the run records one
 *   `tune.site.<stage>.<engine>` obs counter per decision so tests
 *   can prove which engine executed.
 * - policy.fuse: cross-kernel element-wise fusion — the NTT twiddle
 *   passes fold into the matrix-NTT gathers/writebacks and the
 *   ModDown scalar fix folds into its BConv epilogue. Bit-identical
 *   either way (tests/fusion_test.cpp is the differential proof).
 * - policy.devices: the stage loops run in device-major shard order
 *   (shard::shard_range); bit-identical for every device count.
 * - policy.graph and policy.interconnect: cost-model options only.
 *   The run prices nothing; neo-prof prices the captured or sharded
 *   schedule with the same policy in ModelConfig::policy.
 */
std::pair<RnsPoly, RnsPoly>
keyswitch_klss_pipeline(const RnsPoly &d2, const ckks::KlssEvalKey &evk,
                        const ckks::CkksContext &ctx,
                        const ExecPolicy &policy = {});

/**
 * A default cost-model configuration carrying @p policy; @p params is
 * unused. It stays only because perfbench/harness/replay.cpp compiles
 * against it; no code in this repository calls it. Set
 * ModelConfig::policy directly instead.
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
