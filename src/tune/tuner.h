/**
 * @file
 * neo::tune::Tuner — the per-site engine autotuner.
 *
 * For every kernel site of the keyswitch pipeline (the paper's Fig
 * 3/16 observation: the engine winner flips with level, d_num, N and
 * the FP64 valid proportion), the tuner scores the three bit-exact
 * GEMM engines on the gpusim cost model and emits a TuningTable of
 * per-site decisions.
 *
 * The search is a deterministic coordinate descent per level:
 *
 *  1. Price the level's operation set (keyswitch, hmult, hrotate,
 *     rescale, double rescale) under each *uniform* engine; the
 *     per-operation minima become the targets.
 *  2. Start from the uniform engine with the best (keyswitch, total)
 *     time and sweep the stages in pipeline order, trying each engine
 *     in registry order. A move is accepted only if no operation's
 *     shortfall against its target grows and the summed shortfall
 *     (then the summed time) shrinks — so the final mix can only
 *     close gaps, never open new ones.
 *
 * Because the schedule totals are max-combinations of compute/memory
 * phases (not additive), per-stage mixing can rebalance the CUDA and
 * TCU pipes and strictly beat every uniform engine; the acceptance
 * rule guarantees the tuned keyswitch is never slower than the best
 * uniform engine at any level (the `neo.bench/1` gate's invariant).
 *
 * Everything is model-driven and deterministic: no wall-clock
 * measurements, no randomness, no thread-count dependence — the same
 * parameters always produce a byte-identical table.
 */
#pragma once

#include "ckks/params.h"
#include "neo/kernel_model.h"
#include "tune/tuning_table.h"

namespace neo::tune {

/** Tuner knobs. */
struct TunerConfig
{
    /// Model axes the tuned system runs under (device, fusion,
    /// multistream, graph capture...).
    model::ModelConfig base;
    /// Coordinate-descent sweep limit (converges in 2-3 in practice).
    size_t max_passes = 8;
};

/** Per-site engine autotuner over the gpusim cost model. */
class Tuner
{
  public:
    explicit Tuner(TunerConfig cfg = {}) : cfg_(std::move(cfg)) {}

    /**
     * Tune every level of @p params (0..max_level) and add the
     * decisions to @p out. Requires KLSS parameters (the pipeline the
     * sites belong to).
     */
    void tune(const ckks::CkksParams &params, TuningTable &out) const;

    /// Convenience: a fresh table for @p params.
    TuningTable tune(const ckks::CkksParams &params) const;

  private:
    void tune_level(const ckks::CkksParams &params, size_t level,
                    TuningTable &out) const;

    TunerConfig cfg_;
};

} // namespace neo::tune
