/**
 * @file
 * neo::ExecPolicy — the typed execution policy of the Neo pipeline.
 *
 * One struct replaces the positional knobs that used to sprawl across
 * keyswitch_klss_pipeline / Evaluator::set_klss_keyswitch / neo-prof /
 * the benches (`const PipelineEngines &engines, bool fuse`, per-call
 * engine strings): which GEMM engine runs (a fixed EngineId, or a
 * per-site resolver built by tune::TuningTable::policy), whether
 * element-wise fusion and graph capture are on, and how many devices
 * the keyswitch shards over. It is the only copy of these choices:
 * the pipeline runs it, and the cost model prices it (as
 * model::ModelConfig::policy, for the tuner, the benches and
 * neo-prof alike), each resolving a site's engine through engine_at.
 *
 * Engine selection never changes results: every engine is bit-exact,
 * so a policy only picks *which* correct engine executes each site.
 * The differential suites (tests/pipeline_test, perf_cache, fusion,
 * tune) pin that down.
 */
#pragma once

#include <functional>
#include <string_view>

#include "gpusim/topology.h"
#include "neo/engine.h"
#include "neo/stage.h"

namespace neo {

/**
 * One kernel site of the keyswitch pipeline: the shape coordinates
 * the engine winner flips with (the paper's Fig 3/16 trade-off).
 */
struct SiteKey
{
    std::string_view stage; ///< a neo::stage name
    size_t level = 0;       ///< ciphertext level
    size_t d_num = 0;       ///< gadget digit count of the parameter set
    size_t n = 0;           ///< polynomial degree N
};

/// Per-site engine resolver an autotune policy dispatches through.
using SiteEngineFn = std::function<EngineId(const SiteKey &)>;

/** Typed execution policy for one pipeline / profile / bench run. */
struct ExecPolicy
{
    /// The fixed engine; also the fallback for sites an autotune
    /// resolver has no decision for.
    EngineId engine = EngineId::fp64_tcu;
    /**
     * Cross-kernel element-wise fusion: fold the ModDown scalar fix
     * into the ModDown BConv epilogue and the twiddle-scale passes
     * into the NTT GEMM epilogues. Bit-identical either way. In the
     * cost model each fold removes a kernel launch and the DRAM round
     * trip of the intermediate (the Theodosian rule: fuse where it
     * also cuts bytes). Off by default — this is the --fuse ablation
     * axis, not a baseline design choice.
     */
    bool fuse = false;
    /**
     * CUDA-graph-style capture of the whole operation DAG, a cost
     * model axis only: one amortized host dispatch replays every
     * kernel (DeviceSpec::graph_launch_s). The --graph ablation axis.
     */
    bool graph = false;
    /// Per-site resolver (tune::TuningTable::policy builds it). A
    /// policy autotunes exactly when it carries one; empty runs
    /// `engine` at every site.
    SiteEngineFn site_engine;
    /**
     * Devices the keyswitch shards across (neo::shard). 1 — the
     * default and every baseline — is the single-device pipeline.
     * N > 1 runs the same kernels device-major over per-device
     * limb/digit ranges (bit-identical) and prices collectives on
     * `interconnect`.
     */
    size_t devices = 1;
    /// Fabric preset the cost model prices when devices > 1.
    gpusim::Interconnect interconnect = gpusim::Interconnect::nvlink;

    /// Fixed-engine policy (the common case).
    static ExecPolicy fixed(EngineId e, bool fuse = false,
                            bool graph = false)
    {
        ExecPolicy p;
        p.engine = e;
        p.fuse = fuse;
        p.graph = graph;
        return p;
    }

    bool is_auto() const { return static_cast<bool>(site_engine); }

    /// The engine this policy runs @p site with.
    EngineId engine_at(const SiteKey &site) const
    {
        return is_auto() ? site_engine(site) : engine;
    }

    /// "auto" or the fixed engine's registry name (for reports).
    std::string_view engine_name() const
    {
        return is_auto() ? std::string_view("auto")
                         : EngineRegistry::name(engine);
    }
};

} // namespace neo
