/**
 * @file
 * neo::ExecPolicy — the typed execution policy of the Neo pipeline.
 *
 * One struct replaces the positional knobs that used to sprawl across
 * keyswitch_klss_pipeline / Evaluator::set_klss_keyswitch / neo-prof /
 * the benches (`const PipelineEngines &engines, bool fuse`, per-call
 * engine strings): which GEMM engine runs (a fixed EngineId, or
 * per-site autotuned decisions), whether element-wise fusion and
 * graph capture are on, and where the tuning table came from.
 *
 * Engine selection never changes results: every engine is bit-exact,
 * so a policy only picks *which* correct engine executes each site.
 * The differential suites (tests/pipeline_test, perf_cache, fusion,
 * tune) pin that down.
 */
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "gpusim/topology.h"
#include "neo/engine.h"
#include "neo/stage.h"

namespace neo {

/** How a policy chooses the GEMM engine. */
enum class EngineSelect {
    fixed,    ///< one engine for every site (the historical behaviour)
    autotune, ///< per-site decisions from a tuning table / resolver
};

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
    double valid = 0;       ///< FP64 fragment valid proportion (§4.5.3)
    /// Devices the run shards over (1 = single device). Tuning-table
    /// entries may pin a decision to a device count; device-agnostic
    /// entries match any.
    size_t devices = 1;
};

/// Per-site engine resolver an autotune policy dispatches through.
using SiteEngineFn = std::function<EngineId(const SiteKey &)>;

/** Typed execution policy for one pipeline / profile / bench run. */
struct ExecPolicy
{
    EngineSelect select = EngineSelect::fixed;
    /// The fixed engine; also the fallback for sites an autotune
    /// resolver has no decision for.
    EngineId engine = EngineId::fp64_tcu;
    /// Cross-kernel element-wise fusion (PR 6); bit-identical either
    /// way.
    bool fuse = false;
    /// CUDA-graph capture/replay in the cost model.
    bool graph = false;
    /// Provenance: path of the tuning table backing an autotune
    /// policy (informational; carried into artifacts).
    std::string tuning_table;
    /// Resolver for autotune mode. Empty + autotune means "resolve at
    /// profile time" (load tuning_table, or tune in-memory).
    SiteEngineFn site_engine;
    /**
     * Devices the keyswitch shards across (neo::shard). 1 — the
     * default — is the single-device pipeline. N > 1 runs the same
     * kernels device-major over per-device limb/digit ranges
     * (bit-identical) and prices collectives on `interconnect`.
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

    bool is_auto() const { return select == EngineSelect::autotune; }

    /// The engine this policy runs @p site with.
    EngineId engine_at(const SiteKey &site) const
    {
        if (is_auto() && site_engine)
            return site_engine(site);
        return engine;
    }

    /// "auto" or the fixed engine's registry name (for reports).
    std::string_view engine_name() const
    {
        return is_auto() ? std::string_view("auto")
                         : EngineRegistry::name(engine);
    }
};

} // namespace neo
