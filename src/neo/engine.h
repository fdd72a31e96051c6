/**
 * @file
 * The registry of the GEMM engines: their names, and the kernels' GEMM
 * adapters for each.
 *
 * Every layer that used to hand-maintain the engine name list
 * (neo-prof's --engine help text, the bench CLIs, test config tables)
 * resolves through EngineRegistry instead, so adding an engine is a
 * one-file change and the CLI help, parse errors and tuning-table
 * serialization can never drift apart. EngineId itself lives with the
 * engines, in tensor/gemm.h.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "neo/kernels.h"
#include "poly/mat_mul.h"
#include "tensor/gemm.h"

namespace neo {

/**
 * One engine's GEMM adapters, one per operand shape the kernels issue:
 * each wraps gemm(id, …) with its modulus map.
 */
struct PipelineEngines
{
    ModMatMulFn same_mod;      ///< NTT GEMMs (one modulus)
    ModColMatMulFn per_column; ///< BConv GEMMs (a modulus per column)
    ModSiteMatMulFn per_site;  ///< batched IP GEMM (a modulus per site)
};

/** Name/identity registry for the GEMM engines. */
class EngineRegistry
{
  public:
    /// Every engine, in canonical order.
    static const std::vector<EngineId> &ids();

    /// Stable lowercase name ("fp64_tcu", "scalar", "int8_tcu").
    static std::string_view name(EngineId id);

    /**
     * Parse an engine name. Throws std::invalid_argument on an
     * unknown name, listing the valid ones.
     */
    static EngineId parse(std::string_view name);

    /// Parse without throwing; nullopt on an unknown name.
    static std::optional<EngineId> try_parse(std::string_view name);

    /// " | "-joined name list for CLI help text.
    static std::string help_list(std::string_view sep = " | ");

    /// Engine @p id's GEMM adapters, built once (shared immutable
    /// instance).
    static const PipelineEngines &engines(EngineId id);
};

} // namespace neo
