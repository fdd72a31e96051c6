/**
 * @file
 * Typed GEMM-engine identities and the registry that is the single
 * source of truth for their names.
 *
 * Every layer that used to hand-maintain the engine name list
 * (neo-prof's --engine help text, the bench CLIs, test config tables)
 * resolves through EngineRegistry instead, so adding an engine is a
 * one-file change and the CLI help, parse errors and tuning-table
 * serialization can never drift apart.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace neo {

struct PipelineEngines;

/**
 * One bit-exact GEMM engine: the pipe a kernel's GEMM runs on, in the
 * functional pipeline and in the cost model alike (scalar is the
 * CUDA-core path). The numeric order is the registry's canonical
 * (and serialization) order; it doubles as the deterministic
 * tie-break when the tuner scores two engines equal.
 */
enum class EngineId {
    fp64_tcu = 0, ///< emulated FP64 tensor core (bit-sliced doubles)
    scalar = 1,   ///< scalar modular arithmetic (CUDA-core analogue)
    int8_tcu = 2, ///< emulated INT8 tensor core
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

    /// The functional GEMM bundle (shared immutable instance).
    static const PipelineEngines &engines(EngineId id);
};

} // namespace neo
