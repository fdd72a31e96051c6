#include "neo/engine.h"

#include <iterator>
#include <stdexcept>

namespace neo {

const std::vector<EngineId> &
EngineRegistry::ids()
{
    static const std::vector<EngineId> all = {
        EngineId::fp64_tcu, EngineId::scalar, EngineId::int8_tcu};
    return all;
}

std::string_view
EngineRegistry::name(EngineId id)
{
    switch (id) {
      case EngineId::fp64_tcu: return "fp64_tcu";
      case EngineId::scalar: return "scalar";
      case EngineId::int8_tcu: return "int8_tcu";
    }
    throw std::invalid_argument("invalid EngineId");
}

std::optional<EngineId>
EngineRegistry::try_parse(std::string_view s)
{
    for (EngineId id : ids())
        if (name(id) == s)
            return id;
    return std::nullopt;
}

EngineId
EngineRegistry::parse(std::string_view s)
{
    if (auto id = try_parse(s))
        return *id;
    std::string msg = "unknown pipeline engine '";
    msg += s;
    msg += "' (valid:";
    for (EngineId id : ids()) {
        msg += ' ';
        msg += name(id);
    }
    msg += ')';
    throw std::invalid_argument(msg);
}

std::string
EngineRegistry::help_list(std::string_view sep)
{
    std::string out;
    for (EngineId id : ids()) {
        if (!out.empty())
            out += sep;
        out += name(id);
    }
    return out;
}

namespace {

/// Engine @p id's three adapters, each one gemm(id, …) call under its
/// modulus map.
PipelineEngines
adapters(EngineId id)
{
    return {[id](const u64 *a, const u64 *b, u64 *c, size_t m, size_t n,
                 size_t k, const Modulus &q) {
                gemm(id, a, b, c, {1, m, n, k}, ModulusMap::of(q));
            },
            [id](const u64 *a, const u64 *b, u64 *c, size_t m, size_t n,
                 size_t k, const std::vector<Modulus> &mods) {
                gemm(id, a, b, c, {1, m, n, k}, ModulusMap::columns(mods));
            },
            [id](const u64 *a, const u64 *b, u64 *c, size_t sites, size_t m,
                 size_t n, size_t k, const std::vector<Modulus> &mods) {
                gemm(id, a, b, c, {sites, m, n, k}, ModulusMap::sites(mods));
            }};
}

} // namespace

const PipelineEngines &
EngineRegistry::engines(EngineId id)
{
    // Indexed by EngineId, whose values are the canonical order.
    static const PipelineEngines all[] = {adapters(EngineId::fp64_tcu),
                                          adapters(EngineId::scalar),
                                          adapters(EngineId::int8_tcu)};
    const auto at = static_cast<size_t>(id);
    if (at >= std::size(all))
        throw std::invalid_argument("invalid EngineId");
    return all[at];
}

} // namespace neo
