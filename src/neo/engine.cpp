#include "neo/engine.h"

#include <stdexcept>

#include "neo/pipeline.h"

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

const PipelineEngines &
EngineRegistry::engines(EngineId id)
{
    // Immutable after construction; magic statics make the
    // initialization race-free. neo-lint: allow(thread-unsafe-static)
    static const PipelineEngines fp64 = PipelineEngines::fp64_tcu();
    // neo-lint: allow(thread-unsafe-static)
    static const PipelineEngines sc = PipelineEngines::scalar();
    // neo-lint: allow(thread-unsafe-static)
    static const PipelineEngines i8 = PipelineEngines::int8_tcu();
    switch (id) {
      case EngineId::fp64_tcu: return fp64;
      case EngineId::scalar: return sc;
      case EngineId::int8_tcu: return i8;
    }
    throw std::invalid_argument("invalid EngineId");
}

} // namespace neo
