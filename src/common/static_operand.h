/**
 * @file
 * neo::StaticPin — a stateless leftover that does nothing.
 *
 * GEMM operands are sliced into planes on every call, so no operand is
 * registered or cached any more. The type survives only because the
 * benchmark harness (perfbench/harness/replay.cpp) still assigns
 * ckks::KlssEvalKey::IpOperands::pins, and that harness changes only
 * together with the benchmark itself. Delete this header and that
 * field in the next change to the benchmark.
 */
#pragma once

#include <cstddef>

namespace neo {

struct StaticPin
{
    StaticPin() = default;
    StaticPin(const void *, size_t) {}
};

} // namespace neo
