/**
 * @file
 * Test helper: run a check once per instruction-set level.
 */
#pragma once

#include <gtest/gtest.h>

#include "common/isa.h"

namespace neo {

/// Run @p fn once per ISA level the host supports, lowest first, each
/// forced through force_isa_for_testing() and named in a SCOPED_TRACE;
/// the previous level is restored afterwards.
template <class Fn>
void
for_each_isa(Fn &&fn)
{
    for (int lvl = 0; lvl <= static_cast<int>(isa_supported()); ++lvl) {
        const Isa isa = static_cast<Isa>(lvl);
        const Isa prev = force_isa_for_testing(isa);
        SCOPED_TRACE(isa_name(isa));
        fn();
        force_isa_for_testing(prev);
    }
}

} // namespace neo
