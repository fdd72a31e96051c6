#include "common/isa.h"

#include <atomic>

#include "common/check.h"

namespace neo {

namespace {

#if defined(__x86_64__) || defined(__i386__)

Isa
detect_isa()
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma"))
        return Isa::avx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return Isa::avx2;
    return Isa::portable;
}

bool
detect_ifma()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512ifma");
}

#else

Isa
detect_isa()
{
    return Isa::portable;
}

bool
detect_ifma()
{
    return false;
}

#endif

std::atomic<Isa> &
active_level()
{
    static std::atomic<Isa> isa{isa_supported()};
    return isa;
}

} // namespace

Isa
isa_supported()
{
    static const Isa isa = detect_isa();
    return isa;
}

Isa
active_isa()
{
    return active_level().load(std::memory_order_relaxed);
}

const char *
isa_name(Isa isa)
{
    switch (isa) {
    case Isa::avx512:
        return "avx512";
    case Isa::avx2:
        return "avx2";
    case Isa::portable:
        break;
    }
    return "portable";
}

bool
ifma_lanes()
{
    static const bool host_ifma = detect_ifma();
    return host_ifma && active_isa() == Isa::avx512;
}

Isa
force_isa_for_testing(Isa isa)
{
    NEO_CHECK(isa <= isa_supported(), "ISA level not supported by this host");
    return active_level().exchange(isa, std::memory_order_relaxed);
}

} // namespace neo
