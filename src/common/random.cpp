#include "common/random.h"

#include <cmath>

#include "common/check.h"

namespace neo {

namespace {

u64
splitmix64(u64 &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

u64
rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(u64 seed)
{
    u64 s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

u64
Rng::next()
{
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

u64
Rng::uniform(u64 bound)
{
    NEO_CHECK(bound != 0, "uniform bound must be nonzero");
    // Rejection sampling to remove modulo bias.
    const u64 threshold = (0 - bound) % bound;
    for (;;) {
        u64 r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::uniform_real()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

i64
Rng::ternary()
{
    switch (next() & 3) {
      case 0:
        return 1;
      case 1:
        return -1;
      default:
        return 0;
    }
}

i64
Rng::gaussian(double sigma)
{
    // Box-Muller; rounding a continuous Gaussian is fine for a
    // reproduction study (not constant-time / not CSPRNG).
    double u1 = uniform_real();
    double u2 = uniform_real();
    if (u1 < 1e-300)
        u1 = 1e-300;
    double g = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2) * sigma;
    return std::llround(g);
}

std::vector<u64>
Rng::uniform_vec(std::size_t n, u64 q)
{
    std::vector<u64> v(n);
    for (auto &x : v)
        x = uniform(q);
    return v;
}

} // namespace neo
