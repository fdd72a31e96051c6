/**
 * @file
 * Deterministic pseudo-random generation for key material, noise and
 * test data.
 *
 * Uses xoshiro256** — fast, seedable, and reproducible across
 * platforms, which matters for regression tests. This is NOT a CSPRNG;
 * a production deployment would swap in a proper DRBG behind the same
 * interface. For a performance-reproduction study the statistical
 * quality is what matters.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace neo {

/** xoshiro256**-based generator with FHE-oriented sampling helpers. */
class Rng
{
  public:
    /// Seed with splitmix64 expansion of @p seed.
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL);

    /// Next raw 64-bit value.
    u64 next();

    /// Uniform value in [0, bound). @p bound must be nonzero.
    u64 uniform(u64 bound);

    /// Uniform double in [0, 1).
    double uniform_real();

    /**
     * Ternary coefficient in {-1, 0, 1}: probability 1/4 for each of
     * ±1, 1/2 for 0 (HEAAN-style).
     */
    i64 ternary();

    /**
     * Rounded centered Gaussian with standard deviation @p sigma
     * (default 3.2, the usual RLWE error width).
     */
    i64 gaussian(double sigma = 3.2);

    /// Vector of n uniform residues mod q.
    std::vector<u64> uniform_vec(std::size_t n, u64 q);

  private:
    u64 state_[4];
};

} // namespace neo
