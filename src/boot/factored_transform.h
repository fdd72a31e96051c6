/**
 * @file
 * Factored CoeffToSlot / SlotToCoeff — the multi-stage structure of
 * production bootstrapping (the "3 BSGS stages" of the PackBootstrap
 * schedule), replacing one dense slots×slots transform by a few
 * sparse ones.
 *
 * The canonical embedding z_k = m(ζ^{5^k}) factors, by the even/odd
 * (decimation-in-time) recursion in the rotation-group ordering, into
 *
 *   z = S_log2(S) ∘ … ∘ S_1 (base),
 *   base[k] = c_{σ(k)} + i·c_{σ(k)+N/2},  σ = bit-reversal,
 *
 * where every butterfly stage S_ℓ (block size B = 2^ℓ, distance
 * D = B/2) touches only the diagonals {0, +D, −D}: a 2-rotation
 * homomorphic linear transform. Consecutive stages are composed in
 * diagonal form into a configurable number of groups, trading
 * rotations per stage against multiplicative levels — exactly the
 * grouping knob production bootstraps tune. A group's inverse is the
 * product, in reverse order, of each stage's closed-form 2×2 inverse;
 * no dense slots×slots matrix is formed.
 *
 * Everything is validated against the dense embedding matrix derived
 * from the encoder, so the factorization cannot drift from the
 * encoding convention.
 */
#pragma once

#include <vector>

#include "ckks/linear_transform.h"

namespace neo::boot {

using ckks::Complex;

/** The butterfly factorization of the slot embedding. */
class FactoredEmbedding
{
  public:
    /**
     * Build the factorization for ring degree @p n, grouped into
     * @p groups homomorphic stages (1 ≤ groups ≤ log2(n/2)).
     */
    FactoredEmbedding(size_t n, size_t groups);

    size_t slots() const { return slots_; }
    size_t groups() const { return forward_.size(); }

    /// σ: base slot k holds coefficients σ(k) and σ(k)+N/2.
    size_t sigma(size_t k) const { return sigma_[k]; }

    /// Forward grouped stages: base values -> slot values.
    const std::vector<ckks::LinearTransform> &forward() const
    {
        return forward_;
    }

    /// Inverse grouped stages: slot values -> base values.
    const std::vector<ckks::LinearTransform> &inverse() const
    {
        return inverse_;
    }

    // ---- Plaintext reference paths (tests + derivation checks) ------

    /// base[k] = c_{σ(k)} + i·c_{σ(k)+N/2} for a length-N real vector.
    std::vector<Complex> pack_base(const std::vector<double> &coeffs) const;

    /// Apply all forward stages to a base vector (plaintext).
    std::vector<Complex> apply_forward(std::vector<Complex> base) const;

    /// Apply all inverse stages to a slot vector (plaintext).
    std::vector<Complex> apply_inverse(std::vector<Complex> z) const;

  private:
    size_t n_;
    size_t slots_;
    std::vector<size_t> sigma_;
    std::vector<ckks::LinearTransform> forward_;
    std::vector<ckks::LinearTransform> inverse_;
};

} // namespace neo::boot
