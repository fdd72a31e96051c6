/**
 * @file
 * Homomorphic slot-wise linear transforms — the machinery behind the
 * bootstrap's CoeffToSlot / SlotToCoeff stages (sparse butterfly
 * groups, boot/factored_transform.h) and any matrix-vector product on
 * packed ciphertexts.
 *
 * For a matrix M over the slot space, y = M·z is evaluated with the
 * diagonal method, y = Σ_d diag_d(M) ⊙ rot(z, d), organised
 * baby-step/giant-step: with giant step g, offset d = i·g + j is a
 * baby rotation by j of z and a giant rotation by i·g of the inner sum
 * over j. Each transform picks g from its kept offsets (the power of
 * two with the fewest distinct rotation steps), so a full matrix
 * rotates ~2√slots times (the rotation counts the model's bootstrap
 * schedule in apps/schedules.cpp assumes) and a sparse one rotates
 * once per diagonal or fewer. One apply() serves every transform, and
 * required_rotations() names exactly the steps it rotates by.
 */
#pragma once

#include <vector>

#include "ckks/evaluator.h"

namespace neo::ckks {

/**
 * A complex matrix acting on the slot vector, stored as its non-zero
 * diagonals: the form apply() encodes. The dense matrix is not kept.
 */
class LinearTransform
{
  public:
    /// diag_offset(M)[i] = M[i][(i + offset) mod slots].
    struct Diagonal
    {
        size_t offset = 0;
        std::vector<Complex> values;
    };

    /**
     * Keep @p diagonals as the matrix.
     * @param diagonals  ascending offsets below @p slots, @p slots
     *        values each.
     * @param slots      dimension (must equal the context's slot count).
     */
    LinearTransform(std::vector<Diagonal> diagonals, size_t slots);

    /**
     * Keep the diagonals of @p matrix that hold an entry of magnitude
     * above 1e-12, found in one row-major pass; the matrix is consumed.
     * @param matrix  row-major slots×slots complex matrix.
     * @param slots   dimension (must equal the context's slot count).
     */
    LinearTransform(std::vector<Complex> matrix, size_t slots);

    size_t slots() const { return slots_; }

    /// diag_d(M)[i] = M[i][(i+d) mod slots]; zeros for a diagonal that
    /// is not kept.
    std::vector<Complex> diagonal(size_t d) const;

    /// Rotation steps whose Galois keys apply() needs: exactly the steps
    /// it rotates by, ascending.
    std::vector<i64> required_rotations() const;

    /**
     * y = M·z homomorphically, one rotation per step of
     * required_rotations(). The result is rescaled once (consumes one
     * level). @p keys must hold Galois keys for required_rotations().
     */
    Ciphertext apply(const Evaluator &ev, const CkksContext &ctx,
                     const Ciphertext &ct,
                     const EvalKeyBundle &keys) const;

    /// Plaintext y = Σ_d diag_d ⊙ rot(z, d) over the kept diagonals.
    std::vector<Complex> apply_plain(const std::vector<Complex> &z) const;

  private:
    size_t slots_;
    size_t giant_; // BSGS giant step g; g = slots_ means none
    /// The non-zero diagonals, ascending by offset.
    std::vector<Diagonal> diagonals_;
};

} // namespace neo::ckks
