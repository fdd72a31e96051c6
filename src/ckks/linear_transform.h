/**
 * @file
 * Homomorphic slot-wise linear transforms — the machinery behind
 * CoeffToSlot / SlotToCoeff and any matrix-vector product on packed
 * ciphertexts.
 *
 * For a matrix M over the slot space, y = M·z is evaluated with the
 * diagonal method:  y = Σ_d diag_d(M) ⊙ rot(z, d), optionally
 * organised baby-step/giant-step so only ~2√D rotations are needed
 * for D non-zero diagonals (the rotation counts the bootstrap
 * schedule in apps/schedules.cpp assumes).
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

    /// Rotation steps whose Galois keys apply() needs (naive method).
    std::vector<i64> required_rotations() const;

    /// Rotation steps needed by apply_bsgs().
    std::vector<i64> required_rotations_bsgs() const;

    /**
     * y = M·z homomorphically, one rotation per non-zero diagonal.
     * The result is rescaled once (consumes one level).
     * @p keys must hold Galois keys for required_rotations().
     */
    Ciphertext apply(const Evaluator &ev, const CkksContext &ctx,
                     const Ciphertext &ct,
                     const EvalKeyBundle &keys) const;

    /**
     * Baby-step/giant-step variant (~2√D rotations).
     * @param hoist  compute the baby rotations with one shared ModUp
     *        (ckks/hoisting.h); requires hybrid Galois keys.
     */
    Ciphertext apply_bsgs(const Evaluator &ev, const CkksContext &ctx,
                          const Ciphertext &ct, const EvalKeyBundle &keys,
                          bool hoist = false) const;

    /// Plaintext y = Σ_d diag_d ⊙ rot(z, d) over the kept diagonals.
    std::vector<Complex> apply_plain(const std::vector<Complex> &z) const;

  private:
    struct Diagonal
    {
        size_t offset = 0;
        std::vector<Complex> values; ///< diag_offset(M)
    };

    size_t slots_;
    size_t giant_; // BSGS giant-step size
    /// The non-zero diagonals, ascending by offset.
    std::vector<Diagonal> diagonals_;
};

} // namespace neo::ckks
