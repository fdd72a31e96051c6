/**
 * @file
 * CKKS bootstrapping (PackBootstrap, §5): refresh an exhausted
 * ciphertext's multiplicative budget.
 *
 * Stages, as in Fig 5's application column and the standard
 * Lattigo/HEAAN pipeline:
 *
 *  1. ModRaise — reinterpret the level-0 ciphertext over the full
 *     chain; it now decrypts to m + q0·I for a small integer
 *     polynomial I (|I| ≲ ||s||₁/2, hence the sparse secret).
 *  2. CoeffToSlot — G grouped butterfly stages (the PackBootstrap
 *     "BSGS stages") take the slots to a + i·b, the two coefficient
 *     halves; a conjugation splits them into 2a and 2i·b.
 *  3. EvalMod — evaluate (1/2π)·sin(2π t) ≈ t − I on each half:
 *     Chebyshev approximation of a scaled cosine (baby-step
 *     giant-step, exact scales; PolyEvaluator::evaluate_chebyshev)
 *     followed by double-angle steps.
 *  4. SlotToCoeff — v0 + i·v1, then the G forward stages reassemble a
 *     fresh ciphertext encrypting ≈ m at a higher level.
 *
 * Multiplying by i is Evaluator::mul_by_i, the exact monomial X^{N/2},
 * and every other constant is an Evaluator::mul_integer, so a
 * bootstrap encodes nothing but its stages' diagonals and costs
 * 2G + EvalMod's levels. Every stage is a LinearTransform applied by
 * its one apply(), and the Galois keys a bootstrap needs are the
 * union of its stages' required_rotations().
 */
#pragma once

#include "boot/factored_transform.h"
#include "ckks/poly_eval.h"

namespace neo::boot {

// Explicit imports instead of `using namespace ckks;` so includers of
// this header don't inherit the whole ckks namespace into neo::boot.
using ckks::Ciphertext;
using ckks::CkksContext;
using ckks::EvalKeyBundle;
using ckks::Evaluator;
using ckks::PolyEvaluator;

/** Tunables for the sine approximation and transform structure. */
struct BootstrapOptions
{
    double k_range = 8.0;     ///< bound on |t| = |m + q0·I|/q0
    int sin_degree = 63;      ///< Chebyshev degree of the base cosine
    int double_angles = 1;    ///< r: cos doubling steps (error scales ~4^r)
    size_t input_level = 0;   ///< level the input is dropped to
    /**
     * G (1 ≤ G ≤ log2(N/2)): the butterfly levels of CoeffToSlot and
     * of SlotToCoeff run in ⌈log2(N/2)/G⌉-level groups, at most G
     * homomorphic stages each way and one level per stage. More
     * groups rotate less per stage and cost more levels.
     */
    size_t factored_groups = 1;
};

/** Precomputed bootstrapping machinery for one context. */
class Bootstrapper
{
  public:
    /**
     * @param keys bundle with the relin key and Galois keys for
     *        required_rotations() (+ conjugation). Must outlive this
     *        object.
     *
     * Rejects options the chain cannot run: sin_degree < 1,
     * k_range ≤ 0, double_angles < 0, input_level ≠ 0,
     * factored_groups outside 1…log2(N/2), or a chain shorter than
     * depth().
     */
    Bootstrapper(const CkksContext &ctx, const Evaluator &ev,
                 const EvalKeyBundle &keys,
                 const BootstrapOptions &opts = {});

    /// Rotation steps whose Galois keys the transforms require: the
    /// union of the stages' required_rotations(). Ascending, no
    /// duplicates.
    static std::vector<i64>
    required_rotations(const CkksContext &ctx,
                       const BootstrapOptions &opts = {});

    /**
     * Refresh @p ct (at opts.input_level) to a higher level.
     * The output level is whatever the EvalMod depth leaves standing.
     */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    /// Levels a bootstrap consumes: ctx.max_level() minus the output
    /// level, 2G + EvalMod's. EvalMod's cosine takes
    /// PolyEvaluator::chebyshev_depth.
    size_t depth() const;

    /**
     * Stage 1 of bootstrap(): reinterpret level-0 @p ct over the full
     * chain. Each component's level-0 residues are lifted centered,
     * to (−q0/2, q0/2], so the result decrypts to m + q0·I with
     * |I| ≲ ||s||₁/2.
     */
    Ciphertext mod_raise(const Ciphertext &ct) const;

  private:
    /// EvalMod with a real pre-factor folded into the input
    /// normalisation.
    Ciphertext eval_mod(const Ciphertext &ct, double factor) const;

    const CkksContext &ctx_;
    const Evaluator &ev_;
    const EvalKeyBundle &keys_;
    BootstrapOptions opts_;
    PolyEvaluator poly_;
    std::vector<double> cos_coeffs_; // Chebyshev fit of the base cosine
    FactoredEmbedding factored_;     // the grouped butterfly stages
};

} // namespace neo::boot
