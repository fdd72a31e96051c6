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
 *  2. CoeffToSlot — two homomorphic linear transforms (+ conjugation)
 *     move the N coefficients into the slots of two ciphertexts.
 *  3. EvalMod — evaluate (1/2π)·sin(2π t) ≈ t − I on each: Chebyshev
 *     approximation of a scaled cosine (baby-step giant-step, exact
 *     scales; PolyEvaluator::evaluate_chebyshev) followed by
 *     double-angle steps.
 *  4. SlotToCoeff — the inverse transforms reassemble a fresh
 *     ciphertext encrypting ≈ m at a higher level.
 *
 * Matrices for stages 2/4 are derived *numerically from the encoder's
 * own canonical embedding*, so the implementation cannot drift from
 * the encoding convention. Dense or factored, every stage is a
 * LinearTransform applied by its one apply(), and the Galois keys a
 * bootstrap needs are the union of its transforms'
 * required_rotations().
 */
#pragma once

#include "ckks/linear_transform.h"
#include "ckks/poly_eval.h"

namespace neo::boot {

// Explicit imports instead of `using namespace ckks;` so includers of
// this header don't inherit the whole ckks namespace into neo::boot.
using ckks::Ciphertext;
using ckks::CkksContext;
using ckks::Complex;
using ckks::EvalKeyBundle;
using ckks::Evaluator;
using ckks::LinearTransform;
using ckks::Plaintext;
using ckks::PolyEvaluator;

/** Tunables for the sine approximation and transform structure. */
struct BootstrapOptions
{
    double k_range = 8.0;     ///< bound on |t| = |m + q0·I|/q0
    int sin_degree = 63;      ///< Chebyshev degree of the base cosine
    int double_angles = 1;    ///< r: cos doubling steps (error scales ~4^r)
    size_t input_level = 0;   ///< level the input is dropped to
    /**
     * 0: dense single-stage CtS/StC. G ≥ 1: factored butterfly
     * transforms grouped into G homomorphic stages each (the
     * PackBootstrap "3 BSGS stages" structure; costs 2G-1 extra
     * levels, saves rotations at scale).
     */
    size_t factored_groups = 0;
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
     * k_range ≤ 0, double_angles < 0, input_level ≠ 0, or a chain
     * shorter than depth().
     */
    Bootstrapper(const CkksContext &ctx, const Evaluator &ev,
                 const EvalKeyBundle &keys,
                 const BootstrapOptions &opts = {});
    ~Bootstrapper();

    /// Rotation steps whose Galois keys the transforms require: the
    /// union of the factored stages' required_rotations(), or the BSGS
    /// steps of a dense transform. Ascending, no duplicates.
    static std::vector<i64>
    required_rotations(const CkksContext &ctx,
                       const BootstrapOptions &opts = {});

    /**
     * Refresh @p ct (at opts.input_level) to a higher level.
     * The output level is whatever the EvalMod depth leaves standing.
     */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    /// Levels a bootstrap consumes: ctx.max_level() minus the output
    /// level. EvalMod's cosine takes PolyEvaluator::chebyshev_depth.
    size_t depth() const;

    /**
     * Stage 1 of bootstrap(): reinterpret level-0 @p ct over the full
     * chain. Each component's level-0 residues are lifted centered,
     * to (−q0/2, q0/2], so the result decrypts to m + q0·I with
     * |I| ≲ ||s||₁/2.
     */
    Ciphertext mod_raise(const Ciphertext &ct) const;

  private:
    /// EvalMod with a complex pre-factor folded into the input
    /// normalisation (the factored path feeds i·b-valued slots).
    Ciphertext eval_mod(const Ciphertext &ct, Complex prefactor) const;
    Ciphertext bootstrap_dense(const Ciphertext &raised) const;
    Ciphertext bootstrap_factored(const Ciphertext &raised) const;

    const CkksContext &ctx_;
    const Evaluator &ev_;
    const EvalKeyBundle &keys_;
    BootstrapOptions opts_;
    PolyEvaluator poly_;
    std::vector<double> cos_coeffs_; // Chebyshev fit of the base cosine
    // Dense path, built only when factored_groups == 0: CtS halves
    // from slots; StC slots from halves.
    std::unique_ptr<LinearTransform> cts_lo_, cts_hi_;
    std::unique_ptr<LinearTransform> stc_lo_, stc_hi_;
    // Factored path: grouped butterfly stages.
    std::unique_ptr<class FactoredEmbedding> factored_;
};

} // namespace neo::boot
