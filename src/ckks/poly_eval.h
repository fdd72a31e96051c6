/**
 * @file
 * Homomorphic polynomial evaluation with logarithmic multiplicative
 * depth — the engine behind EvalMod (bootstrapping's sine
 * approximation) and polynomial activation functions (the ResNet
 * ReLU and HELR sigmoid workloads).
 *
 * Chebyshev basis:  T_{a+b} = 2·T_a·T_b − T_{a−b}  (stable recurrence),
 *                   evaluated baby-step giant-step (Bossuat et al.,
 *                   EUROCRYPT 2021, after Han–Ki's modified
 *                   Paterson–Stockmeyer): p = q·T_n + r down to leaves
 *                   of degree below the baby-step bound.
 *
 * Each leaf sums its terms through integer constants that put every
 * term at scale S·q_ℓ, and the sum is rescaled once onto S; the
 * constant term is added after the rescale.
 *
 * Scales: every scale stays exact. Each T_k keeps the scale its
 * rescale leaves, and every integer constant is chosen against the
 * actual scales, so the result lands on the input's scale up to the
 * constants' rounding. It must: q·T_n and r are each larger than p and
 * cancel, which would magnify a snapped scale's error.
 */
#pragma once

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "ckks/evaluator.h"

namespace neo::ckks {

/** Fit and evaluate polynomials on ciphertexts. */
class PolyEvaluator
{
  public:
    /**
     * @param keys bundle whose relin key (and KLSS form, when the
     *        evaluator's method is KeySwitchMethod::klss) backs every
     *        ciphertext-ciphertext multiply. Must outlive this object.
     */
    PolyEvaluator(const CkksContext &ctx, const Evaluator &ev,
                  const EvalKeyBundle &keys)
        : ctx_(ctx), ev_(ev), keys_(keys)
    {
    }

    /**
     * Evaluate Σ_k coeffs[k] · T_k(x) for |x| ≤ 1, baby-step
     * giant-step with exact scales. The result has x's scale and sits
     * chebyshev_depth(coeffs) levels below x.
     */
    Ciphertext evaluate_chebyshev(const Ciphertext &x,
                                  const std::vector<double> &coeffs) const;

    /**
     * Levels evaluate_chebyshev consumes for @p coeffs: a dry run of
     * its recursion, with T_k standing ceil(log2 k) levels below x.
     * Never more than ceil(log2 d) + 1 for effective degree d.
     */
    static size_t chebyshev_depth(const std::vector<double> &coeffs);

    /**
     * Chebyshev interpolation coefficients of f on [-1, 1] at degree
     * @p degree (Clenshaw–Curtis style fit, numeric).
     */
    static std::vector<double> chebyshev_fit(double (*f)(double, void *),
                                             void *arg, int degree);

  private:
    /// One weighted term of a leaf: coefficient and basis element.
    using Term = std::pair<double, const Ciphertext *>;
    /// Chebyshev basis elements T_k built so far, by k.
    using Basis = std::map<size_t, Ciphertext>;

    /// Σ c·t over @p terms summed at @p level, rescaled once onto
    /// @p scale, plus @p constant.
    Ciphertext leaf(std::span<const Term> terms, double constant,
                    double scale, size_t level) const;
    /// T_k from the product recurrence, building what it needs.
    const Ciphertext &chebyshev_basis(size_t k, Basis &t) const;
    /// Σ p_k T_k at @p level and exactly @p scale.
    Ciphertext chebyshev_node(std::span<const double> p, size_t baby,
                              double scale, size_t level, Basis &t) const;

    const CkksContext &ctx_;
    const Evaluator &ev_;
    const EvalKeyBundle &keys_;
};

} // namespace neo::ckks
