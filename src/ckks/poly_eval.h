/**
 * @file
 * Homomorphic polynomial evaluation with logarithmic multiplicative
 * depth — the engine behind EvalMod (bootstrapping's sine
 * approximation) and polynomial activation functions (the ResNet
 * ReLU and HELR sigmoid workloads).
 *
 * Power basis:      x^{a+b} = x^a · x^b        (binary decomposition)
 * Chebyshev basis:  T_{a+b} = 2·T_a·T_b − T_{a−b}  (stable recurrence),
 *                   evaluated baby-step giant-step (Bossuat et al.,
 *                   EUROCRYPT 2021, after Han–Ki's modified
 *                   Paterson–Stockmeyer): p = q·T_n + r down to leaves
 *                   of degree below the baby-step bound.
 *
 * Both sum their terms through one leaf: each term is multiplied by an
 * integer constant that puts it at scale S·q_ℓ, and the sum is rescaled
 * once onto S; the constant term is added after the rescale.
 *
 * Scales: the Chebyshev evaluation keeps every scale exact. Each T_k
 * keeps the scale its rescale leaves, and every integer constant is
 * chosen against the actual scales, so the result lands on the input's
 * scale up to the constants' rounding. It must: q·T_n and r are each
 * larger than p and cancel, which would magnify a snapped scale's
 * error. Snapping to nominal applies to power-basis products only:
 * each product's bookkeeping scale is reset to the nominal Δ (a
 * prime-sized value), absorbing the prime's ~10⁻⁵ relative distance
 * from it.
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
                  const EvalKeyBundle &keys);

    /**
     * Evaluate Σ_k coeffs[k] · x^k. Multiplicative depth is
     * ceil(log2(deg)) + 1; the input's scale must be the nominal
     * scale (fresh encodings qualify).
     */
    Ciphertext evaluate_power(const Ciphertext &x,
                              const std::vector<double> &coeffs) const;

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

    /// x*y, rescaled, with the scale snapped back to nominal.
    Ciphertext mul_stable(const Ciphertext &a, const Ciphertext &b) const;
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
    double nominal_scale_;
};

} // namespace neo::ckks
