/**
 * @file
 * The CKKS evaluator: the primitive operations of §2.1 (HADD, PADD,
 * HMULT, PMULT, HROTATE, Rescale, Double Rescale) built on either
 * key-switch method.
 *
 * Key material flows in as an EvalKeyBundle (relin key + optional
 * KLSS form + Galois keys); work counts flow out through neo::obs
 * counters (`ks.*`, `op.*`).
 */
#pragma once

#include <functional>
#include <utility>

#include "ckks/context.h"
#include "ckks/keys.h"
#include "ckks/keyswitch.h"

namespace neo::ckks {

/** Which KeySwitch implementation the evaluator routes through. */
enum class KeySwitchMethod { hybrid, klss };

/** Homomorphic-operation engine. */
class Evaluator
{
  public:
    Evaluator(const CkksContext &ctx,
              KeySwitchMethod method = KeySwitchMethod::hybrid);

    KeySwitchMethod method() const { return method_; }

    /**
     * Pluggable KLSS key-switch implementation. When set, every KLSS
     * key switch issued by this evaluator (mul / rotate / conjugate)
     * routes through @p fn instead of ckks::keyswitch_klss — e.g.
     * neo::keyswitch_klss_pipeline with a chosen GEMM engine, which
     * is bit-exact with the reference and exercises the hot-path
     * caches. Pass an empty function to restore the default.
     */
    using KlssKeySwitchFn = std::function<std::pair<RnsPoly, RnsPoly>(
        const RnsPoly &, const KlssEvalKey &, const CkksContext &)>;
    void set_klss_keyswitch(KlssKeySwitchFn fn)
    {
        klss_keyswitch_ = std::move(fn);
    }

    /// HADD: ciphertext + ciphertext (matching level and scale).
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;

    /// Ciphertext - ciphertext.
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;

    /// Negation.
    Ciphertext negate(const Ciphertext &a) const;

    /// PADD: ciphertext + plaintext.
    Ciphertext add_plain(const Ciphertext &a, const Plaintext &pt) const;

    /// PMULT: ciphertext × plaintext (scale multiplies; no key switch).
    Ciphertext mul_plain(const Ciphertext &a, const Plaintext &pt) const;

    /**
     * Multiply every slot by the integer @p k; the scale is unchanged.
     * A constant's NTT is the constant itself, so this is one Shoup
     * pass per limb of each component, with no encode.
     */
    Ciphertext mul_integer(const Ciphertext &a, i64 k) const;

    /**
     * Multiply every slot by i, exactly: the product with the monomial
     * X^{N/2}, which is i at every slot's root ζ^{5^j}. No key, no
     * level; the scale is unchanged. Eval form word k of a limb is
     * a(ψ^{2k+1}), so the product is two Shoup constants per limb,
     * ψ^{N/2}·(−1)^k.
     */
    Ciphertext mul_by_i(const Ciphertext &a) const;

    /**
     * Add the real constant @p c to every slot: round(c·scale) to every
     * eval-form word of c0, one pass per limb, with no encode. The
     * rounded constant must fit an i64.
     */
    Ciphertext add_constant(const Ciphertext &a, double c) const;

    /**
     * HMULT: ciphertext × ciphertext with relinearization via the
     * configured KeySwitch (`keys.klss_rlk` must be set for a KLSS
     * evaluator). Does NOT rescale; callers follow with rescale()
     * (or double_rescale), as in Fig 5.
     */
    Ciphertext mul(const Ciphertext &a, const Ciphertext &b,
                   const EvalKeyBundle &keys) const;

    /// HROTATE by @p steps slots (Galois key required for the element).
    Ciphertext rotate(const Ciphertext &a, i64 steps,
                      const EvalKeyBundle &keys) const;

    /// Complex conjugation of all slots.
    Ciphertext conjugate(const Ciphertext &a,
                         const EvalKeyBundle &keys) const;

    /// Rescale: drop the last prime, dividing the scale by it.
    Ciphertext rescale(const Ciphertext &a) const;

    /// Double Rescale (DS): drop the last two primes in one step.
    Ciphertext double_rescale(const Ciphertext &a) const;

    /// Drop to @p level without rescaling (modulus switch).
    Ciphertext mod_switch_to(const Ciphertext &a, size_t level) const;

  private:
    std::pair<RnsPoly, RnsPoly>
    keyswitch(const RnsPoly &d2, const EvalKey *evk,
              const KlssEvalKey *kevk) const;

    /// σ_g on both components of @p a, then c1 key-switched under
    /// the Galois key for @p g — the body of rotate and conjugate.
    Ciphertext apply_galois(const Ciphertext &a, u64 g,
                            const GaloisKeys &gk) const;

    Ciphertext rescale_by(const Ciphertext &a, size_t count) const;

    const CkksContext &ctx_;
    KeySwitchMethod method_;
    KlssKeySwitchFn klss_keyswitch_;
};

} // namespace neo::ckks
