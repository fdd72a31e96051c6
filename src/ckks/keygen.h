/**
 * @file
 * Key generation for CKKS: secret/public keys, relinearization keys
 * (target s²), Galois keys (target σ_g(s)), and the KLSS
 * decomposition of any hybrid key.
 */
#pragma once

#include "ckks/context.h"
#include "ckks/keys.h"
#include "common/random.h"

namespace neo::ckks {

/*
 * The samplers key generation and encryption draw through. Each takes
 * its draws from @p rng in coefficient order, limb by limb for the
 * uniform polynomial, so a seed fixes every key and ciphertext.
 */

/// Uniform residues over @p mods, read directly as eval form.
RnsPoly sample_uniform(const CkksContext &ctx,
                       const std::vector<Modulus> &mods, Rng &rng);

/// A rounded-Gaussian error (Rng::gaussian) over @p mods, in eval form.
RnsPoly sample_error(const CkksContext &ctx,
                     const std::vector<Modulus> &mods, Rng &rng);

/// @p n ternary coefficients (Rng::ternary).
std::vector<i64> sample_ternary(size_t n, Rng &rng);

/** Generates all key material for one context. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &ctx, u64 seed = 1);

    /// Fresh ternary secret key.
    SecretKey secret_key();

    /**
     * Sparse ternary secret with Hamming weight @p h — bootstrapping
     * needs the ModRaise overflow |I| ≈ ||s||₁/2 small so the sine
     * approximation range K stays evaluable (the same reason
     * production bootstraps use h = 64 at N = 2^16).
     */
    SecretKey secret_key_sparse(size_t h);

    /// Public encryption key under @p sk at the top level.
    PublicKey public_key(const SecretKey &sk);

    /// Relinearization key: switches s² -> s.
    EvalKey relin_key(const SecretKey &sk);

    /// Galois key for the automorphism X -> X^g: switches σ_g(s) -> s.
    EvalKey galois_key(const SecretKey &sk, u64 g);

    /// Galois keys for a set of rotation steps (plus conjugation if
    /// @p conjugate).
    GaloisKeys galois_keys(const SecretKey &sk,
                           const std::vector<i64> &steps,
                           bool conjugate = false, bool with_klss = false);

    /**
     * One-call bundle: relin key (plus its KLSS form when
     * @p with_klss), and Galois keys for @p steps / @p conjugate.
     * The natural input to Evaluator::mul/rotate/conjugate.
     */
    EvalKeyBundle eval_key_bundle(const SecretKey &sk,
                                  const std::vector<i64> &steps = {},
                                  bool conjugate = false,
                                  bool with_klss = false);

    /**
     * Decompose a hybrid key into the KLSS form: every digit pair is
     * INTT'd, reordered to the [P, Q] prime order, split into β̃
     * groups of α̃ primes, and each group's centered value is lifted
     * exactly into the T base and NTT'd over T.
     */
    KlssEvalKey to_klss(const EvalKey &evk) const;

    /// Expand the ternary secret into eval form over @p mods.
    RnsPoly expand_secret(const SecretKey &sk,
                          const std::vector<Modulus> &mods) const;

  private:
    /// Core: build an EvalKey encrypting target key @p s_prime (eval
    /// form over the extended basis) under @p sk.
    EvalKey make_eval_key(const SecretKey &sk, const RnsPoly &s_prime);

    const CkksContext &ctx_;
    Rng rng_;
};

} // namespace neo::ckks
