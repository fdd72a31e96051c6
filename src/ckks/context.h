/**
 * @file
 * CkksContext — owns the prime chains, NTT tables, encoder and
 * auxiliary bases for one parameter set.
 *
 * Prime chains:
 *  - Q = q_0..q_L  (WordSize bits)   — the ciphertext modulus chain;
 *  - P = p_0..p_{K-1} (WordSize bits) — special primes, K = α;
 *  - T = t_0..t_{α'-1} (WordSize_T bits) — KLSS auxiliary base;
 *  - two 60-bit decode primes (exact CRT lift of small plaintexts).
 *
 * The KLSS key decomposition orders PQ as [P, q_0, ..., q_L] so that
 * the primes live at level l form a *prefix* — key digits are then
 * level-independent and exactly β̃ = ceil((l+α+1)/α̃) groups are
 * touched at level l, matching Table 1.
 */
#pragma once

#include <memory>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/params.h"
#include "poly/rns_poly.h"
#include "rns/base_convert.h"
#include "rns/basis.h"
#include "rns/partition.h"

namespace neo::ckks {

class KeySwitchPrecomp;

/** A plaintext polynomial with its scale. */
struct Plaintext
{
    RnsPoly poly;  ///< usually eval form over the active q-primes
    double scale = 1.0;
};

/** Shared state for one CKKS instantiation. */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);
    ~CkksContext();
    CkksContext(const CkksContext &) = delete;
    CkksContext &operator=(const CkksContext &) = delete;

    /// The key-switch plan: every level's converters and constants,
    /// built with the context and read without a lock.
    const KeySwitchPrecomp &precomp() const { return *precomp_; }

    const CkksParams &params() const { return params_; }
    const Encoder &encoder() const { return encoder_; }
    size_t n() const { return params_.n; }
    size_t max_level() const { return params_.max_level; }

    /// The q_i chain.
    const RnsBasis &q_basis() const { return q_basis_; }
    /// The special primes P.
    const RnsBasis &p_basis() const { return p_basis_; }
    /// The KLSS auxiliary base T (throws if KLSS disabled).
    const RnsBasis &t_basis() const;

    /// NTT tables covering Q ∪ P.
    const NttTableSet &tables() const { return tables_; }
    /// NTT tables for the T primes.
    const NttTableSet &t_tables() const;

    /// Moduli q_0..q_level.
    std::vector<Modulus> active_mods(size_t level) const;
    /// Moduli q_0..q_level followed by all of P.
    std::vector<Modulus> extended_mods(size_t level) const;

    /// Ciphertext digit partition of q_0..q_level (groups of α).
    std::vector<DigitGroup> digit_partition(size_t level) const;

    /**
     * KLSS key-digit partition over the [P, Q] ordering (groups of
     * α̃). Index i in this ordering maps to P for i < K and to q_{i-K}
     * otherwise.
     */
    const std::vector<DigitGroup> &klss_key_partition() const;

    /// Modulus at position @p idx of the [P, Q] ordering.
    const Modulus &pq_ordered_mod(size_t idx) const;
    /// Limb of [P, Q]-ordered prime @p idx in a polynomial over
    /// q_0..q_level, then P.
    size_t
    pq_limb(size_t idx, size_t level) const
    {
        const size_t k_special = p_basis_.size();
        return idx < k_special ? level + 1 + idx : idx - k_special;
    }
    /// Number of primes in the [P, Q] ordering (L+1+K).
    size_t pq_ordered_size() const
    {
        return q_basis_.size() + p_basis_.size();
    }

    /// α' — size of the T base (cached from params).
    size_t alpha_prime() const { return alpha_prime_; }

    // ---- Plaintext encode / decode ----------------------------------

    /// Encode complex slots into an eval-form plaintext at @p level.
    Plaintext encode(const std::vector<Complex> &slots, size_t level,
                     double scale = 0) const;

    /// Decode a coeff- or eval-form plaintext back to complex slots.
    std::vector<Complex> decode(const Plaintext &pt) const;

    /// Centered coefficient values of a coeff-form polynomial (exact
    /// CRT lift through the decode basis; |value| must be < 2^119).
    std::vector<double> lift_centered(const RnsPoly &poly) const;

    /// Convert a signed coefficient vector into an RNS polynomial.
    RnsPoly poly_from_signed(const std::vector<i64> &coeffs,
                             const std::vector<Modulus> &mods) const;

  private:
    CkksParams params_;
    Encoder encoder_;
    RnsBasis q_basis_;
    RnsBasis p_basis_;
    RnsBasis t_basis_;
    RnsBasis decode_basis_;
    NttTableSet tables_;
    NttTableSet t_tables_;
    size_t alpha_prime_ = 0;
    std::vector<DigitGroup> klss_key_partition_;
    std::unique_ptr<KeySwitchPrecomp> precomp_;
};

} // namespace neo::ckks
