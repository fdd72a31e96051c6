/**
 * @file
 * Key material and ciphertext types.
 *
 * Decryption convention: m ≈ c0 + c1·s. A hybrid evaluation key for a
 * target key s' is the digit vector evk_j = (b_j, a_j) over the
 * extended basis Q·P with b_j = -a_j·s + e_j + [P]·g_j·s', where the
 * RNS gadget g_j is 1 on the primes of digit group j and 0 elsewhere.
 *
 * A KLSS evaluation key is the same material further decomposed into
 * β̃ key digits over the [P, Q] prime ordering and lifted exactly into
 * the auxiliary base T (§2.2) — two sets of β·β̃·α' polynomial limbs,
 * stored NTT-transformed over T, exactly as the paper describes the
 * IP operand layout.
 */
#pragma once

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/static_operand.h"
#include "poly/rns_poly.h"

namespace neo::ckks {

namespace detail {

/**
 * Thread-safe lazy map level → V with stable references (std::map
 * nodes never move); KlssEvalKey keeps its per-level IP operands in
 * one. Copying a key copies its material but not the cache — the copy
 * rebuilds lazily, which keeps serialization round-trips and container
 * reallocation correct for free. Assigning a key drops the target's
 * cache: its entries were prepared from the key material being
 * replaced.
 */
template <class V> class PerLevelCache
{
  public:
    PerLevelCache() = default;
    PerLevelCache(const PerLevelCache &) {}
    PerLevelCache &
    operator=(const PerLevelCache &)
    {
        LockGuard lock(mu_);
        map_.clear();
        return *this;
    }

    /// Return the cached value for @p level, building it on first use.
    template <class Build>
    const V &
    get(size_t level, Build &&build) const
    {
        LockGuard lock(mu_);
        auto it = map_.find(level);
        if (it == map_.end())
            it = map_.emplace(level, build()).first;
        return it->second;
    }

  private:
    mutable Mutex mu_;
    /// Node handles are stable, so the reference returned by get()
    /// stays valid after the lock drops; published values are
    /// immutable.
    mutable std::map<size_t, V> map_ NEO_GUARDED_BY(mu_);
};

} // namespace detail

/** Ternary secret key, stored as signed integer coefficients. */
struct SecretKey
{
    std::vector<i64> coeffs;
};

/** Encryption key (b, a) = (-a·s + e, a) over the full Q chain. */
struct PublicKey
{
    RnsPoly b, a;
};

/**
 * Hybrid key-switching key: β_max digit pairs, each part in eval form
 * over the full chain q_0..q_L, then P. This is the key's one stored
 * form: a key switch at level l reads each part's limbs q_0..q_l and P
 * in place, and nothing is prepared or cached on the key.
 */
struct EvalKey
{
    std::vector<std::array<RnsPoly, 2>> parts;

    size_t digit_count() const { return parts.size(); }
};

/** KLSS key-switching key: key digits lifted into R_T (NTT form). */
struct KlssEvalKey
{
    size_t beta_max = 0;       ///< ciphertext digits covered (j index)
    size_t beta_tilde_max = 0; ///< key digits (i index)
    /// parts[(i*beta_max + j)*2 + c], each an RnsPoly over T.
    std::vector<RnsPoly> parts;
    /// The chain the key was lifted from: q_0..q_L, then P. The parts
    /// alone do not name it, since chains can share T.
    std::vector<Modulus> qp_mods;

    const RnsPoly &
    part(size_t i, size_t j, size_t c) const
    {
        return parts[(i * beta_max + j) * 2 + c];
    }

    RnsPoly &
    part(size_t i, size_t j, size_t c)
    {
        return parts[(i * beta_max + j) * 2 + c];
    }

    /// Flattened, reordered IP key tensors for one level — the exact
    /// B-operand layout the pipeline's IpKernel consumes.
    struct IpOperands
    {
        size_t beta = 0;       ///< ciphertext digits at this level
        size_t beta_tilde = 0; ///< key digits at this level
        /// reordered[c]: [k][l][i][j] over (T limb, coeff, i, j).
        std::array<std::vector<u64>, 2> reordered;
        /// Unused; see common/static_operand.h.
        std::array<StaticPin, 2> pins;
    };

    detail::PerLevelCache<IpOperands> &
    ip_operands() const
    {
        return ip_cache_;
    }

  private:
    mutable detail::PerLevelCache<IpOperands> ip_cache_;
};

/** Rotation / conjugation keys indexed by Galois element. */
struct GaloisKeys
{
    std::map<u64, EvalKey> hybrid;
    std::map<u64, KlssEvalKey> klss;
};

/**
 * All evaluation-key material one Evaluator needs, owned together:
 * the relinearization key, its optional KLSS form, and the Galois
 * keys. Evaluator::mul/rotate/conjugate take this bundle instead of
 * loose (rlk, klss_rlk*, gk) arguments, so the KLSS pointer plumbing
 * disappears and key ownership has one home. Build one with
 * KeyGenerator::eval_key_bundle.
 */
struct EvalKeyBundle
{
    EvalKey rlk;                        ///< relinearization key
    std::optional<KlssEvalKey> klss_rlk;///< set when KLSS mul is wanted
    GaloisKeys galois;                  ///< rotation/conjugation keys

    /// KLSS relin key or nullptr, in the pointer form keyswitch takes.
    const KlssEvalKey *
    klss() const
    {
        return klss_rlk.has_value() ? &*klss_rlk : nullptr;
    }
};

/** A CKKS ciphertext (c0, c1) in eval form over q_0..q_level. */
struct Ciphertext
{
    RnsPoly c0, c1;
    size_t level = 0;
    double scale = 1.0;
};

} // namespace neo::ckks
