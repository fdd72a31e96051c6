/**
 * @file
 * ckks::KeySwitchPrecomp — the per-context key-switch plan: every
 * base converter and constant a key switch reads, for every level.
 *
 * keyswitch_hybrid / keyswitch_klss / mod_down and the KLSS pipeline
 * are invariant in everything but the ciphertext: the active and
 * extended modulus lists, the digit partition, every BaseConverter
 * (digit→rest for hybrid ModUp, digit→T for KLSS ModUp, T→key digit
 * for Recover Limbs, P→Q for ModDown) and the P^{-1} mod q_i
 * constants depend only on (context, level), and KeyGenerator::to_klss
 * lifts every key digit into T through level-independent converters.
 * Constructing a BaseConverter is O(|from|·|to|) modular
 * exponentiations, so this class is the one place one is built for a
 * key switch; the pipeline's BConvKernels wrap these converters.
 *
 * One KeySwitchPrecomp is owned by each CkksContext and built with it,
 * every level at once. It is immutable afterwards, so any number of
 * threads read it without a lock.
 */
#pragma once

#include <memory>
#include <vector>

#include "rns/base_convert.h"
#include "rns/basis.h"
#include "rns/partition.h"

namespace neo::ckks {

class CkksContext;

class KeySwitchPrecomp
{
  public:
    /** Per-(level, ciphertext-digit) converters. */
    struct Digit
    {
        /// Hybrid ModUp: digit → (extended \ digit).
        std::unique_ptr<BaseConverter> to_other;
        /// KLSS ModUp: digit → T (null when KLSS is disabled).
        std::unique_ptr<BaseConverter> to_t;
    };

    /** Everything invariant at one ciphertext level. */
    struct Level
    {
        std::vector<Modulus> active;   ///< q_0..q_l
        std::vector<Modulus> extended; ///< q_0..q_l, P
        /// ModDown: P → active q chain.
        std::unique_ptr<BaseConverter> p_to_q;
        /// P^{-1} mod q_i and Shoup companions, one per active limb.
        std::vector<u64> p_inv, p_inv_shoup;
        std::vector<DigitGroup> groups; ///< ciphertext digit partition
        std::vector<Digit> digits;      ///< one per group
        size_t beta_tilde = 0; ///< KLSS key digits touched at this level
        /// KLSS Recover Limbs: T → key digit i's primes active at this
        /// level, in the [P, Q] ordering; one per key digit i <
        /// beta_tilde (empty when KLSS is disabled).
        std::vector<BaseConverter> recover;
    };

    explicit KeySwitchPrecomp(const CkksContext &ctx);

    /// The invariants for @p level.
    const Level &level(size_t level) const;

    /// to_klss: key digit i's primes, in the [P, Q] ordering, → T; one
    /// per key digit (empty when KLSS is disabled).
    const std::vector<BaseConverter> &key_digit_to_t() const
    {
        return key_digit_to_t_;
    }

  private:
    std::vector<Level> levels_;
    std::vector<BaseConverter> key_digit_to_t_;
};

} // namespace neo::ckks
