/**
 * @file
 * Negacyclic number-theoretic transform over Z_q[X]/(X^n + 1).
 *
 * Convention used across the whole library (reference radix-2,
 * four-step, and radix-16 implementations all agree on it):
 *
 *   forward:  X[k] = a(ψ^{2k+1}) = Σ_i (a_i ψ^i) ω^{ik},  ω = ψ²,
 *             output in natural order of k;
 *   inverse:  the exact inverse map.
 *
 * Point-wise products in this domain therefore realise negacyclic
 * convolution. The ψ-twist is the "twisting factor" multiplication
 * the paper's Fig 9 shows between the matrix-multiplication stages;
 * the reference transform merges it into its butterflies instead.
 */
#pragma once

#include <vector>

#include "rns/modulus.h"

namespace neo {

/** Precomputed twiddle tables for one (n, q) pair. */
class NttTables
{
  public:
    /**
     * Build tables for ring degree @p n (power of two) and modulus
     * @p q with q ≡ 1 (mod 2n) and q < 2^62 (the lazy butterflies keep
     * values below 4q).
     */
    NttTables(size_t n, const Modulus &q);

    size_t n() const { return n_; }
    const Modulus &modulus() const { return q_; }

    /// ψ — a primitive 2n-th root of unity mod q.
    u64 psi() const { return psi_; }

    /// ψ^i (0 ≤ i < n).
    u64 psi_pow(size_t i) const { return psi_pow_[i]; }
    /// ψ^{-i}.
    u64 psi_inv_pow(size_t i) const { return psi_inv_pow_[i]; }
    /// ω^e = ψ^{2e} (0 ≤ e < n), read from the ψ table.
    u64 omega_pow(size_t e) const { return even(psi_pow_, e); }
    /// ω^{-e}.
    u64 omega_inv_pow(size_t e) const { return even(psi_inv_pow_, e); }

    /// Shoup constants of the power tables above (mul_shoup operands).
    u64 psi_pow_shoup(size_t i) const { return psi_pow_shoup_[i]; }
    u64 psi_inv_pow_shoup(size_t i) const { return psi_inv_pow_shoup_[i]; }
    /// n^{-1} mod q.
    u64 n_inv() const { return n_inv_; }

    /// In-place forward negacyclic NTT of @p a (n values < q).
    void forward(u64 *a) const;

    /// In-place inverse negacyclic NTT (n values < q).
    void inverse(u64 *a) const;

    /**
     * The matrix NTT's twist: multiply v[k] by ω^{k·s} (ω^{-k·s} with
     * @p inverse) for k < len, in each of @p rows consecutive rows of
     * length @p len. Needs (len − 1)·s < n.
     */
    void twist(u64 *v, size_t rows, size_t len, size_t s,
               bool inverse) const;

  private:
    /// t[2e], or past the half turn (ψ^n = −1) q − t[2e − n].
    u64
    even(const std::vector<u64> &t, size_t e) const
    {
        return 2 * e < n_ ? t[2 * e] : q_.value() - t[2 * e - n_];
    }

    size_t n_;
    Modulus q_;
    u64 psi_;
    /// n⁻¹, and n⁻¹·ψ^{-n/2}: the inverse's last-stage constants.
    u64 n_inv_, n_inv_shoup_, n_inv_w_, n_inv_w_shoup_;
    std::vector<u64> psi_pow_, psi_pow_shoup_;
    std::vector<u64> psi_inv_pow_, psi_inv_pow_shoup_;
    /// ψ^{±bitrev(i)}, log2(n)-bit reversal: the butterfly twiddles.
    std::vector<u64> psi_rev_, psi_rev_shoup_;
    std::vector<u64> psi_inv_rev_, psi_inv_rev_shoup_;
    std::vector<u32> bitrev_;
};

/**
 * Reference negacyclic convolution in O(n²) — ground truth for NTT
 * tests: c = a ⊛ b in Z_q[X]/(X^n + 1).
 */
std::vector<u64> negacyclic_convolve(const std::vector<u64> &a,
                                     const std::vector<u64> &b,
                                     const Modulus &q);

} // namespace neo
