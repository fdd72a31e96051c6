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
 * the paper's Fig 9 shows between the matrix-multiplication stages.
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
     * @p q with q ≡ 1 (mod 2n).
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
    /// ω^i = ψ^{2i}.
    u64 omega_pow(size_t i) const { return w_pow_[i]; }
    /// ω^{-i}.
    u64 omega_inv_pow(size_t i) const { return w_inv_pow_[i]; }

    /// Shoup constants of the power tables above (mul_shoup operands).
    u64 psi_pow_shoup(size_t i) const { return psi_pow_shoup_[i]; }
    u64 psi_inv_pow_shoup(size_t i) const { return psi_inv_pow_shoup_[i]; }
    u64 omega_pow_shoup(size_t i) const { return w_pow_shoup_[i]; }
    u64 omega_inv_pow_shoup(size_t i) const { return w_inv_pow_shoup_[i]; }
    /// n^{-1} mod q.
    u64 n_inv() const { return n_inv_; }

    /// In-place forward negacyclic NTT of @p a (n values < q).
    void forward(u64 *a) const;

    /// In-place inverse negacyclic NTT.
    void inverse(u64 *a) const;

    /// Forward cyclic NTT (no ψ twist) — building block for four-step.
    void forward_cyclic(u64 *a) const;

    /// Inverse cyclic NTT without the 1/n scaling.
    void inverse_cyclic_unscaled(u64 *a) const;

  private:
    size_t n_;
    Modulus q_;
    u64 psi_;
    u64 n_inv_;
    std::vector<u64> psi_pow_, psi_pow_shoup_;
    std::vector<u64> psi_inv_pow_, psi_inv_pow_shoup_;
    std::vector<u64> w_pow_, w_pow_shoup_;
    std::vector<u64> w_inv_pow_, w_inv_pow_shoup_;
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
