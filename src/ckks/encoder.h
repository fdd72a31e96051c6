/**
 * @file
 * CKKS encoder: the canonical embedding between C^{N/2} slot vectors
 * and integer polynomial coefficients.
 *
 * A plaintext m(X) evaluated at the odd powers of the primitive 2N-th
 * complex root ζ gives N values; the N/2 "slots" sit at the exponents
 * 5^j mod 2N and the other half are their conjugates. Evaluation at
 * all odd exponents is a twisted (negacyclic) complex FFT of size N,
 * which is how both encode and decode are implemented — O(N log N),
 * mirroring the NTT structure used on the modular side.
 */
#pragma once

#include <complex>
#include <vector>

#include "common/types.h"

namespace neo::ckks {

using Complex = std::complex<double>;

/** Canonical-embedding encoder for ring degree n. */
class Encoder
{
  public:
    /// Precompute root powers and the rotation-group slot map.
    explicit Encoder(size_t n);

    size_t n() const { return n_; }
    /// Number of complex slots (N/2).
    size_t slot_count() const { return n_ / 2; }

    /**
     * Encode up to slot_count() complex values (missing slots are
     * zero) into N scaled integer coefficients: encode_real's
     * round(scale * m_i).
     */
    std::vector<i64> encode(const std::vector<Complex> &slots,
                            double scale) const;

    /// Inverse of encode given real-valued (centered) coefficients.
    std::vector<Complex> decode(const std::vector<double> &coeffs,
                                double scale) const;

    /**
     * encode without integer rounding: the exact real coefficient
     * targets at any scale (diagnostics — noise measurement against
     * products whose scale exceeds the i64 encode range).
     */
    std::vector<double> encode_real(const std::vector<Complex> &slots,
                                    double scale) const;

    /**
     * Galois element for a rotation by @p steps slots: 5^steps mod 2N
     * (negative steps rotate the other way). steps = 0 with conjugate
     * = true yields the conjugation element 2N-1.
     */
    u64 galois_element(i64 steps, bool conjugate = false) const;

  private:
    /// In-place complex FFT with ω = e^{±2πi/n}; sign +1 evaluates.
    void fft(std::vector<Complex> &a, int sign) const;

    size_t n_;
    std::vector<Complex> zeta_pow_;  // ζ^i, i < 2n
    std::vector<size_t> slot_to_point_; // slot j -> FFT index of 5^j
    std::vector<u32> bitrev_;
};

} // namespace neo::ckks
