#include "ckks/encoder.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace neo::ckks {

Encoder::Encoder(size_t n) : n_(n)
{
    NEO_CHECK(is_pow2(n) && n >= 4, "degree must be a power of two >= 4");
    zeta_pow_.resize(2 * n);
    for (size_t i = 0; i < 2 * n; ++i) {
        double theta = M_PI * static_cast<double>(i) / static_cast<double>(n);
        zeta_pow_[i] = Complex(std::cos(theta), std::sin(theta));
    }
    // Rotation group: slot j lives at exponent 5^j mod 2n, which is an
    // odd number e = 2k+1; the FFT bucket is k.
    slot_to_point_.resize(n / 2);
    u64 e = 1;
    for (size_t j = 0; j < n / 2; ++j) {
        slot_to_point_[j] = static_cast<size_t>((e - 1) / 2);
        e = (e * 5) % (2 * n);
    }
    const int logn = log2_exact(n);
    bitrev_.resize(n);
    for (size_t i = 0; i < n; ++i)
        bitrev_[i] = static_cast<u32>(reverse_bits(i, logn));
}

void
Encoder::fft(std::vector<Complex> &a, int sign) const
{
    const size_t n = n_;
    for (size_t i = 0; i < n; ++i) {
        u32 j = bitrev_[i];
        if (i < j)
            std::swap(a[i], a[j]);
    }
    for (size_t len = 2; len <= n; len <<= 1) {
        const size_t half = len >> 1;
        const size_t step = n / len;
        for (size_t start = 0; start < n; start += len) {
            for (size_t j = 0; j < half; ++j) {
                // ω^{j·step} with ω = ζ² -> exponent 2·j·step of ζ.
                size_t e = (2 * j * step) % (2 * n);
                Complex w = zeta_pow_[e];
                if (sign < 0)
                    w = std::conj(w);
                Complex u = a[start + j];
                Complex v = a[start + j + half] * w;
                a[start + j] = u + v;
                a[start + j + half] = u - v;
            }
        }
    }
}

std::vector<i64>
Encoder::encode(const std::vector<Complex> &slots, double scale) const
{
    const std::vector<double> real = encode_real(slots, scale);
    std::vector<i64> out(n_);
    for (size_t i = 0; i < n_; ++i) {
        NEO_CHECK(std::abs(real[i]) < 9.0e18, "encoded coefficient overflow");
        out[i] = static_cast<i64>(std::llround(real[i]));
    }
    return out;
}

std::vector<double>
Encoder::encode_real(const std::vector<Complex> &slots, double scale) const
{
    NEO_CHECK(slots.size() <= slot_count(), "too many slots");
    NEO_CHECK(scale > 0, "scale must be positive");
    std::vector<Complex> v(n_, Complex(0, 0));
    for (size_t j = 0; j < slots.size(); ++j) {
        size_t k = slot_to_point_[j];
        v[k] = slots[j];
        // Conjugate point: exponent 2n - (2k+1) = 2(n-1-k)+1.
        v[n_ - 1 - k] = std::conj(slots[j]);
    }
    // Coefficients: c_i = (1/n) ζ^{-i} Σ_k v[k] ω^{-ik}.
    fft(v, -1);
    std::vector<double> out(n_);
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (size_t i = 0; i < n_; ++i) {
        Complex c = v[i] * std::conj(zeta_pow_[i]) * inv_n;
        out[i] = c.real() * scale;
    }
    return out;
}

std::vector<Complex>
Encoder::decode(const std::vector<double> &coeffs, double scale) const
{
    NEO_CHECK(coeffs.size() == n_, "coefficient count mismatch");
    std::vector<Complex> v(n_);
    for (size_t i = 0; i < n_; ++i)
        v[i] = coeffs[i] * zeta_pow_[i];
    fft(v, +1);
    std::vector<Complex> slots(slot_count());
    for (size_t j = 0; j < slot_count(); ++j)
        slots[j] = v[slot_to_point_[j]] / scale;
    return slots;
}

u64
Encoder::galois_element(i64 steps, bool conjugate) const
{
    const u64 two_n = 2 * n_;
    if (conjugate)
        return two_n - 1;
    // Rotation by r slots uses g = 5^r mod 2n; negative r inverts.
    // |steps| is formed unsigned, so INT64_MIN is safe.
    const u64 half = n_ / 2;
    const u64 mag = steps < 0 ? 0 - static_cast<u64>(steps)
                              : static_cast<u64>(steps);
    const u64 r = steps >= 0 ? mag % half : (half - mag % half) % half;
    u64 g = 1;
    u64 base = 5;
    for (u64 i = 0; i < r; ++i)
        g = (g * base) % two_n;
    return g;
}

} // namespace neo::ckks
