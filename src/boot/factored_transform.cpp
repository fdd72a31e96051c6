#include "boot/factored_transform.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace neo::boot {

namespace {

/// Dense S×S complex matrix product: c = a·b.
std::vector<Complex>
mat_mul(const std::vector<Complex> &a, const std::vector<Complex> &b,
        size_t s)
{
    std::vector<Complex> c(s * s, Complex(0, 0));
    for (size_t i = 0; i < s; ++i) {
        for (size_t k = 0; k < s; ++k) {
            const Complex aik = a[i * s + k];
            if (std::abs(aik) < 1e-15)
                continue;
            for (size_t j = 0; j < s; ++j)
                c[i * s + j] += aik * b[k * s + j];
        }
    }
    return c;
}

/// Dense inverse via Gauss-Jordan (stages are well-conditioned
/// butterflies; S ≤ a few hundred at test scale).
std::vector<Complex>
mat_inv(std::vector<Complex> a, size_t s)
{
    std::vector<Complex> inv(s * s, Complex(0, 0));
    for (size_t i = 0; i < s; ++i)
        inv[i * s + i] = Complex(1, 0);
    for (size_t col = 0; col < s; ++col) {
        // Pivot.
        size_t piv = col;
        for (size_t r = col; r < s; ++r) {
            if (std::abs(a[r * s + col]) > std::abs(a[piv * s + col]))
                piv = r;
        }
        NEO_CHECK(std::abs(a[piv * s + col]) > 1e-12,
                  "singular stage matrix");
        if (piv != col) {
            for (size_t j = 0; j < s; ++j) {
                std::swap(a[piv * s + j], a[col * s + j]);
                std::swap(inv[piv * s + j], inv[col * s + j]);
            }
        }
        const Complex d = a[col * s + col];
        for (size_t j = 0; j < s; ++j) {
            a[col * s + j] /= d;
            inv[col * s + j] /= d;
        }
        for (size_t r = 0; r < s; ++r) {
            if (r == col)
                continue;
            const Complex f = a[r * s + col];
            if (std::abs(f) < 1e-15)
                continue;
            for (size_t j = 0; j < s; ++j) {
                a[r * s + j] -= f * a[col * s + j];
                inv[r * s + j] -= f * inv[col * s + j];
            }
        }
    }
    return inv;
}

/// The butterfly levels 1..log2(n/2) of ring degree @p n cut into
/// runs of ceil(levels / groups), stage 1 (smallest blocks) first:
/// {first, last} level of each group.
std::vector<std::pair<size_t, size_t>>
group_levels(size_t n, size_t groups)
{
    NEO_CHECK(is_pow2(n) && n >= 8, "degree must be a power of two >= 8");
    const size_t levels = static_cast<size_t>(log2_exact(n / 2));
    NEO_CHECK(groups >= 1 && groups <= levels, "bad group count");
    const size_t per_group = ceil_div(levels, groups);
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t first = 1; first <= levels; first += per_group)
        out.emplace_back(first, std::min(first + per_group - 1, levels));
    return out;
}

} // namespace

FactoredEmbedding::FactoredEmbedding(size_t n, size_t groups)
    : n_(n), slots_(n / 2)
{
    const auto grouping = group_levels(n, groups);

    // σ = bit reversal over log2(S) bits.
    const int bits = static_cast<int>(log2_exact(slots_));
    sigma_.resize(slots_);
    for (size_t k = 0; k < slots_; ++k)
        sigma_[k] = reverse_bits(k, bits);

    // Multiply consecutive stage matrices into the requested groups
    // (stage 1 = smallest blocks applies first).
    for (const auto &[first, last] : grouping) {
        std::vector<Complex> acc = stage_matrix(first);
        for (size_t level = first + 1; level <= last; ++level)
            acc = mat_mul(stage_matrix(level), acc, slots_);
        inverse_.emplace_back(mat_inv(acc, slots_), slots_);
        forward_.emplace_back(std::move(acc), slots_);
    }
    // Inverse stages must apply in reverse order; store them reversed
    // so callers iterate naturally.
    std::reverse(inverse_.begin(), inverse_.end());
}

std::vector<i64>
FactoredEmbedding::required_rotations(size_t n, size_t groups)
{
    const size_t slots = n / 2;
    std::vector<i64> rots;
    for (const auto &[first, last] : group_levels(n, groups)) {
        // Offsets reachable by the group's stages, one ±D_k or 0 each.
        std::vector<bool> reach(slots, false);
        reach[0] = true;
        for (size_t level = first; level <= last; ++level) {
            const size_t d = size_t{1} << (level - 1);
            std::vector<bool> next(slots, false);
            for (size_t s = 0; s < slots; ++s) {
                if (!reach[s])
                    continue;
                next[s] = true;
                next[(s + d) % slots] = true;
                next[(s + slots - d) % slots] = true;
            }
            reach = std::move(next);
        }
        for (size_t s = 1; s < slots; ++s)
            if (reach[s])
                rots.push_back(static_cast<i64>(s));
    }
    std::sort(rots.begin(), rots.end());
    rots.erase(std::unique(rots.begin(), rots.end()), rots.end());
    return rots;
}

std::vector<Complex>
FactoredEmbedding::stage_matrix(size_t level) const
{
    const size_t s = slots_;
    const size_t block = 1ULL << level; // S_d of the merged transform
    const size_t dist = block / 2;
    // The butterfly merges two transforms of ring degree N_d = 2*block
    // with ζ_d a primitive 2N_d-th root of unity.
    const size_t two_nd = 4 * block;
    auto zeta = [&](u64 e) {
        const double theta = 2.0 * M_PI * static_cast<double>(e % two_nd) /
                             static_cast<double>(two_nd);
        return Complex(std::cos(theta), std::sin(theta));
    };
    // tw[t] = ζ_d^{5^t mod 2N_d} for t in [0, block).
    std::vector<Complex> tw(block);
    u64 e = 1;
    for (size_t t = 0; t < block; ++t) {
        tw[t] = zeta(e);
        e = (e * 5) % two_nd;
    }

    std::vector<Complex> m(s * s, Complex(0, 0));
    for (size_t beta = 0; beta < s; beta += block) {
        for (size_t t = 0; t < dist; ++t) {
            const size_t i = beta + t;
            const size_t j = beta + t + dist;
            // z_i = x_i + tw[t]·x_j ; z_j = x_i + tw[t+dist]·x_j.
            m[i * s + i] = Complex(1, 0);
            m[i * s + j] = tw[t];
            m[j * s + i] = Complex(1, 0);
            m[j * s + j] = tw[t + dist];
        }
    }
    return m;
}

std::vector<Complex>
FactoredEmbedding::pack_base(const std::vector<double> &coeffs) const
{
    NEO_CHECK(coeffs.size() == n_, "coefficient count mismatch");
    std::vector<Complex> base(slots_);
    for (size_t k = 0; k < slots_; ++k) {
        base[k] = Complex(coeffs[sigma_[k]], 0) +
                  Complex(0, 1) * coeffs[sigma_[k] + slots_];
    }
    return base;
}

std::vector<Complex>
FactoredEmbedding::apply_forward(std::vector<Complex> base) const
{
    for (const auto &lt : forward_)
        base = lt.apply_plain(base);
    return base;
}

std::vector<Complex>
FactoredEmbedding::apply_inverse(std::vector<Complex> z) const
{
    for (const auto &lt : inverse_)
        z = lt.apply_plain(z);
    return z;
}

} // namespace neo::boot
