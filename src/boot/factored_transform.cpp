#include "boot/factored_transform.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace neo::boot {

namespace {

using Diagonal = ckks::LinearTransform::Diagonal;

/**
 * The diagonals 0, +D and −D of the butterfly stage of block size
 * B = 2^level (D = B/2) over @p slots, or of its inverse. The stage
 * maps each pair (x_i, x_j), i = β + t, j = i + D, to
 * (x_i + a·x_j, x_i + b·x_j) with a = tw[t], b = tw[t + D], whose
 * inverse is 1/(b − a)·[[b, −a], [−1, 1]]. At B = slots, +D and −D are
 * one diagonal.
 */
std::vector<Diagonal>
stage(size_t level, size_t slots, bool inverse)
{
    const size_t block = size_t{1} << level; // S_d of the merged transform
    const size_t dist = block / 2;
    // The butterfly merges two transforms of ring degree N_d = 2*block
    // with ζ_d a primitive 2N_d-th root of unity.
    const size_t two_nd = 4 * block;
    // tw[t] = ζ_d^{5^t mod 2N_d} for t in [0, block).
    std::vector<Complex> tw(block);
    u64 e = 1;
    for (size_t t = 0; t < block; ++t) {
        const double theta = 2.0 * M_PI * static_cast<double>(e) /
                             static_cast<double>(two_nd);
        tw[t] = Complex(std::cos(theta), std::sin(theta));
        e = (e * 5) % two_nd;
    }

    std::vector<Complex> stay(slots), up(slots), own_down(slots);
    std::vector<Complex> &down = block == slots ? up : own_down;
    for (size_t beta = 0; beta < slots; beta += block) {
        for (size_t t = 0; t < dist; ++t) {
            const size_t i = beta + t;
            const size_t j = beta + t + dist;
            const Complex a = tw[t];
            const Complex b = tw[t + dist];
            if (inverse) {
                const Complex r = Complex(1, 0) / (b - a);
                stay[i] = b * r;
                up[i] = -a * r;
                down[j] = -r;
                stay[j] = r;
            } else {
                // z_i = x_i + a·x_j ; z_j = x_i + b·x_j.
                stay[i] = Complex(1, 0);
                up[i] = a;
                down[j] = Complex(1, 0);
                stay[j] = b;
            }
        }
    }
    std::vector<Diagonal> out;
    out.push_back({0, std::move(stay)});
    out.push_back({dist, std::move(up)});
    if (block < slots)
        out.push_back({slots - dist, std::move(own_down)});
    return out;
}

/// The diagonals of a·b: (a·b)_e[i] = Σ_d a_d[i]·b_{e−d}[(i+d) mod s].
/// Within one group every entry of a product of butterflies is a single
/// product of stage entries; the other terms are exact zeros.
std::vector<Diagonal>
compose(const std::vector<Diagonal> &a, const std::vector<Diagonal> &b,
        size_t s)
{
    std::vector<std::vector<Complex>> sum(s);
    for (const Diagonal &x : a) {
        for (const Diagonal &y : b) {
            std::vector<Complex> &c = sum[(x.offset + y.offset) % s];
            c.resize(s);
            for (size_t i = 0; i < s; ++i)
                c[i] += x.values[i] * y.values[(i + x.offset) % s];
        }
    }
    std::vector<Diagonal> out;
    for (size_t e = 0; e < s; ++e)
        if (!sum[e].empty())
            out.push_back({e, std::move(sum[e])});
    return out;
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

    // Compose consecutive stages into the requested groups (stage 1 =
    // smallest blocks applies first); a group's inverse applies the
    // stage inverses last stage first.
    for (const auto &[first, last] : grouping) {
        std::vector<Diagonal> fwd = stage(first, slots_, false);
        for (size_t level = first + 1; level <= last; ++level)
            fwd = compose(stage(level, slots_, false), fwd, slots_);
        std::vector<Diagonal> inv = stage(last, slots_, true);
        for (size_t level = last; level-- > first;)
            inv = compose(stage(level, slots_, true), inv, slots_);
        forward_.emplace_back(std::move(fwd), slots_);
        inverse_.emplace_back(std::move(inv), slots_);
    }
    // Inverse stages must apply in reverse order; store them reversed
    // so callers iterate naturally.
    std::reverse(inverse_.begin(), inverse_.end());
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
