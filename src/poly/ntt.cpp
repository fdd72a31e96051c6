#include "poly/ntt.h"

#include "common/check.h"
#include "common/math_util.h"
#include "obs/obs.h"
#include "rns/primes.h"

namespace neo {

NttTables::NttTables(size_t n, const Modulus &q) : n_(n), q_(q)
{
    NEO_CHECK(is_pow2(n), "ring degree must be a power of two");
    NEO_CHECK((q.value() - 1) % (2 * n) == 0, "q != 1 mod 2n");
    NEO_CHECK(q.value() < (1ULL << 62), "NTT modulus must be below 2^62");
    psi_ = find_primitive_root(q.value(), 2 * n);
    const u64 qv = q.value();
    n_inv_ = q.inv(q.reduce(n));
    n_inv_shoup_ = shoup_precompute(n_inv_, qv);

    const int logn = log2_exact(n);
    bitrev_.resize(n);
    for (size_t i = 0; i < n; ++i)
        bitrev_[i] = static_cast<u32>(reverse_bits(i, logn));

    // Powers of base in natural order and at bit-reversed positions
    // (the butterfly twiddles), each with its Shoup constant.
    auto fill = [&](u64 base, std::vector<u64> &pow, std::vector<u64> &shoup,
                    std::vector<u64> &rev, std::vector<u64> &rev_shoup) {
        for (auto *v : {&pow, &shoup, &rev, &rev_shoup})
            v->resize(n);
        u64 cur = 1;
        for (size_t i = 0; i < n; ++i) {
            pow[i] = rev[bitrev_[i]] = cur;
            shoup[i] = rev_shoup[bitrev_[i]] = shoup_precompute(cur, qv);
            cur = q_.mul(cur, base);
        }
    };
    fill(psi_, psi_pow_, psi_pow_shoup_, psi_rev_, psi_rev_shoup_);
    fill(q.inv(psi_), psi_inv_pow_, psi_inv_pow_shoup_, psi_inv_rev_,
         psi_inv_rev_shoup_);
    n_inv_w_ = q.mul(n_inv_, psi_inv_pow_[n / 2]);
    n_inv_w_shoup_ = shoup_precompute(n_inv_w_, qv);
}

namespace {

/// Harvey's lazy Shoup product: a·w mod q in [0, 2q) for any a < 2^64.
inline u64
mul_shoup_lazy(u64 a, u64 w, u64 w_shoup, u64 q)
{
    const u64 hi = static_cast<u64>((static_cast<u128>(a) * w_shoup) >> 64);
    return a * w - hi * q;
}

/// Subtract @p m once if @p x ≥ m.
inline u64
reduce_once(u64 x, u64 m)
{
    return x >= m ? x - m : x;
}

} // namespace

/// Cooley–Tukey butterflies over ψ^bitrev(i) (Longa–Naehrig 2016):
/// natural order in, bit-reversed order out, the ψ twist merged into
/// the twiddles. Values stay in [0, 4q) between stages (Harvey 2014);
/// the last pass reduces to [0, q) while it bit-reverses into natural
/// order.
void
NttTables::forward(u64 *a) const
{
    obs::Span span("ntt_r2_fwd", obs::cat::ntt);
    const u64 q = q_.value();
    const u64 two_q = 2 * q;
    for (size_t m = 1, t = n_ >> 1; m < n_; m <<= 1, t >>= 1) {
        for (size_t i = 0; i < m; ++i) {
            const u64 w = psi_rev_[m + i];
            const u64 ws = psi_rev_shoup_[m + i];
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; ++j) {
                const u64 u = reduce_once(x[j], two_q);
                const u64 v = mul_shoup_lazy(y[j], w, ws, q);
                x[j] = u + v;
                y[j] = u - v + two_q;
            }
        }
    }
    for (size_t i = 0; i < n_; ++i) {
        const size_t j = bitrev_[i];
        if (i > j)
            continue;
        const u64 ai = reduce_once(reduce_once(a[i], two_q), q);
        a[i] = reduce_once(reduce_once(a[j], two_q), q);
        a[j] = ai;
    }
}

/// Bit-reversal, then Gentleman–Sande butterflies over ψ^-bitrev(i)
/// with values in [0, 2q); n⁻¹ rides in the last stage's constants.
void
NttTables::inverse(u64 *a) const
{
    obs::Span span("ntt_r2_inv", obs::cat::ntt);
    const u64 q = q_.value();
    const u64 two_q = 2 * q;
    for (size_t i = 0; i < n_; ++i) {
        const size_t j = bitrev_[i];
        if (i < j)
            std::swap(a[i], a[j]);
    }
    for (size_t h = n_ >> 1, t = 1; h > 1; h >>= 1, t <<= 1) {
        for (size_t i = 0; i < h; ++i) {
            const u64 w = psi_inv_rev_[h + i];
            const u64 ws = psi_inv_rev_shoup_[h + i];
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; ++j) {
                const u64 u = x[j];
                const u64 v = y[j];
                x[j] = reduce_once(u + v, two_q);
                y[j] = mul_shoup_lazy(u - v + two_q, w, ws, q);
            }
        }
    }
    // The last stage (none at n = 1) reduces to [0, q).
    const size_t half = n_ >> 1;
    for (size_t j = 0; j < half; ++j) {
        const u64 u = a[j];
        const u64 v = a[j + half];
        a[j] = reduce_once(mul_shoup_lazy(u + v, n_inv_, n_inv_shoup_, q), q);
        a[j + half] = reduce_once(
            mul_shoup_lazy(u - v + two_q, n_inv_w_, n_inv_w_shoup_, q), q);
    }
}

void
NttTables::twist(u64 *v, size_t rows, size_t len, size_t s,
                 bool inverse) const
{
    const u64 *w = (inverse ? psi_inv_pow_ : psi_pow_).data();
    const u64 *ws = (inverse ? psi_inv_pow_shoup_ : psi_pow_shoup_).data();
    const u64 q = q_.value();
    const size_t n = n_;
    for (size_t row = 0; row < rows; ++row, v += len) {
        // ω^{ks} = ψ^{2ks}; past the half turn it is q − ψ^{2ks−n},
        // whose Shoup constant is ~shoup(ψ^{2ks−n}).
        size_t k = 0, i = 0;
        for (; k < len && i < n; ++k, i += 2 * s)
            v[k] = mul_shoup(v[k], w[i], ws[i], q);
        for (i -= n; k < len; ++k, i += 2 * s)
            v[k] = mul_shoup(v[k], q - w[i], ~ws[i], q);
    }
}

std::vector<u64>
negacyclic_convolve(const std::vector<u64> &a, const std::vector<u64> &b,
                    const Modulus &q)
{
    const size_t n = a.size();
    NEO_CHECK(b.size() == n, "size mismatch");
    std::vector<u64> c(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < n; ++j) {
            u64 p = q.mul(a[i], b[j]);
            size_t k = i + j;
            if (k < n) {
                c[k] = q.add(c[k], p);
            } else {
                c[k - n] = q.sub(c[k - n], p);
            }
        }
    }
    return c;
}

} // namespace neo
