#include "poly/ntt.h"

#include "common/check.h"
#include "common/isa.h"
#include "common/math_util.h"
#include "obs/obs.h"
#include "rns/primes.h"
#include "rns/shoup_lanes.h"

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

#if NEO_SHOUP_LANES

/*
 * The butterflies in IFMA lanes (rns/shoup_lanes.h), for n ≥ 16 and
 * q < 2^50: the Harvey ranges keep every value below 4q < 2^52, the
 * lanes' input bound. Stages with t ≥ 8 run 8 consecutive butterflies
 * of one group per vector with a broadcast twiddle. Stages with
 * t ∈ {4, 2, 1} run on 16-word blocks: one fixed permutation per t
 * splits a block into its 8 x words and 8 y words and another merges
 * them back, and the block's 8/t twiddles are spread so that lane L
 * holds group L/t's.
 */
using lanes::u64x8;

/// A 16-word block's permutations at butterfly half-width T < 8:
/// x lane L is block word (L/T)·2T + L%T, y lane L the word T later;
/// lo and hi put words 0..7 and 8..15 back from (x, y); spread gives
/// lane L twiddle L/T.
template <size_t T>
struct BlockPerm
{
    u64x8 x, y, lo, hi, spread;
};

template <size_t T>
NEO_IFMA BlockPerm<T>
block_perm()
{
    BlockPerm<T> p;
    for (u64 l = 0; l < 8; ++l) {
        p.x[l] = l / T * 2 * T + l % T;
        p.y[l] = p.x[l] + T;
        p.spread[l] = l / T;
    }
    for (u64 k = 0; k < 16; ++k) {
        const u64 g = k / (2 * T), r = k % (2 * T);
        const u64 from = r < T ? g * T + r : 8 + g * T + r - T;
        if (k < 8)
            p.lo[k] = from;
        else
            p.hi[k - 8] = from;
    }
    return p;
}

/// Lane L of the result is lane idx[L] of (a, b): 0..7 name a's
/// lanes, 8..15 b's.
NEO_IFMA u64x8
permute2(u64x8 a, u64x8 idx, u64x8 b)
{
    return (u64x8)_mm512_permutex2var_epi64((__m512i)a, (__m512i)idx,
                                            (__m512i)b);
}

/// Lane L of the result is lane idx[L] of v. (The all-lanes mask form:
/// GCC 12 flags the unmasked one's undefined source with
/// -Wmaybe-uninitialized.)
NEO_IFMA u64x8
permute(u64x8 v, u64x8 idx)
{
    return (u64x8)_mm512_maskz_permutexvar_epi64(0xff, (__m512i)idx,
                                                 (__m512i)v);
}

/// One butterfly per lane with twiddle w (Shoup constant ws): the
/// forward's Cooley–Tukey on values in [0, 4q), or the inverse's
/// Gentleman–Sande on values in [0, 2q).
template <bool Forward>
NEO_IFMA void
butterfly(u64x8 &x, u64x8 &y, u64x8 w, u64x8 ws, u64x8 q, u64x8 two_q)
{
    if constexpr (Forward) {
        const u64x8 u = lanes::reduce_once(x, two_q);
        const u64x8 v = lanes::mul_shoup_lazy(y, w, ws, q);
        x = u + v;
        y = u - v + two_q;
    } else {
        const u64x8 u = x, v = y;
        x = lanes::reduce_once(u + v, two_q);
        y = lanes::mul_shoup_lazy(u - v + two_q, w, ws, q);
    }
}

/// One stage at half-width t ≥ 8 over all n words: group i, twiddle
/// w[i], runs 8 consecutive butterflies per vector.
template <bool Forward>
NEO_IFMA void
stage_lanes(u64 *a, size_t n, size_t t, const u64 *w, const u64 *ws,
            u64x8 q, u64x8 two_q)
{
    for (size_t i = 0; i < n / (2 * t); ++i) {
        const u64x8 wi = lanes::splat(w[i]), wsi = lanes::splat(ws[i]);
        u64 *xp = a + 2 * i * t;
        for (size_t j = 0; j < t; j += 8) {
            u64x8 x = lanes::load(xp + j), y = lanes::load(xp + t + j);
            butterfly<Forward>(x, y, wi, wsi, q, two_q);
            lanes::store(xp + j, x);
            lanes::store(xp + t + j, y);
        }
    }
}

/// One stage at half-width T ∈ {4, 2, 1}, 16-word block by block.
template <bool Forward, size_t T>
NEO_IFMA void
block_stage_lanes(u64 *a, size_t n, const u64 *w, const u64 *ws, u64x8 q,
                  u64x8 two_q)
{
    const BlockPerm<T> p = block_perm<T>();
    constexpr size_t groups = 8 / T;
    for (size_t b = 0; b < n; b += 16, w += groups, ws += groups) {
        const u64x8 lo = lanes::load(a + b), hi = lanes::load(a + b + 8);
        u64x8 x = permute2(lo, p.x, hi), y = permute2(lo, p.y, hi);
        const u64x8 wb = permute(lanes::load_first(w, groups), p.spread);
        const u64x8 wsb = permute(lanes::load_first(ws, groups), p.spread);
        butterfly<Forward>(x, y, wb, wsb, q, two_q);
        lanes::store(a + b, permute2(x, p.lo, y));
        lanes::store(a + b + 8, permute2(x, p.hi, y));
    }
}

/// NttTables::forward's stages in lanes: w, ws are ψ^bitrev(i) and
/// their Shoup constants.
[[NEO_IFMA_TARGET]] void
forward_lanes(u64 *a, size_t n, const u64 *w, const u64 *ws, u64 qv)
{
    const u64x8 q = lanes::splat(qv), two_q = lanes::splat(2 * qv);
    for (size_t m = 1, t = n >> 1; t >= 8; m <<= 1, t >>= 1)
        stage_lanes<true>(a, n, t, w + m, ws + m, q, two_q);
    block_stage_lanes<true, 4>(a, n, w + n / 8, ws + n / 8, q, two_q);
    block_stage_lanes<true, 2>(a, n, w + n / 4, ws + n / 4, q, two_q);
    block_stage_lanes<true, 1>(a, n, w + n / 2, ws + n / 2, q, two_q);
}

/// NttTables::inverse after its bit reversal, in lanes: w, ws are
/// ψ^-bitrev(i) and their Shoup constants, and the last stage
/// multiplies by n⁻¹ and n⁻¹·ψ^{-n/2} (Shoup constants ninv_s, ninv_ws).
[[NEO_IFMA_TARGET]] void
inverse_lanes(u64 *a, size_t n, const u64 *w, const u64 *ws, u64 qv,
              u64 ninv, u64 ninv_s, u64 ninv_w, u64 ninv_ws)
{
    const u64x8 q = lanes::splat(qv), two_q = lanes::splat(2 * qv);
    block_stage_lanes<false, 1>(a, n, w + n / 2, ws + n / 2, q, two_q);
    block_stage_lanes<false, 2>(a, n, w + n / 4, ws + n / 4, q, two_q);
    block_stage_lanes<false, 4>(a, n, w + n / 8, ws + n / 8, q, two_q);
    for (size_t h = n >> 4, t = 8; h > 1; h >>= 1, t <<= 1)
        stage_lanes<false>(a, n, t, w + h, ws + h, q, two_q);
    // The last stage reduces to [0, q).
    const u64x8 c0 = lanes::splat(ninv), c0s = lanes::splat(ninv_s);
    const u64x8 c1 = lanes::splat(ninv_w), c1s = lanes::splat(ninv_ws);
    const size_t half = n >> 1;
    for (size_t j = 0; j < half; j += 8) {
        const u64x8 u = lanes::load(a + j), v = lanes::load(a + j + half);
        lanes::store(a + j, lanes::reduce_once(
                                lanes::mul_shoup_lazy(u + v, c0, c0s, q), q));
        lanes::store(a + j + half,
                     lanes::reduce_once(
                         lanes::mul_shoup_lazy(u - v + two_q, c1, c1s, q), q));
    }
}

/// True when a transform of @p n words mod @p q runs in the lanes.
bool
take_lanes(size_t n, u64 q)
{
    return n >= 16 && lanes::fits(q) && ifma_lanes();
}

#endif

/// The forward's last pass: bit-reverse into natural order while
/// reducing from [0, 4q) to [0, q).
void
to_natural_order(u64 *a, const u32 *bitrev, size_t n, u64 q)
{
    const u64 two_q = 2 * q;
    for (size_t i = 0; i < n; ++i) {
        const size_t j = bitrev[i];
        if (i > j)
            continue;
        const u64 ai = reduce_once(reduce_once(a[i], two_q), q);
        a[i] = reduce_once(reduce_once(a[j], two_q), q);
        a[j] = ai;
    }
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
#if NEO_SHOUP_LANES
    if (take_lanes(n_, q)) {
        forward_lanes(a, n_, psi_rev_.data(), psi_rev_shoup_.data(), q);
        to_natural_order(a, bitrev_.data(), n_, q);
        return;
    }
#endif
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
    to_natural_order(a, bitrev_.data(), n_, q);
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
#if NEO_SHOUP_LANES
    if (take_lanes(n_, q)) {
        inverse_lanes(a, n_, psi_inv_rev_.data(), psi_inv_rev_shoup_.data(),
                      q, n_inv_, n_inv_shoup_, n_inv_w_, n_inv_w_shoup_);
        return;
    }
#endif
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
