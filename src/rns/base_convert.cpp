#include "rns/base_convert.h"

#include <algorithm>

#include "common/isa.h"
#include "common/workspace.h"
#include "obs/obs.h"
#include "rns/shoup_lanes.h"

namespace neo {

BaseConverter::BaseConverter(const RnsBasis &from, const RnsBasis &to)
    : from_(from), to_(to)
{
    const size_t k = from_.size();
    const size_t m = to_.size();
    punc_inv_shoup_.resize(k);
    punc_mod_to_.resize(k * m);
    punc_mod_to_shoup_.resize(k * m);
    b_mod_to_.resize(m);
    b_mod_to_shoup_.resize(m);
    inv_from_.resize(k);
    for (size_t j = 0; j < m; ++j) {
        const Modulus &tj = to_[j];
        for (size_t i = 0; i < k; ++i) {
            u64 f = from_.punc_prod_mod(i, tj);
            punc_mod_to_[i * m + j] = f;
            punc_mod_to_shoup_[i * m + j] = shoup_precompute(f, tj.value());
        }
        b_mod_to_[j] = from_.product_mod(tj);
        b_mod_to_shoup_[j] = shoup_precompute(b_mod_to_[j], tj.value());
    }
    for (size_t i = 0; i < k; ++i) {
        punc_inv_shoup_[i] =
            shoup_precompute(from_.punc_inv(i), from_[i].value());
        // The reciprocals overflow() sums with. neo-lint: allow(float-on-limb)
        inv_from_[i] = 1.0 / static_cast<double>(from_[i].value());
    }
    auto fits = [](const Modulus &q) { return lanes::fits(q.value()); };
    lanes_ = std::ranges::all_of(from_.mods(), fits) &&
             std::ranges::all_of(to_.mods(), fits);
}

#if NEO_SHOUP_LANES

namespace {

using lanes::u64x8;

/*
 * BConv's two Shoup steps in IFMA lanes (rns/shoup_lanes.h), for
 * source and target moduli below 2^50: inputs are residues below b_i,
 * scaled words stay below b_i, and a running sum stays below 2t. A
 * ragged tail (n mod 8 ≠ 0) runs the same body with masked loads and
 * stores.
 */

/// dst[l] = src[l]·w mod b over n words.
[[NEO_IFMA_TARGET]] void
scale_lanes(const u64 *src, size_t n, u64 w, u64 ws, u64 bv, u64 *dst)
{
    const u64x8 b = lanes::splat(bv), wl = lanes::splat(w),
                wsl = lanes::splat(ws);
    for (size_t l = 0; l < n; l += 8) {
        const size_t count = std::min<size_t>(8, n - l);
        const u64x8 y = lanes::load_first(src + l, count);
        const u64x8 r = lanes::mul_shoup_lazy(y, wl, wsl, b);
        lanes::store_first(dst + l, lanes::reduce_once(r, b), count);
    }
}

/// dst[l] = Σ_i scaled[i·n + l]·f[i·stride] mod t over n words, 8
/// outputs held in a register across all k source limbs and stored
/// once.
[[NEO_IFMA_TARGET]] void
accumulate_lanes(const u64 *scaled, size_t n, size_t k, const u64 *f,
                 const u64 *fs, size_t stride, u64 tv, u64 *dst)
{
    const u64x8 t = lanes::splat(tv), two_t = lanes::splat(2 * tv);
    for (size_t l = 0; l < n; l += 8) {
        const size_t count = std::min<size_t>(8, n - l);
        u64x8 acc{};
        for (size_t i = 0; i < k; ++i) {
            const u64x8 y = lanes::load_first(scaled + i * n + l, count);
            acc = lanes::reduce_once(
                acc + lanes::mul_shoup_lazy(y, lanes::splat(f[i * stride]),
                                            lanes::splat(fs[i * stride]), t),
                two_t);
        }
        lanes::store_first(dst + l, lanes::reduce_once(acc, t), count);
    }
}

} // namespace

#endif

void
BaseConverter::scale_inputs(const u64 *in, size_t n, u64 *scaled) const
{
#if NEO_SHOUP_LANES
    if (lanes_ && ifma_lanes()) {
        for (size_t i = 0; i < from_.size(); ++i)
            scale_lanes(in + i * n, n, from_.punc_inv(i), punc_inv_shoup_[i],
                        from_[i].value(), scaled + i * n);
        return;
    }
#endif
    for (size_t i = 0; i < from_.size(); ++i) {
        const u64 *src = in + i * n;
        u64 *dst = scaled + i * n;
        for (size_t l = 0; l < n; ++l)
            dst[l] = scale(i, src[l]);
    }
}

void
BaseConverter::accumulate(const u64 *scaled, size_t n, size_t j,
                          u64 *dst) const
{
    const size_t m = to_.size();
    const u64 tv = to_[j].value();
#if NEO_SHOUP_LANES
    if (lanes_ && ifma_lanes()) {
        accumulate_lanes(scaled, n, from_.size(), punc_mod_to_.data() + j,
                         punc_mod_to_shoup_.data() + j, m, tv, dst);
        return;
    }
#endif
    std::fill(dst, dst + n, 0);
    for (size_t i = 0; i < from_.size(); ++i) {
        const u64 f = punc_mod_to_[i * m + j];
        const u64 fs = punc_mod_to_shoup_[i * m + j];
        const u64 *src = scaled + i * n;
        for (size_t l = 0; l < n; ++l)
            dst[l] = add_mod(dst[l], mul_shoup(src[l], f, fs, tv), tv);
    }
}

namespace {

/// Per-call accounting shared by both conversions: one conversion,
/// |from|·|to| limb products, inputs read and outputs written once.
void
note_convert(size_t k, size_t m, size_t n)
{
    if (auto *r = obs::current()) {
        r->add("bconv.converts");
        r->add("bconv.products", static_cast<u64>(k) * m);
        r->add_value("bconv.bytes",
                     static_cast<double>((k + m) * n) * sizeof(u64));
    }
}

} // namespace

void
BaseConverter::convert_approx(const u64 *in, size_t n, u64 *out) const
{
    obs::Span span("bconv_approx", obs::cat::bconv);
    note_convert(from_.size(), to_.size(), n);
    Workspace::Frame frame;
    u64 *scaled = frame.alloc<u64>(from_.size() * n);
    scale_inputs(in, n, scaled);
    for (size_t j = 0; j < to_.size(); ++j)
        accumulate(scaled, n, j, out + j * n);
}

void
BaseConverter::convert_exact(const u64 *in, size_t n, u64 *out) const
{
    obs::Span span("bconv_exact", obs::cat::bconv);
    note_convert(from_.size(), to_.size(), n);
    Workspace::Frame frame;
    u64 *scaled = frame.alloc<u64>(from_.size() * n);
    scale_inputs(in, n, scaled);
    u64 *r = frame.alloc<u64>(n);
    for (size_t l = 0; l < n; ++l)
        r[l] = overflow(scaled + l, n);
    for (size_t j = 0; j < to_.size(); ++j) {
        u64 *dst = out + j * n;
        accumulate(scaled, n, j, dst);
        for (size_t l = 0; l < n; ++l)
            dst[l] = correct(j, dst[l], r[l]);
    }
}

} // namespace neo
