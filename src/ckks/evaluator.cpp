#include "ckks/evaluator.h"

#include <cmath>
#include <span>

#include "common/check.h"
#include "common/math_util.h"
#include "obs/obs.h"

namespace neo::ckks {

Evaluator::Evaluator(const CkksContext &ctx, KeySwitchMethod method)
    : ctx_(ctx), method_(method)
{
    if (method_ == KeySwitchMethod::klss)
        NEO_CHECK(ctx.params().klss.enabled(),
                  "KLSS evaluator requires KLSS parameters");
}

namespace {

void
check_compatible(const Ciphertext &a, const Ciphertext &b)
{
    NEO_CHECK(a.level == b.level, "ciphertext level mismatch");
    NEO_CHECK(std::abs(a.scale - b.scale) <=
                  1e-9 * std::max(a.scale, b.scale),
              "ciphertext scale mismatch");
}

} // namespace

Ciphertext
Evaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    obs::add("op.hadd");
    check_compatible(a, b);
    Ciphertext out = a;
    out.c0.add_inplace(b.c0);
    out.c1.add_inplace(b.c1);
    return out;
}

Ciphertext
Evaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    obs::add("op.hsub");
    check_compatible(a, b);
    Ciphertext out = a;
    out.c0.sub_inplace(b.c0);
    out.c1.sub_inplace(b.c1);
    return out;
}

Ciphertext
Evaluator::negate(const Ciphertext &a) const
{
    Ciphertext out = a;
    out.c0.negate_inplace();
    out.c1.negate_inplace();
    return out;
}

Ciphertext
Evaluator::add_plain(const Ciphertext &a, const Plaintext &pt) const
{
    obs::add("op.padd");
    NEO_CHECK(pt.poly.limbs() == a.level + 1, "plaintext level mismatch");
    NEO_CHECK(std::abs(a.scale - pt.scale) <=
                  1e-9 * std::max(a.scale, pt.scale),
              "plaintext scale mismatch");
    Ciphertext out = a;
    out.c0.add_inplace(pt.poly);
    return out;
}

Ciphertext
Evaluator::mul_plain(const Ciphertext &a, const Plaintext &pt) const
{
    obs::add("op.pmult");
    NEO_CHECK(pt.poly.limbs() == a.level + 1, "plaintext level mismatch");
    Ciphertext out = a;
    out.c0.mul_inplace(pt.poly);
    out.c1.mul_inplace(pt.poly);
    out.scale = a.scale * pt.scale;
    return out;
}

Ciphertext
Evaluator::mul_integer(const Ciphertext &a, i64 k) const
{
    obs::add("op.cmult");
    Ciphertext out = a;
    for (RnsPoly *c : {&out.c0, &out.c1}) {
        for (size_t i = 0; i < c->limbs(); ++i) {
            const u64 q = c->modulus(i).value();
            const u64 w = from_centered(k, q);
            const u64 ws = shoup_precompute(w, q);
            u64 *x = c->limb(i);
            for (size_t l = 0; l < c->n(); ++l)
                x[l] = mul_shoup(x[l], w, ws, q);
        }
    }
    return out;
}

Ciphertext
Evaluator::mul_by_i(const Ciphertext &a) const
{
    obs::add("op.imult");
    Ciphertext out = a;
    for (RnsPoly *c : {&out.c0, &out.c1}) {
        NEO_CHECK(c->form() == PolyForm::eval, "mul_by_i expects eval form");
        NEO_CHECK(c->n() == ctx_.n(), "ciphertext is over another ring");
        const size_t n = c->n();
        for (size_t i = 0; i < c->limbs(); ++i) {
            const NttTables &t = ctx_.tables().for_modulus(c->modulus(i));
            const u64 q = t.modulus().value();
            // X^{N/2} at ψ^{2k+1} is ψ^{N/2}·ψ^{kN} = ψ^{N/2}·(−1)^k.
            const u64 even = t.psi_pow(n / 2);
            const u64 even_s = t.psi_pow_shoup(n / 2);
            const u64 odd = q - even;
            const u64 odd_s = shoup_precompute(odd, q);
            u64 *x = c->limb(i);
            for (size_t k = 0; k < n; k += 2) {
                x[k] = mul_shoup(x[k], even, even_s, q);
                x[k + 1] = mul_shoup(x[k + 1], odd, odd_s, q);
            }
        }
    }
    return out;
}

Ciphertext
Evaluator::add_constant(const Ciphertext &a, double c) const
{
    obs::add("op.cadd");
    NEO_CHECK(a.c0.form() == PolyForm::eval, "constant add expects eval form");
    const double v = std::round(c * a.scale);
    NEO_CHECK(std::abs(v) < 0x1p63, "constant does not fit an i64");
    const i64 k = static_cast<i64>(v);
    Ciphertext out = a;
    for (size_t i = 0; i < out.c0.limbs(); ++i) {
        const u64 q = out.c0.modulus(i).value();
        const u64 w = from_centered(k, q);
        u64 *x = out.c0.limb(i);
        for (size_t l = 0; l < out.c0.n(); ++l)
            x[l] = add_mod(x[l], w, q);
    }
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keyswitch(const RnsPoly &d2, const EvalKey *evk,
                     const KlssEvalKey *kevk) const
{
    if (method_ == KeySwitchMethod::klss) {
        NEO_CHECK(kevk != nullptr, "KLSS key required");
        if (klss_keyswitch_)
            return klss_keyswitch_(d2, *kevk, ctx_);
        return keyswitch_klss(d2, *kevk, ctx_);
    }
    NEO_CHECK(evk != nullptr, "hybrid key required");
    return keyswitch_hybrid(d2, *evk, ctx_);
}

Ciphertext
Evaluator::mul(const Ciphertext &a, const Ciphertext &b,
               const EvalKeyBundle &keys) const
{
    obs::Span span("hmult", obs::cat::op);
    obs::add("op.hmult");
    obs::observe("work.op.limbs", static_cast<double>(a.level + 1));
    // Multiplication only needs matching levels: the scales multiply.
    NEO_CHECK(a.level == b.level, "ciphertext level mismatch");
    // d0 = a0*b0, d1 = a0*b1 + a1*b0, d2 = a1*b1.
    RnsPoly d0 = a.c0;
    d0.mul_inplace(b.c0);
    RnsPoly d1 = a.c0;
    d1.mul_inplace(b.c1);
    {
        RnsPoly t = a.c1;
        t.mul_inplace(b.c0);
        d1.add_inplace(t);
    }
    RnsPoly d2 = a.c1;
    d2.mul_inplace(b.c1);

    auto [k0, k1] = keyswitch(d2, &keys.rlk, keys.klss());
    d0.add_inplace(k0);
    d1.add_inplace(k1);
    return Ciphertext{std::move(d0), std::move(d1), a.level,
                      a.scale * b.scale};
}

Ciphertext
Evaluator::apply_galois(const Ciphertext &a, u64 g,
                        const GaloisKeys &gk) const
{
    RnsPoly r0 = automorphism(a.c0, g);
    RnsPoly r1 = automorphism(a.c1, g);
    const EvalKey *evk = nullptr;
    const KlssEvalKey *kevk = nullptr;
    if (auto it = gk.hybrid.find(g); it != gk.hybrid.end())
        evk = &it->second;
    if (auto it = gk.klss.find(g); it != gk.klss.end())
        kevk = &it->second;
    auto [k0, k1] = keyswitch(r1, evk, kevk);
    k0.add_inplace(r0);
    return Ciphertext{std::move(k0), std::move(k1), a.level, a.scale};
}

Ciphertext
Evaluator::rotate(const Ciphertext &a, i64 steps,
                  const EvalKeyBundle &keys) const
{
    obs::Span span("hrotate", obs::cat::op);
    obs::add("op.hrotate");
    obs::observe("work.op.limbs", static_cast<double>(a.level + 1));
    return apply_galois(a, ctx_.encoder().galois_element(steps),
                        keys.galois);
}

Ciphertext
Evaluator::conjugate(const Ciphertext &a, const EvalKeyBundle &keys) const
{
    obs::Span span("hconj", obs::cat::op);
    obs::add("op.hconj");
    obs::observe("work.op.limbs", static_cast<double>(a.level + 1));
    return apply_galois(a, ctx_.encoder().galois_element(0, true),
                        keys.galois);
}

Ciphertext
Evaluator::rescale_by(const Ciphertext &a, size_t count) const
{
    obs::Span span("rescale", obs::cat::op);
    obs::add("op.rescale");
    obs::observe("work.op.limbs", static_cast<double>(a.level + 1));
    NEO_CHECK(a.level >= count, "not enough levels to rescale");
    for (const RnsPoly *c : {&a.c0, &a.c1}) {
        NEO_CHECK(c->form() == PolyForm::eval, "rescale expects eval form");
        NEO_CHECK(c->n() == ctx_.n() && c->limbs() == a.level + 1,
                  "ciphertext is over another ring or level");
        for (size_t i = 0; i <= a.level; ++i)
            NEO_CHECK(c->modulus(i) == ctx_.q_basis()[i],
                      "ciphertext is over another modulus chain");
    }
    const NttTableSet &tables = ctx_.tables();
    const size_t n = ctx_.n();
    Ciphertext out = a;
    for (size_t step = 0; step < count; ++step) {
        const size_t level = out.level;
        const u64 ql = ctx_.q_basis()[level].value();
        const auto mods = ctx_.active_mods(level - 1);

        // In the eval domain: INTT only the dropped limb, NTT its
        // centered lift under each remaining q_i, then
        // (c_i - lift_i)·q_l⁻¹. The NTT is linear and exact mod q_i,
        // so this is the coefficient-domain rescale word for word.
        for (RnsPoly *c : {&out.c0, &out.c1}) {
            u64 *last = c->limb(level);
            tables.transform(last, n, std::span(c->mods()).subspan(level, 1),
                             PolyForm::coeff);
            // next holds the lift, then the result.
            RnsPoly next(n, mods, PolyForm::coeff);
            for (size_t i = 0; i < level; ++i) {
                const u64 q = mods[i].value();
                // x mod q for any 64-bit x: a Shoup product by 1.
                const u64 one_shoup = shoup_precompute(1, q);
                const u64 ql_mod = ql % q;
                u64 *lift = next.limb(i);
                for (size_t l = 0; l < n; ++l) {
                    const u64 x = mul_shoup(last[l], 1, one_shoup, q);
                    lift[l] = last[l] > ql / 2 ? sub_mod(x, ql_mod, q) : x;
                }
            }
            tables.to_eval(next);
            for (size_t i = 0; i < level; ++i) {
                const u64 q = mods[i].value();
                const u64 ql_inv = mods[i].inv(ql % q);
                const u64 ws = shoup_precompute(ql_inv, q);
                const u64 *src = c->limb(i);
                u64 *dst = next.limb(i);
                for (size_t l = 0; l < n; ++l)
                    dst[l] = mul_shoup(sub_mod(src[l], dst[l], q), ql_inv, ws,
                                       q);
            }
            *c = std::move(next);
        }
        out.level -= 1;
        out.scale /= static_cast<double>(ql);
    }
    return out;
}

Ciphertext
Evaluator::rescale(const Ciphertext &a) const
{
    return rescale_by(a, 1);
}

Ciphertext
Evaluator::double_rescale(const Ciphertext &a) const
{
    return rescale_by(a, 2);
}

Ciphertext
Evaluator::mod_switch_to(const Ciphertext &a, size_t level) const
{
    NEO_CHECK(level <= a.level, "cannot mod-switch upward");
    Ciphertext out = a;
    out.c0.drop_limbs_to(level + 1);
    out.c1.drop_limbs_to(level + 1);
    out.level = level;
    return out;
}

} // namespace neo::ckks
