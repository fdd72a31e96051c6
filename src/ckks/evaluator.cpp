#include "ckks/evaluator.h"

#include <cmath>

#include "common/check.h"
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
    Ciphertext out = a;
    for (size_t step = 0; step < count; ++step) {
        const size_t level = out.level;
        const Modulus &q_last = ctx_.q_basis()[level];
        const u64 ql = q_last.value();
        const auto mods = ctx_.active_mods(level - 1);
        const size_t n = ctx_.n();

        for (RnsPoly *c : {&out.c0, &out.c1}) {
            ctx_.tables().to_coeff(*c);
            RnsPoly next(n, mods, PolyForm::coeff);
            const u64 *last = c->limb(level);
            for (size_t i = 0; i < level; ++i) {
                const Modulus &qi = mods[i];
                const u64 ql_inv = qi.inv(ql % qi.value());
                const u64 ws = shoup_precompute(ql_inv, qi.value());
                const u64 *src = c->limb(i);
                u64 *dst = next.limb(i);
                for (size_t l = 0; l < n; ++l) {
                    // Centered lift of the dropped limb.
                    u64 lifted = last[l] > ql / 2
                                     ? qi.sub(last[l] % qi.value(),
                                              ql % qi.value())
                                     : last[l] % qi.value();
                    dst[l] = mul_shoup(qi.sub(src[l], lifted), ql_inv,
                                       ws, qi.value());
                }
            }
            ctx_.tables().to_eval(next);
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
