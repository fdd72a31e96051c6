#include "ckks/hoisting.h"

#include <algorithm>

#include "common/check.h"

namespace neo::ckks {

std::vector<Ciphertext>
rotate_hoisted(const Ciphertext &ct, const std::vector<i64> &steps,
               const GaloisKeys &gk, const CkksContext &ctx)
{
    const size_t n = ct.c0.n();
    const size_t level = ct.level;
    check_keyswitch_operand(ct.c1, ctx);
    NEO_CHECK(ct.c1.limbs() == level + 1,
              "ciphertext level does not match its limbs");
    const auto ext_mods = ctx.extended_mods(level);
    const auto groups = ctx.digit_partition(level);

    // Every step's key is checked before any of them is read.
    std::vector<std::pair<u64, const EvalKey *>> keys;
    keys.reserve(steps.size());
    for (i64 step : steps) {
        const u64 g = ctx.encoder().galois_element(step);
        auto it = gk.hybrid.find(g);
        NEO_CHECK(it != gk.hybrid.end(), "missing Galois key for step");
        check_keyswitch_key(it->second, ctx);
        NEO_CHECK(groups.size() <= it->second.digit_count(),
                  "evaluation key has too few digits");
        keys.emplace_back(g, &it->second);
    }

    // --- Shared ModUp of c1: once for all rotations. -----------------
    RnsPoly d2c = ct.c1;
    ctx.tables().to_coeff(d2c);
    std::vector<RnsPoly> raised;
    raised.reserve(groups.size());
    for (const auto &g : groups) {
        std::vector<u64> digit_primes;
        for (size_t t = g.first; t < g.first + g.count; ++t)
            digit_primes.push_back(ctx.q_basis()[t].value());
        RnsBasis digit_basis(digit_primes);
        std::vector<u64> other_primes;
        for (size_t t = 0; t < ext_mods.size(); ++t) {
            if (t < g.first || t >= g.first + g.count)
                other_primes.push_back(ext_mods[t].value());
        }
        RnsBasis other_basis(other_primes);
        BaseConverter conv(digit_basis, other_basis);
        std::vector<u64> converted(other_primes.size() * n);
        conv.convert_approx(d2c.limb(g.first), n, converted.data());

        RnsPoly up(n, ext_mods, PolyForm::coeff);
        size_t src = 0;
        for (size_t t = 0; t < ext_mods.size(); ++t) {
            if (t >= g.first && t < g.first + g.count) {
                std::copy(d2c.limb(t), d2c.limb(t) + n, up.limb(t));
            } else {
                std::copy(converted.begin() + src * n,
                          converted.begin() + (src + 1) * n, up.limb(t));
                ++src;
            }
        }
        ctx.tables().to_eval(up);
        raised.push_back(std::move(up));
    }

    // --- Per-rotation: permute the raised digits, inner-product with
    // that rotation's key, ModDown. ------------------------------------
    std::vector<Ciphertext> out;
    out.reserve(steps.size());
    for (const auto &[g, key] : keys) {
        const EvalKey &evk = *key;
        RnsPoly acc0(n, ext_mods, PolyForm::eval);
        RnsPoly acc1(n, ext_mods, PolyForm::eval);
        for (size_t j = 0; j < groups.size(); ++j) {
            RnsPoly up_rot = automorphism(raised[j], g);
            // Slice the key to the active primes.
            RnsPoly kb(n, ext_mods, PolyForm::eval);
            RnsPoly ka(n, ext_mods, PolyForm::eval);
            const size_t k_special = ext_mods.size() - (level + 1);
            for (size_t i = 0; i <= level; ++i) {
                std::copy(evk.parts[j][0].limb(i),
                          evk.parts[j][0].limb(i) + n, kb.limb(i));
                std::copy(evk.parts[j][1].limb(i),
                          evk.parts[j][1].limb(i) + n, ka.limb(i));
            }
            for (size_t k = 0; k < k_special; ++k) {
                const size_t full = ctx.max_level() + 1 + k;
                std::copy(evk.parts[j][0].limb(full),
                          evk.parts[j][0].limb(full) + n,
                          kb.limb(level + 1 + k));
                std::copy(evk.parts[j][1].limb(full),
                          evk.parts[j][1].limb(full) + n,
                          ka.limb(level + 1 + k));
            }
            acc0.add_product(up_rot, kb);
            acc1.add_product(up_rot, ka);
        }
        ctx.tables().to_coeff(acc0);
        ctx.tables().to_coeff(acc1);
        RnsPoly k0 = mod_down(acc0, level, ctx);
        RnsPoly k1 = mod_down(acc1, level, ctx);
        ctx.tables().to_eval(k0);
        ctx.tables().to_eval(k1);

        k0.add_inplace(automorphism(ct.c0, g));
        out.push_back(Ciphertext{std::move(k0), std::move(k1), level,
                                 ct.scale});
    }
    return out;
}

} // namespace neo::ckks
