#include "ckks/hoisting.h"

#include <algorithm>

#include "ckks/ks_precomp.h"
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
    const auto &lv = ctx.precomp().level(level);
    const auto &ext_mods = lv.extended;
    const auto &groups = lv.groups;

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
    for (size_t j = 0; j < groups.size(); ++j) {
        const auto &g = groups[j];
        std::vector<u64> converted((ext_mods.size() - g.count) * n);
        lv.digits[j].to_other->convert_approx(d2c.limb(g.first), n,
                                              converted.data());

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
        const auto &slices = key_level_slices(*key, level, ctx);
        RnsPoly acc0(n, ext_mods, PolyForm::eval);
        RnsPoly acc1(n, ext_mods, PolyForm::eval);
        for (size_t j = 0; j < groups.size(); ++j) {
            RnsPoly up_rot = automorphism(raised[j], g);
            acc0.add_product(up_rot, slices.parts[j][0]);
            acc1.add_product(up_rot, slices.parts[j][1]);
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
