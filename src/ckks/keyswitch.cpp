#include "ckks/keyswitch.h"

#include <algorithm>

#include "ckks/ks_precomp.h"
#include "common/check.h"
#include "common/workspace.h"
#include "obs/obs.h"
#include "rns/partition.h"

namespace neo::ckks {

namespace {

/// Copy the level-l active limbs (q_0..q_l, then P) out of a key part
/// stored over the full extended basis [q_0..q_L, p_0..p_{K-1}].
RnsPoly
slice_key_part(const RnsPoly &full, size_t level, size_t max_level,
               const std::vector<Modulus> &ext_mods)
{
    const size_t n = full.n();
    const size_t k_special = ext_mods.size() - (level + 1);
    RnsPoly out(n, ext_mods, PolyForm::eval);
    for (size_t i = 0; i <= level; ++i)
        std::copy(full.limb(i), full.limb(i) + n, out.limb(i));
    for (size_t k = 0; k < k_special; ++k) {
        std::copy(full.limb(max_level + 1 + k),
                  full.limb(max_level + 1 + k) + n,
                  out.limb(level + 1 + k));
    }
    return out;
}

/// True when @p m is q_0..q_L of @p ctx, then P.
bool
is_qp_chain(const std::vector<Modulus> &m, const CkksContext &ctx)
{
    const auto &q = ctx.q_basis().mods();
    const auto &p = ctx.p_basis().mods();
    return m.size() == q.size() + p.size() &&
           std::equal(q.begin(), q.end(), m.begin()) &&
           std::equal(p.begin(), p.end(), m.begin() + q.size());
}

} // namespace

void
check_keyswitch_operand(const RnsPoly &d2, const CkksContext &ctx)
{
    NEO_CHECK(d2.form() == PolyForm::eval, "keyswitch expects eval form");
    NEO_CHECK(d2.n() == ctx.n(), "keyswitch operand is over another ring");
    NEO_CHECK(d2.limbs() >= 1 && d2.limbs() <= ctx.q_basis().size(),
              "keyswitch operand has no level of this modulus chain");
    for (size_t i = 0; i < d2.limbs(); ++i)
        NEO_CHECK(d2.modulus(i) == ctx.q_basis()[i],
                  "keyswitch operand is over another modulus chain");
}

void
check_keyswitch_key(const EvalKey &evk, const CkksContext &ctx)
{
    for (const auto &pair : evk.parts)
        for (const RnsPoly &part : pair)
            NEO_CHECK(part.n() == ctx.n() && is_qp_chain(part.mods(), ctx),
                      "evaluation key is over another ring or basis");
}

void
check_keyswitch_key(const KlssEvalKey &evk, const CkksContext &ctx)
{
    NEO_CHECK(evk.parts.size() == 2 * evk.beta_max * evk.beta_tilde_max,
              "KLSS evaluation key has the wrong number of parts");
    const auto &t = ctx.t_basis().mods();
    for (const RnsPoly &part : evk.parts)
        NEO_CHECK(part.n() == ctx.n() && part.mods() == t,
                  "KLSS evaluation key is over another ring or basis");
    NEO_CHECK(is_qp_chain(evk.qp_mods, ctx),
              "KLSS evaluation key was built over another modulus chain");
}

RnsPoly
mod_down(const RnsPoly &ext_poly, size_t level, const CkksContext &ctx,
         bool fuse, size_t devices)
{
    NEO_ASSERT(devices >= 1, "mod_down needs at least one device");
    NEO_ASSERT(ext_poly.form() == PolyForm::coeff,
               "mod_down expects coefficient form");
    obs::Span span("mod_down", obs::cat::stage);
    const size_t n = ext_poly.n();
    const size_t k_special = ctx.p_basis().size();
    NEO_ASSERT(ext_poly.limbs() == level + 1 + k_special,
               "mod_down shape mismatch");
    const auto &lv = ctx.precomp().level(level);

    // BConv the P-part down to the q primes (cached converter).
    Workspace::Frame frame;
    u64 *p_part = frame.alloc<u64>(k_special * n);
    for (size_t k = 0; k < k_special; ++k)
        std::copy(ext_poly.limb(level + 1 + k),
                  ext_poly.limb(level + 1 + k) + n, p_part + k * n);
    RnsPoly out(n, lv.active, PolyForm::coeff);

    if (fuse) {
        // Fused kernel: the (c - corr)·P⁻¹ fix rides in the BConv
        // epilogue. Per element this is convert_approx's Shoup sum,
        // followed immediately by the unfused fix's exact
        // operation sequence — the correction never touches DRAM and
        // the standalone fix pass (and its launch) disappears.
        obs::Span fused_span("moddown_fused", obs::cat::bconv);
        const BaseConverter &conv = *lv.p_to_q;
        if (auto *r = obs::current()) {
            r->add("bconv.converts");
            r->add("bconv.products",
                   static_cast<u64>(k_special) * (level + 1));
            r->add_value("bconv.bytes",
                         static_cast<double>((k_special + level + 1) * n) *
                             sizeof(u64));
            r->add("fuse.moddown_fix");
        }
        u64 *scaled = frame.alloc<u64>(k_special * n);
        conv.scale_inputs(p_part, n, scaled);
        // Device-major over the per-device Q-limb shards; identical
        // per-limb work in identical order within each limb.
        for (const auto &shard : make_even_partition(level + 1, devices)) {
        for (size_t j = shard.first; j < shard.first + shard.count; ++j) {
            const Modulus &tj = conv.to()[j];
            const Modulus &qj = lv.active[j];
            const u64 p_inv = lv.p_inv[j];
            const u64 ps = lv.p_inv_shoup[j];
            const u64 *src = ext_poly.limb(j);
            u64 *dst = out.limb(j);
            const u64 tv = tj.value();
            for (size_t l = 0; l < n; ++l) {
                u64 acc = 0;
                for (size_t i = 0; i < k_special; ++i)
                    acc = add_mod(acc,
                                  mul_shoup(scaled[i * n + l],
                                            conv.factor(i, j),
                                            conv.factor_shoup(i, j), tv),
                                  tv);
                dst[l] = mul_shoup(qj.sub(src[l], acc), p_inv, ps,
                                   qj.value());
            }
        }
        }
        obs::add("ks.moddown_products", k_special * (level + 1));
        if (devices > 1)
            obs::add("ks.moddown.shards", devices);
        return out;
    }

    u64 *corr = frame.alloc<u64>((level + 1) * n);
    lv.p_to_q->convert_approx(p_part, n, corr);
    obs::add("ks.moddown_products", k_special * (level + 1));

    // (c - corr) * P^{-1} mod q_i — a standalone element-wise kernel
    // in the unfused mapping, hence its own span and pass counter.
    obs::Span fix_span("moddown_fix", obs::cat::stage);
    obs::add("pass.moddown_fix");
    if (devices > 1)
        obs::add("ks.moddown.shards", devices);
    for (const auto &shard : make_even_partition(level + 1, devices)) {
    for (size_t i = shard.first; i < shard.first + shard.count; ++i) {
        const Modulus &qi = lv.active[i];
        const u64 p_inv = lv.p_inv[i];
        const u64 ps = lv.p_inv_shoup[i];
        const u64 *src = ext_poly.limb(i);
        const u64 *cr = corr + i * n;
        u64 *dst = out.limb(i);
        for (size_t l = 0; l < n; ++l)
            dst[l] = mul_shoup(qi.sub(src[l], cr[l]), p_inv, ps,
                               qi.value());
    }
    }
    return out;
}

const EvalKey::LevelSlices &
key_level_slices(const EvalKey &evk, size_t level, const CkksContext &ctx)
{
    const auto &lv = ctx.precomp().level(level);
    return evk.level_slices().get(level, [&] {
        EvalKey::LevelSlices s;
        s.parts.reserve(lv.groups.size());
        for (size_t j = 0; j < lv.groups.size(); ++j)
            s.parts.push_back(
                {slice_key_part(evk.parts[j][0], level, ctx.max_level(),
                                lv.extended),
                 slice_key_part(evk.parts[j][1], level, ctx.max_level(),
                                lv.extended)});
        return s;
    });
}

std::pair<RnsPoly, RnsPoly>
keyswitch_hybrid(const RnsPoly &d2, const EvalKey &evk,
                 const CkksContext &ctx)
{
    check_keyswitch_operand(d2, ctx);
    check_keyswitch_key(evk, ctx);
    obs::Span span("keyswitch_hybrid", obs::cat::op);
    const size_t n = d2.n();
    const size_t level = d2.limbs() - 1;
    obs::observe("work.keyswitch.limbs", static_cast<double>(level + 1));
    const auto &lv = ctx.precomp().level(level);
    const auto &ext_mods = lv.extended;
    const auto &groups = lv.groups;
    NEO_CHECK(groups.size() <= evk.digit_count(),
              "evaluation key has too few digits");

    const auto &slices = key_level_slices(evk, level, ctx);

    RnsPoly d2c = d2;
    ctx.tables().to_coeff(d2c);
    obs::add("ks.intt_limbs", level + 1);

    RnsPoly acc0(n, ext_mods, PolyForm::eval);
    RnsPoly acc1(n, ext_mods, PolyForm::eval);

    for (size_t j = 0; j < groups.size(); ++j) {
        const auto &g = groups[j];
        // --- ModUp: approximate BConv of digit j to the other primes.
        // Per-digit frame so every digit reuses the same scratch block.
        Workspace::Frame frame;
        const size_t other_count = ext_mods.size() - g.count;
        u64 *converted = frame.alloc<u64>(other_count * n);
        lv.digits[j].to_other->convert_approx(d2c.limb(g.first), n,
                                              converted);
        obs::add("ks.bconv_products", g.count * other_count);

        RnsPoly up(n, ext_mods, PolyForm::coeff);
        size_t src = 0;
        for (size_t t = 0; t < ext_mods.size(); ++t) {
            if (t >= g.first && t < g.first + g.count) {
                std::copy(d2c.limb(t), d2c.limb(t) + n, up.limb(t));
            } else {
                std::copy(converted + src * n, converted + (src + 1) * n,
                          up.limb(t));
                ++src;
            }
        }
        ctx.tables().to_eval(up);
        obs::add("ks.ntt_limbs", ext_mods.size());

        // --- Inner product with this digit's (cached) key slice.
        acc0.add_product(up, slices.parts[j][0]);
        acc1.add_product(up, slices.parts[j][1]);
        obs::add("ks.ip_mul_limbs", 2 * ext_mods.size());
    }

    // --- ModDown.
    ctx.tables().to_coeff(acc0);
    ctx.tables().to_coeff(acc1);
    obs::add("ks.intt_limbs", 2 * ext_mods.size());
    RnsPoly k0 = mod_down(acc0, level, ctx);
    RnsPoly k1 = mod_down(acc1, level, ctx);
    ctx.tables().to_eval(k0);
    ctx.tables().to_eval(k1);
    obs::add("ks.ntt_limbs", 2 * (level + 1));
    return {std::move(k0), std::move(k1)};
}

std::pair<RnsPoly, RnsPoly>
keyswitch_klss(const RnsPoly &d2, const KlssEvalKey &evk,
               const CkksContext &ctx)
{
    check_keyswitch_operand(d2, ctx);
    check_keyswitch_key(evk, ctx);
    obs::Span span("keyswitch_klss", obs::cat::op);
    const size_t n = d2.n();
    const size_t level = d2.limbs() - 1;
    obs::observe("work.keyswitch.limbs", static_cast<double>(level + 1));
    const size_t k_special = ctx.p_basis().size();
    const size_t alpha_p = ctx.alpha_prime();
    const auto &lv = ctx.precomp().level(level);
    const auto &ext_mods = lv.extended;
    const auto &groups = lv.groups;
    const auto &key_partition = ctx.klss_key_partition();
    // Key digits covering the active [P, q_0..q_l] prefix.
    const size_t beta_tilde = lv.beta_tilde;
    NEO_ASSERT(beta_tilde <= evk.beta_tilde_max, "key digit overflow");
    NEO_CHECK(groups.size() <= evk.beta_max,
              "evaluation key has too few digits");

    RnsPoly d2c = d2;
    ctx.tables().to_coeff(d2c);
    obs::add("ks.intt_limbs", level + 1);

    // --- Mod Up: exact lift of each ciphertext digit into T.
    std::vector<RnsPoly> digits_t;
    digits_t.reserve(groups.size());
    for (size_t j = 0; j < groups.size(); ++j) {
        const auto &g = groups[j];
        RnsPoly dt(n, ctx.t_basis().mods(), PolyForm::coeff);
        lv.digits[j].to_t->convert_exact(d2c.limb(g.first), n,
                                         dt.data());
        obs::add("ks.bconv_products", g.count * alpha_p);
        // --- NTT over T.
        ctx.t_tables().to_eval(dt);
        obs::add("ks.ntt_limbs", alpha_p);
        digits_t.push_back(std::move(dt));
    }

    // --- IP: S_i[c] = Σ_j digit_j * key[i][j][c] over R_T.
    std::vector<std::array<RnsPoly, 2>> s(beta_tilde);
    for (size_t i = 0; i < beta_tilde; ++i) {
        for (size_t c = 0; c < 2; ++c) {
            s[i][c] = RnsPoly(n, ctx.t_basis().mods(), PolyForm::eval);
            for (size_t j = 0; j < groups.size(); ++j) {
                s[i][c].add_product(digits_t[j], evk.part(i, j, c));
                obs::add("ks.ip_mul_limbs", alpha_p);
            }
        }
    }

    // --- INTT over T.
    for (size_t i = 0; i < beta_tilde; ++i) {
        for (size_t c = 0; c < 2; ++c) {
            ctx.t_tables().to_coeff(s[i][c]);
            obs::add("ks.intt_limbs", alpha_p);
        }
    }

    // --- Recover Limbs: each output prime reads its own key-digit
    // group's accumulator (the RNS gadget is 1 there, 0 elsewhere).
    RnsPoly acc0(n, ext_mods, PolyForm::coeff);
    RnsPoly acc1(n, ext_mods, PolyForm::coeff);
    for (size_t pq_idx = 0; pq_idx < level + 1 + k_special; ++pq_idx) {
        // Storage index in [q_0..q_l, P] layout.
        const size_t store_idx = pq_idx < k_special
                                     ? level + 1 + pq_idx
                                     : pq_idx - k_special;
        const size_t grp = group_of(key_partition, pq_idx);
        NEO_ASSERT(grp < beta_tilde, "recover group out of range");
        const BaseConverter &conv = ctx.precomp().t_to_pq(pq_idx);
        conv.convert_exact(s[grp][0].data(), n, acc0.limb(store_idx));
        conv.convert_exact(s[grp][1].data(), n, acc1.limb(store_idx));
        obs::add("ks.recover_products", 2 * alpha_p);
    }

    // --- NTT over Q·P, then ModDown (shared with hybrid).
    RnsPoly k0 = mod_down(acc0, level, ctx);
    RnsPoly k1 = mod_down(acc1, level, ctx);
    ctx.tables().to_eval(k0);
    ctx.tables().to_eval(k1);
    obs::add("ks.ntt_limbs", 2 * (level + 1));
    return {std::move(k0), std::move(k1)};
}

} // namespace neo::ckks
