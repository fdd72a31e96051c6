#include "ckks/keyswitch.h"

#include <algorithm>

#include "ckks/hoisting.h"
#include "ckks/ks_precomp.h"
#include "common/check.h"
#include "common/workspace.h"
#include "obs/obs.h"
#include "rns/partition.h"

namespace neo::ckks {

namespace {

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

/**
 * Hybrid ModUp of ciphertext digit @p j: convert_approx its limbs of
 * @p d2c (coeff form over q_0..q_l) to the other primes of @p lv's
 * extended basis and NTT only those. The digit's own limbs are copied
 * from @p d2, the same operand in eval form.
 */
RnsPoly
raise_digit(const RnsPoly &d2, const RnsPoly &d2c, size_t j,
            const KeySwitchPrecomp::Level &lv, const CkksContext &ctx)
{
    const size_t n = d2c.n();
    const auto &g = lv.groups[j];
    const BaseConverter &to_other = *lv.digits[j].to_other;
    const auto &ext_mods = lv.extended;
    const size_t other_count = ext_mods.size() - g.count;
    Workspace::Frame frame;
    u64 *converted = frame.alloc<u64>(other_count * n);
    to_other.convert_approx(d2c.limb(g.first), n, converted);
    obs::add("ks.bconv_products", g.count * other_count);
    ctx.tables().transform(converted, n, to_other.to().mods(),
                           PolyForm::eval);
    obs::add("ks.ntt_limbs", other_count);

    RnsPoly up(n, ext_mods, PolyForm::eval);
    size_t other = 0;
    for (size_t t = 0; t < ext_mods.size(); ++t) {
        const bool own = t >= g.first && t < g.first + g.count;
        const u64 *src = own ? d2.limb(t) : converted + other++ * n;
        std::copy(src, src + n, up.limb(t));
    }
    return up;
}

/**
 * The ModDown tail every key switch ends with: divide both
 * accumulators over q_0..q_l, P by P and return the results in eval
 * form over q_0..q_l. An eval-form accumulator (hybrid) stays in the
 * eval domain inside mod_down; a coeff-form one (KLSS Recover Limbs)
 * is NTT'd here.
 */
std::pair<RnsPoly, RnsPoly>
mod_down_tail(const RnsPoly &acc0, const RnsPoly &acc1, size_t level,
              const CkksContext &ctx)
{
    std::pair<RnsPoly, RnsPoly> out{mod_down(acc0, level, ctx),
                                    mod_down(acc1, level, ctx)};
    for (RnsPoly *k : {&out.first, &out.second}) {
        if (k->form() == PolyForm::coeff) {
            ctx.tables().to_eval(*k);
            obs::add("ks.ntt_limbs", level + 1);
        }
    }
    return out;
}

/**
 * The rest of a hybrid key switch after its ModUp: the inner product
 * of the raised digits digit(0..β-1) with @p evk, then the ModDown tail
 * on the eval-form accumulators. Each digit is asked for once, in
 * order, and dropped after its products.
 *
 * The key is read in place. Its parts lie over q_0..q_L, then P, so
 * limb t of the level's extended basis q_0..q_l, P is part limb t for
 * t ≤ l and part limb t + (L − l) otherwise. Callers check the key
 * first: it must pass check_keyswitch_key and cover the level's
 * digits, which keeps every index inside the part.
 */
template <class Digit>
std::pair<RnsPoly, RnsPoly>
ip_and_mod_down(const Digit &digit, const EvalKey &evk, size_t level,
                const KeySwitchPrecomp::Level &lv, const CkksContext &ctx)
{
    const size_t n = ctx.n();
    const size_t limbs = lv.extended.size();
    const size_t skipped = ctx.max_level() - level;
    RnsPoly acc0(n, lv.extended, PolyForm::eval);
    RnsPoly acc1(n, lv.extended, PolyForm::eval);
    for (size_t j = 0; j < lv.groups.size(); ++j) {
        const RnsPoly up = digit(j);
        const auto &key = evk.parts[j];
        for (size_t t = 0; t < limbs; ++t) {
            const size_t k = t <= level ? t : t + skipped;
            add_product_limb(acc0.limb(t), up.limb(t), key[0].limb(k), n,
                             lv.extended[t]);
            add_product_limb(acc1.limb(t), up.limb(t), key[1].limb(k), n,
                             lv.extended[t]);
        }
        obs::add("ks.ip_mul_limbs", 2 * limbs);
    }
    return mod_down_tail(acc0, acc1, level, ctx);
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
    obs::Span span("mod_down", obs::cat::stage);
    const size_t n = ext_poly.n();
    const size_t k_special = ctx.p_basis().size();
    NEO_ASSERT(ext_poly.limbs() == level + 1 + k_special,
               "mod_down shape mismatch");
    const auto &lv = ctx.precomp().level(level);
    const BaseConverter &conv = *lv.p_to_q;
    const NttTableSet &tables = ctx.tables();
    const bool eval = ext_poly.form() == PolyForm::eval;
    Workspace::Frame frame;
    // The P limbs follow q_0..q_l contiguously. The BConv reads them in
    // coefficient form, so an eval-form input INTTs a copy of only
    // those K limbs.
    const u64 *p_part = ext_poly.limb(level + 1);
    if (eval) {
        u64 *p_coeff = frame.alloc<u64>(k_special * n);
        std::copy(p_part, p_part + k_special * n, p_coeff);
        tables.transform(p_coeff, n,
                         std::span(ext_poly.mods()).subspan(level + 1),
                         PolyForm::coeff);
        obs::add("ks.intt_limbs", k_special);
        p_part = p_coeff;
    }
    // Correction rows first..first+count in the input's form: the NTT
    // is linear and exact mod each q_i, so the fix below is the same
    // word for word in either domain.
    auto to_input_form = [&](u64 *rows, size_t first, size_t count) {
        if (eval)
            tables.transform(rows, n,
                             std::span(lv.active).subspan(first, count),
                             PolyForm::eval);
    };
    RnsPoly out(n, lv.active, ext_poly.form());
    // (c - corr) * P^{-1} mod q_i over limb i, corr the BConv of the
    // P part down to q_i.
    auto fix = [&](size_t i, const u64 *corr) {
        const u64 q = lv.active[i].value();
        const u64 p_inv = lv.p_inv[i];
        const u64 ps = lv.p_inv_shoup[i];
        const u64 *src = ext_poly.limb(i);
        u64 *dst = out.limb(i);
        for (size_t l = 0; l < n; ++l)
            dst[l] = mul_shoup(sub_mod(src[l], corr[l], q), p_inv, ps, q);
    };
    // Output limbs are visited device-major over the per-device Q-limb
    // shards; each limb's work is the same for every device count.
    const auto shards = make_even_partition(level + 1, devices);
    if (fuse) {
        // Fused kernel: the fix rides in the BConv epilogue. Per Q limb
        // the converter's sum fills one n-word row and the fix reads it
        // back while it is in cache — the correction never touches
        // DRAM and the standalone fix pass (and its launch) disappears.
        obs::Span fused_span("moddown_fused", obs::cat::bconv);
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
        u64 *row = frame.alloc<u64>(n);
        for (const auto &shard : shards) {
            for (size_t j = shard.first; j < shard.first + shard.count; ++j) {
                conv.accumulate(scaled, n, j, row);
                to_input_form(row, j, 1);
                fix(j, row);
            }
        }
    } else {
        u64 *corr = frame.alloc<u64>((level + 1) * n);
        conv.convert_approx(p_part, n, corr);
        to_input_form(corr, 0, level + 1);
        // A standalone element-wise kernel in the unfused mapping,
        // hence its own span and pass counter.
        obs::Span fix_span("moddown_fix", obs::cat::stage);
        obs::add("pass.moddown_fix");
        for (const auto &shard : shards)
            for (size_t i = shard.first; i < shard.first + shard.count; ++i)
                fix(i, corr + i * n);
    }
    if (eval)
        obs::add("ks.ntt_limbs", level + 1);
    obs::add("ks.moddown_products", k_special * (level + 1));
    if (devices > 1)
        obs::add("ks.moddown.shards", devices);
    return out;
}

std::pair<RnsPoly, RnsPoly>
keyswitch_hybrid(const RnsPoly &d2, const EvalKey &evk,
                 const CkksContext &ctx)
{
    check_keyswitch_operand(d2, ctx);
    check_keyswitch_key(evk, ctx);
    obs::Span span("keyswitch_hybrid", obs::cat::op);
    const size_t level = d2.limbs() - 1;
    obs::observe("work.keyswitch.limbs", static_cast<double>(level + 1));
    const auto &lv = ctx.precomp().level(level);
    NEO_CHECK(lv.groups.size() <= evk.digit_count(),
              "evaluation key has too few digits");

    RnsPoly d2c = d2;
    ctx.tables().to_coeff(d2c);
    obs::add("ks.intt_limbs", level + 1);
    // Each digit is raised as the inner product reaches it, so only
    // one raised digit is ever held.
    return ip_and_mod_down(
        [&](size_t j) { return raise_digit(d2, d2c, j, lv, ctx); }, evk,
        level, lv, ctx);
}

std::vector<Ciphertext>
rotate_hoisted(const Ciphertext &ct, const std::vector<i64> &steps,
               const GaloisKeys &gk, const CkksContext &ctx)
{
    const size_t level = ct.level;
    check_keyswitch_operand(ct.c1, ctx);
    NEO_CHECK(ct.c1.limbs() == level + 1,
              "ciphertext level does not match its limbs");
    const auto &lv = ctx.precomp().level(level);
    const size_t beta = lv.groups.size();

    // Every step's key is checked before any of them is read.
    std::vector<std::pair<u64, const EvalKey *>> keys;
    keys.reserve(steps.size());
    for (i64 step : steps) {
        const u64 g = ctx.encoder().galois_element(step);
        auto it = gk.hybrid.find(g);
        NEO_CHECK(it != gk.hybrid.end(), "missing Galois key for step");
        check_keyswitch_key(it->second, ctx);
        NEO_CHECK(beta <= it->second.digit_count(),
                  "evaluation key has too few digits");
        keys.emplace_back(g, &it->second);
    }

    // ModUp of c1, once for all rotations.
    RnsPoly d2c = ct.c1;
    ctx.tables().to_coeff(d2c);
    obs::add("ks.intt_limbs", level + 1);
    std::vector<RnsPoly> raised;
    raised.reserve(beta);
    for (size_t j = 0; j < beta; ++j)
        raised.push_back(raise_digit(ct.c1, d2c, j, lv, ctx));

    // Per rotation: σ_g on the raised digits, the inner product with
    // that rotation's key, the ModDown tail.
    std::vector<Ciphertext> out;
    out.reserve(steps.size());
    for (const auto &step : keys) {
        const u64 g = step.first;
        auto [k0, k1] = ip_and_mod_down(
            [&](size_t j) { return automorphism(raised[j], g); },
            *step.second, level, lv, ctx);
        k0.add_inplace(automorphism(ct.c0, g));
        out.push_back(
            Ciphertext{std::move(k0), std::move(k1), level, ct.scale});
    }
    return out;
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

    // --- Recover Limbs: key digit i's accumulator converts exactly to
    // its own primes (the RNS gadget is 1 there, 0 elsewhere), whose
    // rows land on their limbs of q_0..q_l, P.
    RnsPoly acc0(n, ext_mods, PolyForm::coeff);
    RnsPoly acc1(n, ext_mods, PolyForm::coeff);
    for (size_t i = 0; i < beta_tilde; ++i) {
        const BaseConverter &conv = lv.recover[i];
        const size_t count = conv.to().size();
        Workspace::Frame frame;
        u64 *out = frame.alloc<u64>(count * n);
        for (size_t c = 0; c < 2; ++c) {
            conv.convert_exact(s[i][c].data(), n, out);
            RnsPoly &acc = c == 0 ? acc0 : acc1;
            for (size_t t = 0; t < count; ++t)
                std::copy(out + t * n, out + (t + 1) * n,
                          acc.limb(ctx.pq_limb(key_partition[i].first + t,
                                               level)));
        }
        obs::add("ks.recover_products", 2 * alpha_p * count);
    }

    // --- ModDown, then NTT over q_0..q_l (shared with hybrid).
    return mod_down_tail(acc0, acc1, level, ctx);
}

} // namespace neo::ckks
