#include "ckks/keygen.h"

#include <algorithm>

#include "ckks/ks_precomp.h"
#include "common/check.h"

namespace neo::ckks {

KeyGenerator::KeyGenerator(const CkksContext &ctx, u64 seed)
    : ctx_(ctx), rng_(seed)
{
}

RnsPoly
sample_uniform(const CkksContext &ctx, const std::vector<Modulus> &mods,
               Rng &rng)
{
    RnsPoly a(ctx.n(), mods, PolyForm::eval);
    for (size_t i = 0; i < mods.size(); ++i) {
        u64 *dst = a.limb(i);
        for (size_t l = 0; l < ctx.n(); ++l)
            dst[l] = rng.uniform(mods[i].value());
    }
    return a;
}

RnsPoly
sample_error(const CkksContext &ctx, const std::vector<Modulus> &mods,
             Rng &rng)
{
    std::vector<i64> e(ctx.n());
    for (auto &x : e)
        x = rng.gaussian();
    RnsPoly p = ctx.poly_from_signed(e, mods);
    ctx.tables().to_eval(p);
    return p;
}

std::vector<i64>
sample_ternary(size_t n, Rng &rng)
{
    std::vector<i64> v(n);
    for (auto &x : v)
        x = rng.ternary();
    return v;
}

SecretKey
KeyGenerator::secret_key()
{
    return SecretKey{sample_ternary(ctx_.n(), rng_)};
}

SecretKey
KeyGenerator::secret_key_sparse(size_t h)
{
    NEO_CHECK(h > 0 && h <= ctx_.n(), "bad Hamming weight");
    SecretKey sk;
    sk.coeffs.assign(ctx_.n(), 0);
    size_t placed = 0;
    while (placed < h) {
        size_t pos = rng_.uniform(ctx_.n());
        if (sk.coeffs[pos] != 0)
            continue;
        sk.coeffs[pos] = (rng_.next() & 1) ? 1 : -1;
        ++placed;
    }
    return sk;
}

RnsPoly
KeyGenerator::expand_secret(const SecretKey &sk,
                            const std::vector<Modulus> &mods) const
{
    RnsPoly s = ctx_.poly_from_signed(sk.coeffs, mods);
    ctx_.tables().to_eval(s);
    return s;
}

PublicKey
KeyGenerator::public_key(const SecretKey &sk)
{
    const auto mods = ctx_.active_mods(ctx_.max_level());
    RnsPoly s = expand_secret(sk, mods);
    RnsPoly a = sample_uniform(ctx_, mods, rng_);

    // b = -a*s + e.
    RnsPoly b = a;
    b.mul_inplace(s);
    b.negate_inplace();
    b.add_inplace(sample_error(ctx_, mods, rng_));
    return PublicKey{std::move(b), std::move(a)};
}

EvalKey
KeyGenerator::make_eval_key(const SecretKey &sk, const RnsPoly &s_prime)
{
    const size_t top = ctx_.max_level();
    const auto ext_mods = ctx_.extended_mods(top);
    const size_t n = ctx_.n();
    RnsPoly s = expand_secret(sk, ext_mods);

    const auto groups = ctx_.digit_partition(top);
    EvalKey evk;
    evk.parts.reserve(groups.size());
    for (const auto &g : groups) {
        RnsPoly a = sample_uniform(ctx_, ext_mods, rng_);
        RnsPoly b = sample_error(ctx_, ext_mods, rng_);
        // b = e - a*s ...
        RnsPoly as = a;
        as.mul_inplace(s);
        b.sub_inplace(as);
        // ... + [P]*s' on the primes of this digit group.
        for (size_t t = g.first; t < g.first + g.count; ++t) {
            const Modulus &qt = ext_mods[t];
            const u64 p_mod = ctx_.p_basis().product_mod(qt);
            const u64 ps = shoup_precompute(p_mod, qt.value());
            u64 *dst = b.limb(t);
            const u64 *sp = s_prime.limb(t);
            for (size_t l = 0; l < n; ++l)
                dst[l] = qt.add(dst[l],
                                mul_shoup(sp[l], p_mod, ps, qt.value()));
        }
        evk.parts.push_back({std::move(b), std::move(a)});
    }
    return evk;
}

EvalKey
KeyGenerator::relin_key(const SecretKey &sk)
{
    const auto ext_mods = ctx_.extended_mods(ctx_.max_level());
    RnsPoly s = expand_secret(sk, ext_mods);
    RnsPoly s2 = s;
    s2.mul_inplace(s);
    return make_eval_key(sk, s2);
}

EvalKey
KeyGenerator::galois_key(const SecretKey &sk, u64 g)
{
    const auto ext_mods = ctx_.extended_mods(ctx_.max_level());
    // σ_g(s) on the integer coefficients, then expand.
    const size_t n = ctx_.n();
    std::vector<i64> rotated(n, 0);
    for (size_t i = 0; i < n; ++i) {
        u64 j = static_cast<u64>((static_cast<u128>(i) * g) % (2 * n));
        if (j < n)
            rotated[j] = sk.coeffs[i];
        else
            rotated[j - n] = -sk.coeffs[i];
    }
    RnsPoly sp = ctx_.poly_from_signed(rotated, ext_mods);
    ctx_.tables().to_eval(sp);
    return make_eval_key(sk, sp);
}

GaloisKeys
KeyGenerator::galois_keys(const SecretKey &sk, const std::vector<i64> &steps,
                          bool conjugate, bool with_klss)
{
    GaloisKeys keys;
    auto add = [&](u64 g) {
        if (keys.hybrid.count(g))
            return;
        EvalKey k = galois_key(sk, g);
        if (with_klss)
            keys.klss.emplace(g, to_klss(k));
        keys.hybrid.emplace(g, std::move(k));
    };
    for (i64 s : steps)
        add(ctx_.encoder().galois_element(s));
    if (conjugate)
        add(ctx_.encoder().galois_element(0, true));
    return keys;
}

EvalKeyBundle
KeyGenerator::eval_key_bundle(const SecretKey &sk,
                              const std::vector<i64> &steps, bool conjugate,
                              bool with_klss)
{
    EvalKeyBundle bundle;
    bundle.rlk = relin_key(sk);
    if (with_klss)
        bundle.klss_rlk = to_klss(bundle.rlk);
    bundle.galois = galois_keys(sk, steps, conjugate, with_klss);
    return bundle;
}

KlssEvalKey
KeyGenerator::to_klss(const EvalKey &evk) const
{
    NEO_CHECK(ctx_.params().klss.enabled(), "KLSS not configured");
    const size_t n = ctx_.n();
    const size_t top = ctx_.max_level();
    const auto &partition = ctx_.klss_key_partition();

    KlssEvalKey out;
    out.beta_max = evk.parts.size();
    out.beta_tilde_max = partition.size();
    out.qp_mods = ctx_.q_basis().mods();
    out.qp_mods.insert(out.qp_mods.end(), ctx_.p_basis().mods().begin(),
                       ctx_.p_basis().mods().end());
    out.parts.resize(out.beta_max * out.beta_tilde_max * 2);

    // Each key part goes to coefficient form once; every key digit
    // then lifts its group's limbs of it into T through the plan's
    // exact converter. One part is held in coefficient form at a time.
    const auto &convs = ctx_.precomp().key_digit_to_t();
    for (size_t j = 0; j < out.beta_max; ++j) {
        for (size_t c = 0; c < 2; ++c) {
            RnsPoly part = evk.parts[j][c];
            ctx_.tables().to_coeff(part);
            for (size_t i = 0; i < partition.size(); ++i) {
                const auto &grp = partition[i];
                std::vector<u64> in(grp.count * n);
                for (size_t t = 0; t < grp.count; ++t) {
                    const u64 *limb =
                        part.limb(ctx_.pq_limb(grp.first + t, top));
                    std::copy(limb, limb + n, in.begin() + t * n);
                }
                RnsPoly &digit = out.part(i, j, c);
                digit = RnsPoly(n, ctx_.t_basis().mods(), PolyForm::coeff);
                convs[i].convert_exact(in.data(), n, digit.data());
                ctx_.t_tables().to_eval(digit);
            }
        }
    }
    return out;
}

} // namespace neo::ckks
