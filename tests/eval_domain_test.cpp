// Differential suite for the eval-domain hybrid key switch and rescale.
//
// The key switch's ModUp and ModDown and the rescale transform only the
// limbs that change basis and work on the rest in eval form. The NTT is
// linear and exact mod each q_i, so every output must equal, word for
// word, the coefficient-domain algorithm that transforms every limb.
// That algorithm is rebuilt here from public pieces (each level's
// digit converters, the NTT table set and the coefficient-form
// mod_down) and a test-local copy of each key part's active limbs, so
// the key switch's in-place key read is checked against an independent
// slicing. Both are compared at every level, for N ∈ {2^8, 2^10},
// d_num ∈ {1, 2, 3}, at 1 and 4 threads, and the key switch's words
// at the host's ISA level must equal its words at the portable level,
// where the NTT and BConv run their scalar loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ckks/context.h"
#include "ckks/evaluator.h"
#include "ckks/hoisting.h"
#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "ckks/ks_precomp.h"
#include "common/isa.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace neo::ckks {
namespace {

constexpr size_t kLevels = 6;
const std::vector<i64> kSteps = {1, 3, 6};

std::vector<u64>
words(const RnsPoly &p)
{
    return {p.data(), p.data() + p.limbs() * p.n()};
}

/// Append @p p's words to @p out.
void
append(std::vector<u64> &out, const RnsPoly &p)
{
    out.insert(out.end(), p.data(), p.data() + p.limbs() * p.n());
}

RnsPoly
random_poly(const std::vector<Modulus> &mods, size_t n, PolyForm form,
            Rng &rng)
{
    RnsPoly p(n, mods, form);
    for (size_t i = 0; i < p.limbs(); ++i)
        for (size_t l = 0; l < n; ++l)
            p.limb(i)[l] = rng.uniform(p.modulus(i).value());
    return p;
}

// ---- Coefficient-domain references -----------------------------------

/// Hybrid ModUp of every digit: BConv the digit's coefficient limbs to
/// the other primes, assemble the digit over q_0..q_l, P in
/// coefficient form and NTT all of its limbs.
std::vector<RnsPoly>
reference_mod_up(const RnsPoly &d2, const CkksContext &ctx)
{
    const size_t n = d2.n();
    const size_t level = d2.limbs() - 1;
    const auto &lv = ctx.precomp().level(level);
    RnsPoly d2c = d2;
    ctx.tables().to_coeff(d2c);
    std::vector<RnsPoly> raised;
    for (size_t j = 0; j < lv.groups.size(); ++j) {
        const auto &g = lv.groups[j];
        std::vector<u64> converted((lv.extended.size() - g.count) * n);
        lv.digits[j].to_other->convert_approx(d2c.limb(g.first), n,
                                              converted.data());
        RnsPoly up(n, lv.extended, PolyForm::coeff);
        size_t other = 0;
        for (size_t t = 0; t < lv.extended.size(); ++t) {
            const bool own = t >= g.first && t < g.first + g.count;
            const u64 *src =
                own ? d2c.limb(t) : converted.data() + other++ * n;
            std::copy(src, src + n, up.limb(t));
        }
        ctx.tables().to_eval(up);
        raised.push_back(std::move(up));
    }
    return raised;
}

/// Copy the limbs active at @p level (q_0..q_l, then P) out of a key
/// part stored over q_0..q_L, then P.
RnsPoly
slice_key_part(const RnsPoly &full, size_t level, const CkksContext &ctx)
{
    const size_t n = full.n();
    const auto &ext_mods = ctx.precomp().level(level).extended;
    RnsPoly out(n, ext_mods, PolyForm::eval);
    for (size_t i = 0; i <= level; ++i)
        std::copy(full.limb(i), full.limb(i) + n, out.limb(i));
    for (size_t k = 0; k < ctx.p_basis().size(); ++k)
        std::copy(full.limb(ctx.max_level() + 1 + k),
                  full.limb(ctx.max_level() + 1 + k) + n,
                  out.limb(level + 1 + k));
    return out;
}

/// Inner product with @p evk's parts sliced to @p level, INTT of every
/// limb of both accumulators, coefficient-form mod_down, NTT of the
/// results.
std::pair<RnsPoly, RnsPoly>
reference_ip_mod_down(const std::vector<RnsPoly> &raised,
                      const EvalKey &evk, size_t level,
                      const CkksContext &ctx)
{
    const auto &lv = ctx.precomp().level(level);
    RnsPoly acc0(ctx.n(), lv.extended, PolyForm::eval);
    RnsPoly acc1(ctx.n(), lv.extended, PolyForm::eval);
    for (size_t j = 0; j < raised.size(); ++j) {
        acc0.add_product(raised[j],
                         slice_key_part(evk.parts[j][0], level, ctx));
        acc1.add_product(raised[j],
                         slice_key_part(evk.parts[j][1], level, ctx));
    }
    ctx.tables().to_coeff(acc0);
    ctx.tables().to_coeff(acc1);
    RnsPoly k0 = mod_down(acc0, level, ctx);
    RnsPoly k1 = mod_down(acc1, level, ctx);
    ctx.tables().to_eval(k0);
    ctx.tables().to_eval(k1);
    return {std::move(k0), std::move(k1)};
}

/// Rescale by the last prime in the coefficient domain: INTT every
/// limb, subtract the centered lift of the dropped limb, multiply by
/// q_l⁻¹, NTT every remaining limb.
Ciphertext
reference_rescale(const Ciphertext &a, const CkksContext &ctx)
{
    const size_t level = a.level;
    const u64 ql = ctx.q_basis()[level].value();
    const auto mods = ctx.active_mods(level - 1);
    Ciphertext out = a;
    for (RnsPoly *c : {&out.c0, &out.c1}) {
        ctx.tables().to_coeff(*c);
        RnsPoly next(ctx.n(), mods, PolyForm::coeff);
        const u64 *last = c->limb(level);
        for (size_t i = 0; i < level; ++i) {
            const u64 q = mods[i].value();
            const u64 ql_inv = mods[i].inv(ql % q);
            for (size_t l = 0; l < ctx.n(); ++l) {
                const u64 lifted = last[l] > ql / 2
                                       ? sub_mod(last[l] % q, ql % q, q)
                                       : last[l] % q;
                next.limb(i)[l] =
                    mods[i].mul(sub_mod(c->limb(i)[l], lifted, q), ql_inv);
            }
        }
        ctx.tables().to_eval(next);
        *c = std::move(next);
    }
    out.level -= 1;
    out.scale /= static_cast<double>(ql);
    return out;
}

// ---- Fixture ---------------------------------------------------------

struct Config
{
    std::unique_ptr<CkksContext> ctx;
    EvalKey rlk;
    GaloisKeys gk;
    std::string name;
};

class EvalDomain : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        configs_ = new std::vector<Config>;
        for (size_t n : {size_t{1} << 8, size_t{1} << 10}) {
            for (size_t d_num : {1u, 2u, 3u}) {
                Config c;
                c.ctx = std::make_unique<CkksContext>(
                    CkksParams::test_params(n, kLevels, d_num));
                KeyGenerator keygen(*c.ctx, 50 + d_num);
                const SecretKey sk = keygen.secret_key();
                c.rlk = keygen.relin_key(sk);
                c.gk = keygen.galois_keys(sk, kSteps);
                c.name = "n=" + std::to_string(n) +
                         " d_num=" + std::to_string(d_num);
                configs_->push_back(std::move(c));
            }
        }
    }

    static void
    TearDownTestSuite()
    {
        delete configs_;
        ThreadPool::set_global_threads(0);
    }

    /// Run @p body(config, out) once per configuration and thread
    /// count at the portable ISA level and once at the host's level;
    /// the words it appends to out must agree.
    template <class Body>
    static void
    for_each_config(const Body &body)
    {
        for (size_t threads : {1u, 4u}) {
            ThreadPool::set_global_threads(threads);
            for (const Config &c : *configs_) {
                SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
                std::vector<u64> portable, host;
                const Isa prev = force_isa_for_testing(Isa::portable);
                body(c, portable);
                force_isa_for_testing(prev);
                body(c, host);
                EXPECT_TRUE(host == portable) << isa_name(prev);
            }
        }
        ThreadPool::set_global_threads(0);
    }

    static std::vector<Config> *configs_;
};

std::vector<Config> *EvalDomain::configs_ = nullptr;

TEST_F(EvalDomain, HybridKeySwitchMatchesCoefficientDomainReference)
{
    for_each_config([](const Config &c, std::vector<u64> &out) {
        const CkksContext &ctx = *c.ctx;
        Rng rng(7);
        for (size_t level = 0; level <= kLevels; ++level) {
            SCOPED_TRACE(level);
            const RnsPoly d2 =
                random_poly(ctx.active_mods(level), ctx.n(), PolyForm::eval,
                            rng);
            const auto got = keyswitch_hybrid(d2, c.rlk, ctx);
            const auto want = reference_ip_mod_down(
                reference_mod_up(d2, ctx), c.rlk, level, ctx);
            ASSERT_EQ(got.first.form(), PolyForm::eval);
            ASSERT_EQ(got.second.form(), PolyForm::eval);
            EXPECT_EQ(words(got.first), words(want.first));
            EXPECT_EQ(words(got.second), words(want.second));
            append(out, got.first);
            append(out, got.second);
        }
    });
}

TEST_F(EvalDomain, HoistedRotationsMatchCoefficientDomainReference)
{
    for_each_config([](const Config &c, std::vector<u64> &out) {
        const CkksContext &ctx = *c.ctx;
        Rng rng(8);
        for (size_t level = 0; level <= kLevels; ++level) {
            SCOPED_TRACE(level);
            const auto mods = ctx.active_mods(level);
            const Ciphertext ct{
                random_poly(mods, ctx.n(), PolyForm::eval, rng),
                random_poly(mods, ctx.n(), PolyForm::eval, rng), level,
                1.0};
            const auto got = rotate_hoisted(ct, kSteps, c.gk, ctx);
            ASSERT_EQ(got.size(), kSteps.size());
            const auto raised = reference_mod_up(ct.c1, ctx);
            for (size_t s = 0; s < kSteps.size(); ++s) {
                const u64 g = ctx.encoder().galois_element(kSteps[s]);
                std::vector<RnsPoly> moved;
                for (const RnsPoly &up : raised)
                    moved.push_back(automorphism(up, g));
                auto [k0, k1] = reference_ip_mod_down(
                    moved, c.gk.hybrid.at(g), level, ctx);
                k0.add_inplace(automorphism(ct.c0, g));
                EXPECT_EQ(words(got[s].c0), words(k0)) << kSteps[s];
                EXPECT_EQ(words(got[s].c1), words(k1)) << kSteps[s];
                append(out, got[s].c0);
                append(out, got[s].c1);
            }
        }
    });
}

TEST_F(EvalDomain, RescaleAndDoubleRescaleMatchCoefficientDomainReference)
{
    for_each_config([](const Config &c, std::vector<u64> &out) {
        const CkksContext &ctx = *c.ctx;
        const Evaluator ev(ctx);
        Rng rng(9);
        for (size_t level = 1; level <= kLevels; ++level) {
            SCOPED_TRACE(level);
            const auto mods = ctx.active_mods(level);
            const Ciphertext ct{
                random_poly(mods, ctx.n(), PolyForm::eval, rng),
                random_poly(mods, ctx.n(), PolyForm::eval, rng), level,
                std::ldexp(1.0, 60)};
            const Ciphertext want = reference_rescale(ct, ctx);
            const Ciphertext got = ev.rescale(ct);
            EXPECT_EQ(got.level, want.level);
            EXPECT_EQ(got.scale, want.scale);
            EXPECT_EQ(got.c0.form(), PolyForm::eval);
            EXPECT_EQ(words(got.c0), words(want.c0));
            EXPECT_EQ(words(got.c1), words(want.c1));
            append(out, got.c0);
            append(out, got.c1);
            if (level < 2)
                continue;
            const Ciphertext want2 = reference_rescale(want, ctx);
            const Ciphertext got2 = ev.double_rescale(ct);
            EXPECT_EQ(got2.level, want2.level);
            EXPECT_EQ(got2.scale, want2.scale);
            EXPECT_EQ(words(got2.c0), words(want2.c0));
            EXPECT_EQ(words(got2.c1), words(want2.c1));
            append(out, got2.c0);
            append(out, got2.c1);
        }
    });
}

TEST_F(EvalDomain, ModDownOfEvalFormIsNttOfCoeffForm)
{
    // mod_down on an eval-form accumulator equals NTT(mod_down(INTT)),
    // fused or not and on 1 or 2 devices, and counts the same BConv,
    // fusion and ModDown work as the coefficient-form call.
    const char *same[] = {"bconv.converts",   "bconv.products",
                          "fuse.moddown_fix", "pass.moddown_fix",
                          "ks.moddown_products", "ks.moddown.shards"};
    for_each_config([&](const Config &c, std::vector<u64> &out) {
        const CkksContext &ctx = *c.ctx;
        Rng rng(10);
        for (size_t level = 0; level <= kLevels; ++level) {
            const RnsPoly acc = random_poly(ctx.extended_mods(level), ctx.n(),
                                            PolyForm::eval, rng);
            RnsPoly acc_c = acc;
            ctx.tables().to_coeff(acc_c);
            for (bool fuse : {false, true}) {
                for (size_t devices : {1u, 2u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "level=" << level << " fuse=" << fuse
                                 << " devices=" << devices);
                    obs::Scope eval_scope;
                    const RnsPoly got =
                        mod_down(acc, level, ctx, fuse, devices);
                    obs::Scope coeff_scope;
                    RnsPoly want = mod_down(acc_c, level, ctx, fuse, devices);
                    ASSERT_EQ(got.form(), PolyForm::eval);
                    ASSERT_EQ(want.form(), PolyForm::coeff);
                    ctx.tables().to_eval(want);
                    EXPECT_EQ(words(got), words(want));
                    append(out, got);
                    for (const char *name : same)
                        EXPECT_EQ(eval_scope.counter(name),
                                  coeff_scope.counter(name))
                            << name;
                    EXPECT_EQ(eval_scope.counter("ks.intt_limbs"),
                              ctx.p_basis().size());
                    EXPECT_EQ(eval_scope.counter("ks.ntt_limbs"), level + 1);
                    EXPECT_EQ(coeff_scope.counter("ks.intt_limbs"), 0u);
                    EXPECT_EQ(coeff_scope.counter("ks.ntt_limbs"), 0u);
                }
            }
        }
    });
}

} // namespace
} // namespace neo::ckks
