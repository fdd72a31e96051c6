#include <gtest/gtest.h>

#include <climits>
#include <cmath>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/random.h"
#include "obs/obs.h"
#include "rns/primes.h"

namespace neo::ckks {
namespace {

/// Shared small-parameter fixture (N=256, 36-bit primes, L=5).
class CkksFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        params_ = new CkksParams(CkksParams::test_params(256, 5, 2));
        ctx_ = new CkksContext(*params_);
        keygen_ = new KeyGenerator(*ctx_, 7);
        sk_ = new SecretKey(keygen_->secret_key());
        pk_ = new PublicKey(keygen_->public_key(*sk_));
        keys_ = new EvalKeyBundle(
            keygen_->eval_key_bundle(*sk_, {}, false, /*with_klss=*/true));
    }

    static void
    TearDownTestSuite()
    {
        delete keys_;
        delete pk_;
        delete sk_;
        delete keygen_;
        delete ctx_;
        delete params_;
    }

    static std::vector<Complex>
    random_slots(size_t count, u64 seed)
    {
        Rng rng(seed);
        std::vector<Complex> v(count);
        for (auto &z : v)
            z = Complex(2.0 * rng.uniform_real() - 1.0,
                        2.0 * rng.uniform_real() - 1.0);
        return v;
    }

    static double
    max_error(const std::vector<Complex> &a, const std::vector<Complex> &b)
    {
        double e = 0;
        for (size_t i = 0; i < a.size(); ++i)
            e = std::max(e, std::abs(a[i] - b[i]));
        return e;
    }

    static CkksParams *params_;
    static CkksContext *ctx_;
    static KeyGenerator *keygen_;
    static SecretKey *sk_;
    static PublicKey *pk_;
    static EvalKeyBundle *keys_;
};

CkksParams *CkksFixture::params_ = nullptr;
CkksContext *CkksFixture::ctx_ = nullptr;
KeyGenerator *CkksFixture::keygen_ = nullptr;
SecretKey *CkksFixture::sk_ = nullptr;
PublicKey *CkksFixture::pk_ = nullptr;
EvalKeyBundle *CkksFixture::keys_ = nullptr;

TEST_F(CkksFixture, EncoderRoundTrip)
{
    auto slots = random_slots(ctx_->encoder().slot_count(), 1);
    auto coeffs = ctx_->encoder().encode(slots, 1e9);
    std::vector<double> dc(coeffs.begin(), coeffs.end());
    auto back = ctx_->encoder().decode(dc, 1e9);
    EXPECT_LT(max_error(slots, back), 1e-7);
}

TEST_F(CkksFixture, EncodeDecodePlaintext)
{
    auto slots = random_slots(ctx_->encoder().slot_count(), 2);
    Plaintext pt = ctx_->encode(slots, ctx_->max_level());
    auto back = ctx_->decode(pt);
    EXPECT_LT(max_error(slots, back), 1e-7);
}

TEST_F(CkksFixture, SymmetricEncryptDecrypt)
{
    Encryptor enc(*ctx_, 11);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    auto slots = random_slots(ctx_->encoder().slot_count(), 3);
    auto ct = enc.encrypt_symmetric(ctx_->encode(slots, 5), *sk_, *keygen_);
    auto back = dec.decrypt_decode(ct);
    EXPECT_LT(max_error(slots, back), 1e-6);
}

TEST_F(CkksFixture, PublicEncryptDecrypt)
{
    Encryptor enc(*ctx_, 12);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    auto slots = random_slots(ctx_->encoder().slot_count(), 4);
    auto ct = enc.encrypt(ctx_->encode(slots, 5), *pk_);
    auto back = dec.decrypt_decode(ct);
    EXPECT_LT(max_error(slots, back), 1e-5);
}

TEST_F(CkksFixture, HAddAndHSub)
{
    Encryptor enc(*ctx_, 13);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    auto a = random_slots(ctx_->encoder().slot_count(), 5);
    auto b = random_slots(ctx_->encoder().slot_count(), 6);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    auto cb = enc.encrypt(ctx_->encode(b, 5), *pk_);

    auto sum = dec.decrypt_decode(ev.add(ca, cb));
    auto dif = dec.decrypt_decode(ev.sub(ca, cb));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-5);
        EXPECT_LT(std::abs(dif[i] - (a[i] - b[i])), 1e-5);
    }
}

TEST_F(CkksFixture, PAddAndPMult)
{
    Encryptor enc(*ctx_, 14);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    auto a = random_slots(ctx_->encoder().slot_count(), 7);
    auto m = random_slots(ctx_->encoder().slot_count(), 8);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    Plaintext pm = ctx_->encode(m, 5);

    auto padd = dec.decrypt_decode(ev.add_plain(ca, pm));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(padd[i] - (a[i] + m[i])), 1e-5);

    auto pmul_ct = ev.rescale(ev.mul_plain(ca, pm));
    EXPECT_EQ(pmul_ct.level, 4u);
    auto pmul = dec.decrypt_decode(pmul_ct);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(pmul[i] - a[i] * m[i]), 1e-4);
}

TEST_F(CkksFixture, HMultHybrid)
{
    Encryptor enc(*ctx_, 15);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_, KeySwitchMethod::hybrid);
    auto a = random_slots(ctx_->encoder().slot_count(), 9);
    auto b = random_slots(ctx_->encoder().slot_count(), 10);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    auto cb = enc.encrypt(ctx_->encode(b, 5), *pk_);

    auto prod = ev.rescale(ev.mul(ca, cb, *keys_));
    EXPECT_EQ(prod.level, 4u);
    auto got = dec.decrypt_decode(prod);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(got[i] - a[i] * b[i]), 1e-4) << "slot " << i;
}

TEST_F(CkksFixture, HMultKlss)
{
    Encryptor enc(*ctx_, 16);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_, KeySwitchMethod::klss);
    auto a = random_slots(ctx_->encoder().slot_count(), 11);
    auto b = random_slots(ctx_->encoder().slot_count(), 12);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    auto cb = enc.encrypt(ctx_->encode(b, 5), *pk_);

    auto prod = ev.rescale(ev.mul(ca, cb, *keys_));
    auto got = dec.decrypt_decode(prod);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(got[i] - a[i] * b[i]), 1e-4) << "slot " << i;
}

TEST_F(CkksFixture, HybridAndKlssKeySwitchAgree)
{
    // Both methods switch the same d2 under the same key material;
    // results must agree up to (tiny) BConv noise.
    Encryptor enc(*ctx_, 17);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev_h(*ctx_, KeySwitchMethod::hybrid);
    Evaluator ev_k(*ctx_, KeySwitchMethod::klss);
    auto a = random_slots(ctx_->encoder().slot_count(), 13);
    auto b = random_slots(ctx_->encoder().slot_count(), 14);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    auto cb = enc.encrypt(ctx_->encode(b, 5), *pk_);

    auto ph = dec.decrypt_decode(ev_h.rescale(ev_h.mul(ca, cb, *keys_)));
    auto pk = dec.decrypt_decode(
        ev_k.rescale(ev_k.mul(ca, cb, *keys_)));
    EXPECT_LT(max_error(ph, pk), 1e-5);
}

TEST_F(CkksFixture, MultiplicationDepth)
{
    // ((a*b)*c)*d across three levels, hybrid path.
    Encryptor enc(*ctx_, 18);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    const size_t slots = ctx_->encoder().slot_count();
    auto a = random_slots(slots, 15);
    std::vector<Complex> expected = a;
    auto acc = enc.encrypt(ctx_->encode(a, 5), *pk_);
    for (int d = 0; d < 3; ++d) {
        auto m = random_slots(slots, 20 + d);
        auto cm = enc.encrypt(ctx_->encode(m, acc.level, acc.scale), *pk_);
        acc = ev.rescale(ev.mul(acc, cm, *keys_));
        for (size_t i = 0; i < slots; ++i)
            expected[i] *= m[i];
    }
    EXPECT_EQ(acc.level, 2u);
    auto got = dec.decrypt_decode(acc);
    EXPECT_LT(max_error(got, expected), 5e-3);
}

TEST_F(CkksFixture, DoubleRescaleDropsTwoLevels)
{
    Encryptor enc(*ctx_, 19);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    auto a = random_slots(ctx_->encoder().slot_count(), 16);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    // Square of the scale squared: multiply by an encryption of ones
    // at matching scale twice without rescaling, then DS.
    auto ones = std::vector<Complex>(ctx_->encoder().slot_count(),
                                     Complex(1.0, 0.0));
    auto c1 = enc.encrypt(ctx_->encode(ones, 5), *pk_);
    auto prod = ev.mul(ca, c1, *keys_); // scale = Δ²
    // PMULT against a Δ-scale plaintext of ones reaches Δ³; DS then
    // burns the two levels in one step, as in Bootstrapping.
    auto ds = ev.double_rescale(
        ev.mul_plain(prod, ctx_->encode(ones, prod.level)));
    EXPECT_EQ(ds.level, 3u);
    auto got = dec.decrypt_decode(ds);
    EXPECT_LT(max_error(got, a), 5e-3);
}

TEST_F(CkksFixture, HRotateHybridAndKlss)
{
    Encryptor enc(*ctx_, 20);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    KeyGenerator kg(*ctx_, 7);
    const size_t slots = ctx_->encoder().slot_count();
    auto a = random_slots(slots, 17);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);

    for (i64 steps : {1, 3, 7}) {
        EvalKeyBundle keys;
        keys.galois = keygen_->galois_keys(*sk_, {steps}, false, true);
        std::vector<Complex> expected(slots);
        for (size_t i = 0; i < slots; ++i)
            expected[i] = a[(i + static_cast<size_t>(steps)) % slots];

        Evaluator ev_h(*ctx_, KeySwitchMethod::hybrid);
        auto rh = dec.decrypt_decode(ev_h.rotate(ca, steps, keys));
        EXPECT_LT(max_error(rh, expected), 1e-4) << "hybrid steps=" << steps;

        Evaluator ev_k(*ctx_, KeySwitchMethod::klss);
        auto rk = dec.decrypt_decode(ev_k.rotate(ca, steps, keys));
        EXPECT_LT(max_error(rk, expected), 1e-4) << "klss steps=" << steps;
    }
}

TEST_F(CkksFixture, ConjugateFlipsImaginaryPart)
{
    Encryptor enc(*ctx_, 21);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    auto a = random_slots(ctx_->encoder().slot_count(), 18);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    EvalKeyBundle keys;
    keys.galois = keygen_->galois_keys(*sk_, {}, true);
    auto got = dec.decrypt_decode(ev.conjugate(ca, keys));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(got[i] - std::conj(a[i])), 1e-4);
}

TEST_F(CkksFixture, MulByIIsTheMonomialXToTheHalfN)
{
    // X^{N/2} is i at every slot, so at every level: twice is negate
    // and four times the identity, word for word, and once decrypts to
    // i·z with level, scale and form kept.
    Encryptor enc(*ctx_, 25);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    const auto a = random_slots(ctx_->encoder().slot_count(), 22);
    std::vector<Complex> ia(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        ia[i] = Complex(0, 1) * a[i];
    const auto same_words = [](const Ciphertext &x, const Ciphertext &y) {
        for (const auto &[p, r] : {std::pair{&x.c0, &y.c0}, {&x.c1, &y.c1}})
            if (!p->same_shape(*r) ||
                !std::equal(p->data(), p->data() + p->limbs() * p->n(),
                            r->data()))
                return false;
        return true;
    };
    for (size_t level = 0; level <= ctx_->max_level(); ++level) {
        SCOPED_TRACE(::testing::Message() << "level " << level);
        const Ciphertext ct = enc.encrypt(ctx_->encode(a, level), *pk_);
        obs::Scope scope;
        const Ciphertext once = ev.mul_by_i(ct);
        EXPECT_EQ(scope.counter("op.imult"), 1u);
        EXPECT_EQ(once.level, ct.level);
        EXPECT_EQ(once.scale, ct.scale);
        EXPECT_EQ(once.c0.form(), PolyForm::eval);
        EXPECT_EQ(once.c1.form(), PolyForm::eval);
        EXPECT_LT(max_error(dec.decrypt_decode(once), ia), 1e-5);

        const Ciphertext twice = ev.mul_by_i(once);
        EXPECT_TRUE(same_words(twice, ev.negate(ct)));
        EXPECT_TRUE(same_words(ev.mul_by_i(ev.mul_by_i(twice)), ct));
    }
    Ciphertext coeff = enc.encrypt(ctx_->encode(a, 2), *pk_);
    ctx_->tables().to_coeff(coeff.c0);
    ctx_->tables().to_coeff(coeff.c1);
    EXPECT_THROW(ev.mul_by_i(coeff), std::invalid_argument);
}

TEST_F(CkksFixture, RotationComposition)
{
    // rot(rot(x, 1), 2) == rot(x, 3).
    Encryptor enc(*ctx_, 22);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    auto a = random_slots(ctx_->encoder().slot_count(), 19);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    EvalKeyBundle keys;
    keys.galois = keygen_->galois_keys(*sk_, {1, 2, 3});
    auto r12 = ev.rotate(ev.rotate(ca, 1, keys), 2, keys);
    auto r3 = ev.rotate(ca, 3, keys);
    EXPECT_LT(max_error(dec.decrypt_decode(r12), dec.decrypt_decode(r3)),
              1e-4);
}

TEST_F(CkksFixture, KeySwitchCountersMatchComplexityFormulas)
{
    // Table 2 accounting at the top level, read back from the `ks.*`
    // obs counters an Evaluator-bound Scope accumulates.
    Encryptor enc(*ctx_, 23);
    auto a = random_slots(ctx_->encoder().slot_count(), 20);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    auto cb = enc.encrypt(ctx_->encode(a, 5), *pk_);

    const size_t l = 5;                          // level
    const size_t alpha = params_->alpha();       // 3
    const size_t beta = params_->beta(l);        // 2
    const size_t k_special = alpha;
    const size_t ext = l + 1 + k_special;        // l + 1 + α

    {
        obs::Scope scope;
        Evaluator ev_h(*ctx_, KeySwitchMethod::hybrid);
        (void)ev_h.mul(ca, cb, *keys_);
        // ModUp: each digit converts its α limbs to the other ext-α
        // limbs.
        EXPECT_EQ(scope.counter("ks.bconv_products"),
                  beta * alpha * (ext - alpha));
        // The input's l+1 limbs are INTT'd once; the ModDown INTTs
        // only the K P-limbs of each accumulator, which stay in eval
        // form.
        EXPECT_EQ(scope.counter("ks.intt_limbs"),
                  (l + 1) + 2 * k_special);
        // ModUp NTTs only the converted limbs: each digit's own limbs
        // are reused in eval form, so the β digits NTT β·ext − (l+1).
        // ModDown then NTTs l+1 correction rows per accumulator.
        EXPECT_EQ(scope.counter("ks.ntt_limbs"), beta * ext + (l + 1));
        EXPECT_EQ(scope.counter("ks.ip_mul_limbs"), 2 * beta * ext);
        EXPECT_EQ(scope.counter("ks.moddown_products"),
                  2 * k_special * (l + 1));
        EXPECT_EQ(scope.counter("op.hmult"), 1u);
    }

    {
        obs::Scope scope;
        Evaluator ev_k(*ctx_, KeySwitchMethod::klss);
        (void)ev_k.mul(ca, cb, *keys_);
        const size_t alpha_p = ctx_->alpha_prime();
        const size_t beta_tilde = params_->beta_tilde(l);
        // Mod Up: β digits × α limbs × α' outputs (Table 2: βαα').
        EXPECT_EQ(scope.counter("ks.bconv_products"),
                  beta * alpha * alpha_p);
        // NTT over T: β·α'; plus final 2(l+1) over Q.
        EXPECT_EQ(scope.counter("ks.ntt_limbs"),
                  beta * alpha_p + 2 * (l + 1));
        // IP: 2·β̃·β·α' (Table 2: ββ̃α' per component).
        EXPECT_EQ(scope.counter("ks.ip_mul_limbs"),
                  2 * beta_tilde * beta * alpha_p);
        // Recover Limbs: 2·α'·(l+1+α) (Table 2: 2α'(l+α)).
        EXPECT_EQ(scope.counter("ks.recover_products"),
                  2 * alpha_p * ext);
        EXPECT_EQ(scope.counter("ks.moddown_products"),
                  2 * k_special * (l + 1));
    }
}

TEST_F(CkksFixture, ToKlssTransformsEachKeyPartOnce)
{
    // Each of the 2·β hybrid key parts goes to coefficient form once,
    // over all L+1+K limbs, and each of its β̃ key digits is NTT'd once
    // over the α' limbs of T. Every limb transform closes one ntt span.
    obs::Scope scope;
    const KlssEvalKey klss = keygen_->to_klss(keys_->rlk);
    const u64 beta = keys_->rlk.digit_count();
    const u64 limbs = ctx_->pq_ordered_size();
    const u64 beta_tilde = klss.beta_tilde_max;
    ASSERT_GT(beta_tilde, 1u);
    EXPECT_EQ(scope.counter("span.ntt"),
              2 * beta * (limbs + beta_tilde * ctx_->alpha_prime()));
}

TEST_F(CkksFixture, KlssInnerProductStaysBelowBound)
{
    // Eq. 4 instantiation: the T base must exceed the worst-case IP
    // accumulation. Verified via the parameter computation.
    const double log2_t = ctx_->t_basis().log2_product();
    const double worst =
        std::log2(static_cast<double>(ctx_->n())) +
        std::log2(static_cast<double>(params_->beta(5))) +
        static_cast<double>(params_->alpha() * params_->word_size) +
        static_cast<double>(params_->klss.alpha_tilde *
                            params_->word_size);
    EXPECT_GT(log2_t - 1.0, worst);
}

TEST_F(CkksFixture, ModSwitchPreservesMessage)
{
    Encryptor enc(*ctx_, 24);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    auto a = random_slots(ctx_->encoder().slot_count(), 21);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    auto dropped = ev.mod_switch_to(ca, 2);
    EXPECT_EQ(dropped.level, 2u);
    auto got = dec.decrypt_decode(dropped);
    EXPECT_LT(max_error(got, a), 1e-5);
}

TEST_F(CkksFixture, PolyFromSignedMatchesFromCentered)
{
    // The extended basis (36-bit Q and P primes) plus a 20-bit, a
    // 62-bit and the smallest odd modulus.
    std::vector<Modulus> mods = ctx_->extended_mods(params_->max_level);
    for (int bits : {20, 62})
        mods.emplace_back(generate_ntt_primes(bits, 1, ctx_->n())[0]);
    mods.emplace_back(3);
    std::vector<i64> coeffs = {0, 1, -1, INT64_MIN, INT64_MAX,
                               INT64_MIN + 1};
    for (const Modulus &m : mods) {
        const auto q = static_cast<i64>(m.value());
        for (i64 v : {q - 1, q, q + 1})
            for (i64 sign : {1, -1})
                coeffs.push_back(sign * v);
    }
    ASSERT_LE(coeffs.size(), ctx_->n());
    Rng rng(31);
    while (coeffs.size() < ctx_->n())
        coeffs.push_back(static_cast<i64>(rng.next()));
    const RnsPoly p = ctx_->poly_from_signed(coeffs, mods);
    for (size_t i = 0; i < mods.size(); ++i)
        for (size_t l = 0; l < coeffs.size(); ++l)
            ASSERT_EQ(p.limb(i)[l], from_centered(coeffs[l], mods[i].value()))
                << "x=" << coeffs[l] << " q=" << mods[i].value();
}

TEST_F(CkksFixture, GaloisElementTakesEveryStepCount)
{
    // Steps reduce mod N/2 from an unsigned magnitude, so the ends of
    // the i64 range need no signed negation (the UBSan leg runs this).
    const Encoder &enc = ctx_->encoder();
    EXPECT_EQ(enc.galois_element(INT64_MIN), enc.galois_element(0));
    EXPECT_EQ(enc.galois_element(INT64_MIN + 1), enc.galois_element(1));
    EXPECT_EQ(enc.galois_element(INT64_MAX), enc.galois_element(-1));
}

TEST(CkksParams, AlphaBetaDerivations)
{
    CkksParams p;
    p.n = 1 << 16;
    p.max_level = 35;
    p.word_size = 36;
    p.d_num = 9;
    p.klss.word_size_t = 48;
    p.klss.alpha_tilde = 5;
    EXPECT_EQ(p.alpha(), 4u);
    EXPECT_EQ(p.beta(35), 9u);
    EXPECT_EQ(p.beta_tilde(35), 8u);
    // The paper's default α' for Set-C is 8 (Fig 11).
    EXPECT_EQ(p.klss_alpha_prime(), 8u);
}

TEST(CkksParams, Validation)
{
    CkksParams p = CkksParams::test_params();
    EXPECT_NO_THROW(p.validate());
    p.n = 100;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = CkksParams::test_params();
    p.d_num = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(CkksParams, DeltaDefaultsToWordSize)
{
    CkksParams p = CkksParams::test_params();
    EXPECT_DOUBLE_EQ(p.delta(), std::ldexp(1.0, 35));
    p.scale = 1024.0;
    EXPECT_DOUBLE_EQ(p.delta(), 1024.0);
}

} // namespace
} // namespace neo::ckks
