#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/noise.h"
#include "ckks/serialize.h"
#include "common/random.h"

namespace neo::ckks {
namespace {

struct SnFixture : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        params_ = new CkksParams(CkksParams::test_params(128, 5, 2));
        ctx_ = new CkksContext(*params_);
        keygen_ = new KeyGenerator(*ctx_, 41);
        sk_ = new SecretKey(keygen_->secret_key());
        pk_ = new PublicKey(keygen_->public_key(*sk_));
        rlk_ = new EvalKey(keygen_->relin_key(*sk_));
    }

    static void
    TearDownTestSuite()
    {
        delete rlk_;
        delete pk_;
        delete sk_;
        delete keygen_;
        delete ctx_;
        delete params_;
    }

    static std::vector<Complex>
    slots(u64 seed)
    {
        Rng rng(seed);
        std::vector<Complex> z(ctx_->encoder().slot_count());
        for (auto &x : z)
            x = Complex(2 * rng.uniform_real() - 1, 0);
        return z;
    }

    static CkksParams *params_;
    static CkksContext *ctx_;
    static KeyGenerator *keygen_;
    static SecretKey *sk_;
    static PublicKey *pk_;
    static EvalKey *rlk_;
};

CkksParams *SnFixture::params_ = nullptr;
CkksContext *SnFixture::ctx_ = nullptr;
KeyGenerator *SnFixture::keygen_ = nullptr;
SecretKey *SnFixture::sk_ = nullptr;
PublicKey *SnFixture::pk_ = nullptr;
EvalKey *SnFixture::rlk_ = nullptr;

TEST_F(SnFixture, PolyRoundTrip)
{
    Rng rng(1);
    RnsPoly p(ctx_->n(), ctx_->active_mods(3), PolyForm::eval);
    for (size_t i = 0; i < p.limbs(); ++i)
        for (size_t l = 0; l < p.n(); ++l)
            p.limb(i)[l] = rng.uniform(p.modulus(i).value());

    std::stringstream ss;
    save(ss, p);
    RnsPoly q = load_poly(ss);
    EXPECT_TRUE(q.same_shape(p));
    EXPECT_EQ(q.form(), p.form());
    EXPECT_TRUE(std::equal(p.data(), p.data() + p.limbs() * p.n(),
                           q.data()));
    EXPECT_NO_THROW(validate_against(*ctx_, q));
}

TEST_F(SnFixture, CiphertextRoundTripStillDecrypts)
{
    Encryptor enc(*ctx_);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    auto z = slots(2);
    Ciphertext ct = enc.encrypt(ctx_->encode(z, 5), *pk_);

    std::stringstream ss;
    save(ss, ct);
    Ciphertext back = load_ciphertext(ss);
    EXPECT_EQ(back.level, ct.level);
    EXPECT_DOUBLE_EQ(back.scale, ct.scale);
    auto got = dec.decrypt_decode(back);
    for (size_t i = 0; i < z.size(); ++i)
        EXPECT_LT(std::abs(got[i] - z[i]), 1e-5);
}

TEST_F(SnFixture, KeysRoundTripAndStillRelinearize)
{
    std::stringstream ks, es;
    save(ks, *sk_);
    save(es, *rlk_);
    SecretKey sk2 = load_secret_key(ks);
    EvalKeyBundle keys2;
    keys2.rlk = load_eval_key(es);
    EXPECT_EQ(sk2.coeffs, sk_->coeffs);

    Encryptor enc(*ctx_);
    Decryptor dec(*ctx_, sk2, *keygen_);
    Evaluator ev(*ctx_);
    auto a = slots(3);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    auto prod = ev.rescale(ev.mul(ca, ca, keys2));
    auto got = dec.decrypt_decode(prod);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(got[i] - a[i] * a[i]), 1e-4);
}

TEST_F(SnFixture, TamperedStreamsRejected)
{
    std::stringstream ss;
    save(ss, *sk_);
    std::string raw = ss.str();
    // Flip a secret coefficient to an out-of-range value.
    raw[raw.size() - 3] = 0x7f;
    std::stringstream bad(raw);
    EXPECT_THROW(load_secret_key(bad), std::invalid_argument);

    std::stringstream truncated(raw.substr(0, 16));
    EXPECT_THROW(load_secret_key(truncated), std::invalid_argument);

    std::stringstream wrong_magic(std::string("XXXX") + raw.substr(4));
    EXPECT_THROW(load_secret_key(wrong_magic), std::invalid_argument);

    // What the types forbid: a ciphertext in coefficient form or at an
    // infinite scale, a secret key whose degree is not a power of two,
    // a polynomial form byte other than 0 (coeff) and 1 (eval).
    Encryptor enc(*ctx_);
    const Ciphertext ct = enc.encrypt(ctx_->encode(slots(9), 2), *pk_);
    const auto rejected = [](const auto &obj, auto load) {
        std::stringstream ss;
        save(ss, obj);
        EXPECT_THROW(load(ss), std::invalid_argument);
    };
    Ciphertext coeff = ct;
    ctx_->tables().to_coeff(coeff.c0);
    ctx_->tables().to_coeff(coeff.c1);
    rejected(coeff, load_ciphertext);
    Ciphertext inf = ct;
    inf.scale = std::numeric_limits<double>::infinity();
    rejected(inf, load_ciphertext);
    SecretKey five;
    five.coeffs = {1, 0, -1, 0, 1};
    rejected(five, load_secret_key);

    std::stringstream ps;
    save(ps, ct.c0);
    std::string form2 = ps.str();
    ASSERT_EQ(form2[24], 1); // magic, version, n, limbs, then the form
    form2[24] = 2;
    std::stringstream bad_form(form2);
    EXPECT_THROW(load_poly(bad_form), std::invalid_argument);
}

/// Every strict prefix of @p raw fails to load with
/// std::invalid_argument, and every single-bit flip of it either fails
/// so or loads an object that saves back to exactly the bytes it read.
/// Those are all the flipped bytes, or a prefix of them when a count
/// dropped: limbs 3 → 1 reads a valid one-limb polynomial, and a stream
/// loader cannot tell the rest from the next object's bytes.
template <class Load>
void
expect_strict_loader(const std::string &raw, Load load)
{
    for (size_t len = 0; len < raw.size(); ++len) {
        std::stringstream ss(raw.substr(0, len));
        EXPECT_THROW(load(ss), std::invalid_argument) << "prefix " << len;
    }
    for (size_t bit = 0; bit < 8 * raw.size(); ++bit) {
        std::string flipped = raw;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        std::stringstream in(flipped);
        try {
            const auto obj = load(in);
            std::stringstream out;
            save(out, obj);
            const std::string back = out.str();
            EXPECT_EQ(static_cast<size_t>(in.tellg()), back.size())
                << "bit " << bit;
            EXPECT_TRUE(flipped.compare(0, back.size(), back) == 0)
                << "bit " << bit << " loads but saves other bytes";
        } catch (const std::invalid_argument &) {
        }
    }
}

TEST_F(SnFixture, LoadersRejectEveryPrefixAndSurviveEveryBitFlip)
{
    Encryptor enc(*ctx_);
    const Ciphertext ct = enc.encrypt(ctx_->encode(slots(10), 2), *pk_);
    // A relinearization key cut to two digits over three limbs.
    EvalKey evk;
    for (size_t j = 0; j < 2; ++j) {
        std::array<RnsPoly, 2> part = rlk_->parts[j];
        for (RnsPoly &p : part)
            p.drop_limbs_to(3);
        evk.parts.push_back(std::move(part));
    }
    const auto saved = [](const auto &obj) {
        std::stringstream ss;
        save(ss, obj);
        return ss.str();
    };
    {
        SCOPED_TRACE("load_poly");
        expect_strict_loader(saved(ct.c0), load_poly);
    }
    {
        SCOPED_TRACE("load_ciphertext");
        expect_strict_loader(saved(ct), load_ciphertext);
    }
    {
        SCOPED_TRACE("load_secret_key");
        expect_strict_loader(saved(*sk_), load_secret_key);
    }
    {
        SCOPED_TRACE("load_eval_key");
        expect_strict_loader(saved(evk), load_eval_key);
    }
}

TEST_F(SnFixture, OversizedPolyHeaderFailsTruncatedWithoutAllocating)
{
    // A ~32 KB stream whose header claims n = 2^20 and 4096 limbs, with
    // 4096 valid moduli and no payload: the header alone asks for
    // 32 GiB. The loader must fail on the missing data, having
    // allocated no more than the stream could have filled.
    std::string raw;
    const auto put = [&raw](auto v) {
        raw.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    put(u32{0x4e504f4c}); // "NPOL"
    put(u32{1});          // version
    put(u64{1} << 20);    // n
    put(u64{4096});       // limbs
    put(u8{1});           // eval form
    for (int i = 0; i < 4096; ++i)
        put(ctx_->q_basis()[0].value());
    ASSERT_LT(raw.size(), 33u * 1024);
    std::stringstream ss(raw);
    try {
        (void)load_poly(ss);
        FAIL() << "oversized header accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(SnFixture, ValidateAgainstRejectsForeignModuli)
{
    std::vector<Modulus> fake = {Modulus(1000003),
                                 Modulus(1000033)};
    RnsPoly alien(ctx_->n(), fake);
    EXPECT_THROW(validate_against(*ctx_, alien), std::invalid_argument);
}

TEST_F(SnFixture, FreshCiphertextNoiseIsSmall)
{
    Encryptor enc(*ctx_);
    NoiseInspector probe(*ctx_, *sk_, *keygen_);
    auto z = slots(4);
    Ciphertext ct = enc.encrypt(ctx_->encode(z, 5), *pk_);
    // Fresh public-key noise: a few bits above the error width.
    double bits = probe.noise_bits(ct, z);
    EXPECT_LT(bits, 20.0);
    EXPECT_GT(probe.budget_bits(ct, z), 100.0);
}

TEST_F(SnFixture, NoiseGrowsThroughMultiplication)
{
    Encryptor enc(*ctx_);
    Evaluator ev(*ctx_);
    NoiseInspector probe(*ctx_, *sk_, *keygen_);
    auto a = slots(5);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    double fresh = probe.noise_bits(ca, a);

    std::vector<Complex> sq(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        sq[i] = a[i] * a[i];
    EvalKeyBundle keys;
    keys.rlk = *rlk_;
    auto prod = ev.mul(ca, ca, keys);
    double after = probe.noise_bits(prod, sq);
    EXPECT_GT(after, fresh);
    // Budget must shrink but stay positive.
    EXPECT_GT(probe.budget_bits(prod, sq), 0.0);
    EXPECT_LT(probe.budget_bits(prod, sq), probe.budget_bits(ca, a));
}

TEST_F(SnFixture, BothKeySwitchMethodsAddComparableNoise)
{
    EvalKeyBundle keys;
    keys.rlk = *rlk_;
    keys.klss_rlk = keygen_->to_klss(*rlk_);
    Encryptor enc(*ctx_);
    NoiseInspector probe(*ctx_, *sk_, *keygen_);
    auto a = slots(6);
    auto ca = enc.encrypt(ctx_->encode(a, 5), *pk_);
    std::vector<Complex> sq(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        sq[i] = a[i] * a[i];

    Evaluator ev_h(*ctx_, KeySwitchMethod::hybrid);
    Evaluator ev_k(*ctx_, KeySwitchMethod::klss);
    double nh = probe.noise_bits(ev_h.mul(ca, ca, keys), sq);
    double nk = probe.noise_bits(ev_k.mul(ca, ca, keys), sq);
    EXPECT_LT(std::abs(nh - nk), 4.0) << "hybrid " << nh << " vs klss "
                                      << nk;
}

TEST_F(SnFixture, SeededCiphertextExpandsAndDecrypts)
{
    Encryptor enc(*ctx_);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    auto z = slots(7);
    SeededCiphertext sct = enc.encrypt_symmetric_seeded(
        ctx_->encode(z, 5), *sk_, *keygen_, /*a_seed=*/0xfeedULL);
    EXPECT_EQ(sct.seed, 0xfeedULL);

    Ciphertext full = enc.expand(sct);
    auto got = dec.decrypt_decode(full);
    for (size_t i = 0; i < z.size(); ++i)
        EXPECT_LT(std::abs(got[i] - z[i]), 1e-5);

    // Expansion is deterministic: c1 identical across expansions.
    Ciphertext again = enc.expand(sct);
    EXPECT_TRUE(std::equal(full.c1.data(),
                           full.c1.data() +
                               full.c1.limbs() * full.c1.n(),
                           again.c1.data()));
}

TEST_F(SnFixture, SeededCiphertextHalvesTheBytes)
{
    Encryptor enc(*ctx_);
    auto z = slots(8);
    SeededCiphertext sct = enc.encrypt_symmetric_seeded(
        ctx_->encode(z, 5), *sk_, *keygen_, 1);
    Ciphertext full = enc.expand(sct);
    const size_t seeded_bytes =
        sct.c0.limbs() * sct.c0.n() * sizeof(u64) + sizeof(u64);
    const size_t full_bytes =
        2 * full.c0.limbs() * full.c0.n() * sizeof(u64);
    EXPECT_LT(seeded_bytes, full_bytes * 0.51);
}

} // namespace
} // namespace neo::ckks
