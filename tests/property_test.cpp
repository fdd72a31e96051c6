/**
 * Property-style parameterized sweeps: the end-to-end CKKS invariants
 * must hold across ring degrees, word sizes, digit counts and both
 * key-switch methods — not just at one hand-picked configuration.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/random.h"
#include "rns/primes.h"
#include "tensor/gemm.h"

namespace neo::ckks {
namespace {

struct SweepParams
{
    size_t n;
    size_t levels;
    size_t d_num;
    int word_size;

    friend std::ostream &
    operator<<(std::ostream &os, const SweepParams &p)
    {
        return os << "n" << p.n << "_L" << p.levels << "_d" << p.d_num
                  << "_w" << p.word_size;
    }
};

class CkksSweep : public ::testing::TestWithParam<SweepParams>
{
};

TEST_P(CkksSweep, FullOperationRoundTripBothKeySwitchMethods)
{
    const auto sp = GetParam();
    CkksParams params;
    params.name = "sweep";
    params.n = sp.n;
    params.max_level = sp.levels;
    params.word_size = sp.word_size;
    params.d_num = sp.d_num;
    params.klss.word_size_t = 48;
    params.klss.alpha_tilde = 2;
    params.batch = 1;
    params.validate();
    CkksContext ctx(params);

    KeyGenerator keygen(ctx, sp.n + sp.d_num);
    SecretKey sk = keygen.secret_key();
    PublicKey pk = keygen.public_key(sk);
    EvalKeyBundle keys =
        keygen.eval_key_bundle(sk, {1}, false, /*with_klss=*/true);
    Encryptor enc(ctx, 2);
    Decryptor dec(ctx, sk, keygen);

    Rng rng(sp.n);
    const size_t slots = ctx.encoder().slot_count();
    std::vector<Complex> a(slots), b(slots);
    for (size_t i = 0; i < slots; ++i) {
        a[i] = Complex(2 * rng.uniform_real() - 1, 0);
        b[i] = Complex(2 * rng.uniform_real() - 1, 0);
    }
    const size_t top = ctx.max_level();
    auto ca = enc.encrypt(ctx.encode(a, top), pk);
    auto cb = enc.encrypt(ctx.encode(b, top), pk);

    for (auto method : {KeySwitchMethod::hybrid, KeySwitchMethod::klss}) {
        Evaluator ev(ctx, method);
        auto prod = ev.rescale(ev.mul(ca, cb, keys));
        auto rot = ev.rotate(ca, 1, keys);
        auto pm = dec.decrypt_decode(prod);
        auto rm = dec.decrypt_decode(rot);
        for (size_t i = 0; i < slots; ++i) {
            EXPECT_LT(std::abs(pm[i] - a[i] * b[i]), 1e-3)
                << "mul slot " << i;
            EXPECT_LT(std::abs(rm[i] - a[(i + 1) % slots]), 1e-3)
                << "rot slot " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CkksSweep,
    ::testing::Values(SweepParams{64, 3, 1, 36},
                      SweepParams{64, 4, 2, 36},
                      SweepParams{128, 5, 3, 36},
                      SweepParams{256, 5, 2, 40},
                      SweepParams{64, 3, 2, 48},
                      SweepParams{128, 6, 6, 36},
                      SweepParams{64, 4, 4, 36}),
    [](const auto &info) {
        std::ostringstream os;
        os << info.param;
        return os.str();
    });

// KLSS hyperparameter sweep: the method stays correct for every
// (α̃, WordSize_T) combination, with α' adapting to keep the inner
// product exact (Eq. 4).
struct KlssSweepParams
{
    size_t alpha_tilde;
    int word_size_t;

    friend std::ostream &
    operator<<(std::ostream &os, const KlssSweepParams &p)
    {
        return os << "at" << p.alpha_tilde << "_wst" << p.word_size_t;
    }
};

class KlssSweep : public ::testing::TestWithParam<KlssSweepParams>
{
};

TEST_P(KlssSweep, KeySwitchCorrectAcrossHyperparameters)
{
    const auto sp = GetParam();
    CkksParams params = CkksParams::test_params(64, 5, 2);
    params.klss.alpha_tilde = sp.alpha_tilde;
    params.klss.word_size_t = sp.word_size_t;
    params.validate();
    CkksContext ctx(params);
    // T must exceed the worst-case accumulation (Eq. 4 instantiated).
    const double worst =
        std::log2(static_cast<double>(params.n)) +
        std::log2(static_cast<double>(params.beta(5))) +
        static_cast<double>(params.alpha() * params.word_size) +
        static_cast<double>(sp.alpha_tilde * params.word_size);
    EXPECT_GT(ctx.t_basis().log2_product() - 1.0, worst);

    KeyGenerator keygen(ctx, 50 + sp.alpha_tilde);
    SecretKey sk = keygen.secret_key();
    PublicKey pk = keygen.public_key(sk);
    EvalKeyBundle keys =
        keygen.eval_key_bundle(sk, {}, false, /*with_klss=*/true);
    Encryptor enc(ctx, 4);
    Decryptor dec(ctx, sk, keygen);
    Evaluator ev(ctx, KeySwitchMethod::klss);

    Rng rng(sp.alpha_tilde * 100 + sp.word_size_t);
    std::vector<Complex> a(ctx.encoder().slot_count());
    for (auto &x : a)
        x = Complex(2 * rng.uniform_real() - 1, 0);
    auto ca = enc.encrypt(ctx.encode(a, 5), pk);
    auto got = dec.decrypt_decode(ev.rescale(ev.mul(ca, ca, keys)));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(got[i] - a[i] * a[i]), 1e-3) << "slot " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KlssSweep,
    ::testing::Values(KlssSweepParams{1, 48}, KlssSweepParams{2, 48},
                      KlssSweepParams{3, 48}, KlssSweepParams{2, 36},
                      KlssSweepParams{2, 60}, KlssSweepParams{4, 42}),
    [](const auto &info) {
        std::ostringstream os;
        os << info.param;
        return os.str();
    });

// ---------------------------------------------------------------------
// Randomized differential test: the scalar and FP64-TCU GEMM engines
// must agree element-for-element on randomly drawn (N, level, dnum)
// configurations — engine parity is enforced across the whole
// parameter space, not only at the paper's operating points. The seed
// is fixed so failures replay.
// ---------------------------------------------------------------------

TEST(GemmEngineDifferential, RandomConfigsScalarVsFp64TcuBitExact)
{
    Rng rng(0xD1FFE7EA);
    constexpr int kConfigs = 56; // ≥ 50 random configurations
    for (int cfg = 0; cfg < kConfigs; ++cfg) {
        // Draw a KLSS-shaped GEMM: N coefficients per limb, a digit of
        // alpha = ceil((level+1)/dnum) source limbs (the GEMM K
        // dimension), alpha' output limbs (the N dimension).
        const size_t n = 1ull << (4 + rng.uniform(5)); // 16..256
        const size_t level = 1 + rng.uniform(8);       // 1..8
        const size_t dnum = 1 + rng.uniform(4);        // 1..4
        const size_t alpha = (level + 1 + dnum - 1) / dnum;
        const size_t alpha_p = alpha + 1 + rng.uniform(3);
        const int wa = 30 + static_cast<int>(rng.uniform(11)); // 30..40
        const int wb = 36 + static_cast<int>(rng.uniform(13)); // 36..48
        SCOPED_TRACE(::testing::Message()
                     << "cfg=" << cfg << " N=" << n << " level=" << level
                     << " dnum=" << dnum << " alpha=" << alpha
                     << " alpha'=" << alpha_p << " wa=" << wa
                     << " wb=" << wb);

        // Same-modulus engine pair (the NTT/IP GEMM path).
        {
            Modulus q(generate_ntt_primes(wb, 1, 1 << 10)[0]);
            auto a = rng.uniform_vec(n * alpha, q.value());
            auto b = rng.uniform_vec(alpha * alpha_p, q.value());
            std::vector<u64> want(n * alpha_p), got(n * alpha_p);
            gemm(EngineId::scalar, a.data(), b.data(), want.data(),
                 {1, n, alpha_p, alpha}, ModulusMap::of(q));
            gemm(EngineId::fp64_tcu, a.data(), b.data(), got.data(),
                 {1, n, alpha_p, alpha}, ModulusMap::of(q));
            ASSERT_EQ(got, want);
        }

        // Per-column engine pair (the BConv GEMM path): source limbs
        // of wa-bit primes against alpha' distinct wb-bit column
        // moduli.
        {
            auto src = generate_ntt_primes(wa, alpha, 1 << 10);
            auto dst = generate_ntt_primes(wb, alpha_p, 1 << 10);
            std::vector<Modulus> col_mods(dst.begin(), dst.end());
            std::vector<u64> a(n * alpha), b(alpha * alpha_p);
            for (size_t i = 0; i < n; ++i)
                for (size_t t = 0; t < alpha; ++t)
                    a[i * alpha + t] = rng.uniform(src[t]);
            for (size_t t = 0; t < alpha; ++t)
                for (size_t j = 0; j < alpha_p; ++j)
                    b[t * alpha_p + j] = rng.uniform(dst[j]);
            std::vector<u64> want(n * alpha_p), got(n * alpha_p);
            gemm(EngineId::scalar, a.data(), b.data(), want.data(),
                 {1, n, alpha_p, alpha}, ModulusMap::columns(col_mods));
            gemm(EngineId::fp64_tcu, a.data(), b.data(), got.data(),
                 {1, n, alpha_p, alpha}, ModulusMap::columns(col_mods));
            ASSERT_EQ(got, want);
        }
    }
}

// ---------------------------------------------------------------------
// Homomorphism properties as algebraic laws.
// ---------------------------------------------------------------------

class CkksLaws : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        params = CkksParams::test_params(128, 5, 2);
        ctx = std::make_unique<CkksContext>(params);
        keygen = std::make_unique<KeyGenerator>(*ctx, 77);
        sk = keygen->secret_key();
        pk = keygen->public_key(sk);
        keys.rlk = keygen->relin_key(sk);
        enc = std::make_unique<Encryptor>(*ctx, 3);
        dec = std::make_unique<Decryptor>(*ctx, sk, *keygen);
        ev = std::make_unique<Evaluator>(*ctx);
        Rng rng(8);
        x.resize(ctx->encoder().slot_count());
        y.resize(x.size());
        w.resize(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            x[i] = Complex(2 * rng.uniform_real() - 1, 0);
            y[i] = Complex(2 * rng.uniform_real() - 1, 0);
            w[i] = Complex(2 * rng.uniform_real() - 1, 0);
        }
        cx = enc->encrypt(ctx->encode(x, 5), pk);
        cy = enc->encrypt(ctx->encode(y, 5), pk);
        cw = enc->encrypt(ctx->encode(w, 5), pk);
    }

    double
    err(const Ciphertext &ct, const std::vector<Complex> &want)
    {
        auto got = dec->decrypt_decode(ct);
        double e = 0;
        for (size_t i = 0; i < want.size(); ++i)
            e = std::max(e, std::abs(got[i] - want[i]));
        return e;
    }

    CkksParams params;
    std::unique_ptr<CkksContext> ctx;
    std::unique_ptr<KeyGenerator> keygen;
    SecretKey sk;
    PublicKey pk;
    EvalKeyBundle keys;
    std::unique_ptr<Encryptor> enc;
    std::unique_ptr<Decryptor> dec;
    std::unique_ptr<Evaluator> ev;
    std::vector<Complex> x, y, w;
    Ciphertext cx, cy, cw;
};

TEST_F(CkksLaws, AdditionCommutesAndAssociates)
{
    std::vector<Complex> want(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        want[i] = x[i] + y[i] + w[i];
    auto lhs = ev->add(ev->add(cx, cy), cw);
    auto rhs = ev->add(cx, ev->add(cy, cw));
    EXPECT_LT(err(lhs, want), 1e-5);
    EXPECT_LT(err(rhs, want), 1e-5);
}

TEST_F(CkksLaws, MultiplicationCommutes)
{
    std::vector<Complex> want(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        want[i] = x[i] * y[i];
    auto ab = ev->rescale(ev->mul(cx, cy, keys));
    auto ba = ev->rescale(ev->mul(cy, cx, keys));
    EXPECT_LT(err(ab, want), 1e-4);
    EXPECT_LT(err(ba, want), 1e-4);
}

TEST_F(CkksLaws, MultiplicationDistributesOverAddition)
{
    std::vector<Complex> want(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        want[i] = x[i] * (y[i] + w[i]);
    auto lhs = ev->rescale(ev->mul(cx, ev->add(cy, cw), keys));
    auto rhs = ev->add(ev->rescale(ev->mul(cx, cy, keys)),
                       ev->rescale(ev->mul(cx, cw, keys)));
    EXPECT_LT(err(lhs, want), 1e-4);
    EXPECT_LT(err(rhs, want), 1e-4);
}

TEST_F(CkksLaws, SubtractionIsAdditionOfNegation)
{
    std::vector<Complex> want(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        want[i] = x[i] - y[i];
    auto direct = ev->sub(cx, cy);
    auto via_neg = ev->add(cx, ev->negate(cy));
    EXPECT_LT(err(direct, want), 1e-5);
    EXPECT_LT(err(via_neg, want), 1e-5);
}

TEST_F(CkksLaws, RotationIsLinear)
{
    EvalKeyBundle rot_keys;
    rot_keys.galois = keygen->galois_keys(sk, {3});
    std::vector<Complex> want(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        want[i] = x[(i + 3) % x.size()] + y[(i + 3) % x.size()];
    auto rot_sum = ev->rotate(ev->add(cx, cy), 3, rot_keys);
    auto sum_rot = ev->add(ev->rotate(cx, 3, rot_keys),
                           ev->rotate(cy, 3, rot_keys));
    EXPECT_LT(err(rot_sum, want), 1e-4);
    EXPECT_LT(err(sum_rot, want), 1e-4);
}

// ---------------------------------------------------------------------
// Failure injection: the API must reject misuse loudly.
// ---------------------------------------------------------------------

TEST_F(CkksLaws, RejectsMismatchedLevels)
{
    auto dropped = ev->mod_switch_to(cy, 3);
    EXPECT_THROW(ev->add(cx, dropped), std::invalid_argument);
    EXPECT_THROW(ev->mul(cx, dropped, keys), std::invalid_argument);
}

TEST_F(CkksLaws, RejectsRescaleBelowZero)
{
    auto bottom = ev->mod_switch_to(cx, 0);
    EXPECT_THROW(ev->rescale(bottom), std::invalid_argument);
    EXPECT_THROW(ev->double_rescale(ev->mod_switch_to(cx, 1)),
                 std::invalid_argument);
}

TEST_F(CkksLaws, RejectsRotationWithoutKey)
{
    EvalKeyBundle rot_keys;
    rot_keys.galois = keygen->galois_keys(sk, {1});
    EXPECT_THROW(ev->rotate(cx, 2, rot_keys), std::invalid_argument);
}

TEST_F(CkksLaws, RejectsKlssWithoutConfiguration)
{
    CkksParams no_klss = params;
    no_klss.klss.alpha_tilde = 0;
    CkksContext ctx2(no_klss);
    EXPECT_THROW(Evaluator(ctx2, KeySwitchMethod::klss),
                 std::invalid_argument);
}

TEST_F(CkksLaws, RejectsOversizedEncode)
{
    std::vector<Complex> too_many(ctx->encoder().slot_count() + 1);
    EXPECT_THROW(ctx->encode(too_many, 5), std::invalid_argument);
}

} // namespace
} // namespace neo::ckks
