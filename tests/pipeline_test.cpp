#include <gtest/gtest.h>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/hoisting.h"
#include "ckks/keygen.h"
#include "common/random.h"
#include "neo/engine.h"
#include "neo/kernels.h"
#include "neo/pipeline.h"
#include "rns/primes.h"

namespace neo {
namespace {

using namespace ckks;

struct PipelineFixture : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        params_ = new CkksParams(CkksParams::test_params(256, 5, 2));
        ctx_ = new CkksContext(*params_);
        keygen_ = new KeyGenerator(*ctx_, 17);
        sk_ = new SecretKey(keygen_->secret_key());
        rlk_ = new EvalKey(keygen_->relin_key(*sk_));
        klss_rlk_ = new KlssEvalKey(keygen_->to_klss(*rlk_));
    }

    static void
    TearDownTestSuite()
    {
        delete klss_rlk_;
        delete rlk_;
        delete sk_;
        delete keygen_;
        delete ctx_;
        delete params_;
    }

    static RnsPoly
    random_eval_poly(size_t level, u64 seed)
    {
        Rng rng(seed);
        RnsPoly p(ctx_->n(), ctx_->active_mods(level), PolyForm::eval);
        for (size_t i = 0; i < p.limbs(); ++i)
            for (size_t l = 0; l < p.n(); ++l)
                p.limb(i)[l] = rng.uniform(p.modulus(i).value());
        return p;
    }

    static CkksParams *params_;
    static CkksContext *ctx_;
    static KeyGenerator *keygen_;
    static SecretKey *sk_;
    static EvalKey *rlk_;
    static KlssEvalKey *klss_rlk_;
};

CkksParams *PipelineFixture::params_ = nullptr;
CkksContext *PipelineFixture::ctx_ = nullptr;
KeyGenerator *PipelineFixture::keygen_ = nullptr;
SecretKey *PipelineFixture::sk_ = nullptr;
EvalKey *PipelineFixture::rlk_ = nullptr;
KlssEvalKey *PipelineFixture::klss_rlk_ = nullptr;

TEST_F(PipelineFixture, BitExactAgainstReferenceScalarEngines)
{
    for (size_t level : {5u, 4u, 2u}) {
        RnsPoly d2 = random_eval_poly(level, 100 + level);
        auto [r0, r1] = keyswitch_klss(d2, *klss_rlk_, *ctx_);
        auto [p0, p1] = keyswitch_klss_pipeline(
            d2, *klss_rlk_, *ctx_, ExecPolicy::fixed(EngineId::scalar));
        EXPECT_TRUE(std::equal(r0.data(), r0.data() + r0.limbs() * r0.n(),
                               p0.data()))
            << "level " << level;
        EXPECT_TRUE(std::equal(r1.data(), r1.data() + r1.limbs() * r1.n(),
                               p1.data()));
    }
}

TEST_F(PipelineFixture, BitExactThroughEmulatedFp64TensorCore)
{
    // The paper's headline functional claim: routing every matrix
    // stage through the bit-sliced FP64 datapath changes nothing.
    RnsPoly d2 = random_eval_poly(5, 7);
    auto [r0, r1] = keyswitch_klss(d2, *klss_rlk_, *ctx_);
    auto [p0, p1] = keyswitch_klss_pipeline(
        d2, *klss_rlk_, *ctx_, ExecPolicy::fixed(EngineId::fp64_tcu));
    EXPECT_TRUE(std::equal(r0.data(), r0.data() + r0.limbs() * r0.n(),
                           p0.data()));
    EXPECT_TRUE(std::equal(r1.data(), r1.data() + r1.limbs() * r1.n(),
                           p1.data()));
}

TEST_F(PipelineFixture, HmultThroughPipelineDecryptsCorrectly)
{
    PublicKey pk = keygen_->public_key(*sk_);
    Encryptor enc(*ctx_, 23);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);

    Rng rng(9);
    std::vector<Complex> a(ctx_->encoder().slot_count());
    std::vector<Complex> b(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = Complex(2 * rng.uniform_real() - 1, 0);
        b[i] = Complex(2 * rng.uniform_real() - 1, 0);
    }
    auto ca = enc.encrypt(ctx_->encode(a, 5), pk);
    auto cb = enc.encrypt(ctx_->encode(b, 5), pk);

    // HMULT with the key switch replaced by the Neo pipeline.
    RnsPoly d0 = ca.c0;
    d0.mul_inplace(cb.c0);
    RnsPoly d1 = ca.c0;
    d1.mul_inplace(cb.c1);
    RnsPoly t = ca.c1;
    t.mul_inplace(cb.c0);
    d1.add_inplace(t);
    RnsPoly d2 = ca.c1;
    d2.mul_inplace(cb.c1);
    auto [k0, k1] = keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_);
    d0.add_inplace(k0);
    d1.add_inplace(k1);
    Ciphertext prod{std::move(d0), std::move(d1), 5,
                    ca.scale * cb.scale};
    auto got = dec.decrypt_decode(ev.rescale(prod));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(got[i] - a[i] * b[i]), 1e-4) << "slot " << i;
}

TEST(Pipeline, RejectsOperandFromAnotherContext)
{
    // An operand over another ring, or over another modulus chain, is
    // rejected before any kernel reads the key or a pool worker meets
    // a shape it cannot handle.
    const CkksParams params = CkksParams::test_params(256, 5, 2);
    const CkksContext ctx(params);
    KeyGenerator keygen(ctx, 5);
    const SecretKey sk = keygen.secret_key();
    const EvalKey rlk = keygen.relin_key(sk);
    const KlssEvalKey klss_rlk = keygen.to_klss(rlk);

    std::vector<RnsPoly> operands;
    for (size_t other_n : {512u, 128u}) {
        const CkksContext other(CkksParams::test_params(other_n, 5, 2));
        operands.emplace_back(other.n(), other.active_mods(5),
                              PolyForm::eval);
    }
    std::vector<Modulus> swapped = ctx.active_mods(5);
    std::swap(swapped[0], swapped[1]);
    operands.emplace_back(ctx.n(), swapped, PolyForm::eval);

    const u64 g = ctx.encoder().galois_element(1);
    GaloisKeys gk;
    gk.hybrid.emplace(g, keygen.galois_key(sk, g));
    for (const RnsPoly &d2 : operands) {
        SCOPED_TRACE(::testing::Message() << "n=" << d2.n());
        EXPECT_THROW(keyswitch_klss_pipeline(d2, klss_rlk, ctx),
                     std::invalid_argument);
        EXPECT_THROW(keyswitch_klss(d2, klss_rlk, ctx),
                     std::invalid_argument);
        EXPECT_THROW(keyswitch_hybrid(d2, rlk, ctx), std::invalid_argument);
        EXPECT_THROW(rotate_hoisted(Ciphertext{d2, d2, 5, 1.0}, {1}, gk, ctx),
                     std::invalid_argument);
    }
    // A hoisted rotation sizes its ModUp by the ciphertext's level, so
    // a level that disagrees with the limbs is rejected too.
    const RnsPoly low(ctx.n(), ctx.active_mods(3), PolyForm::eval);
    EXPECT_THROW(rotate_hoisted(Ciphertext{low, low, 5, 1.0}, {1}, gk, ctx),
                 std::invalid_argument);
}

TEST(Pipeline, RejectsKeyFromAnotherContext)
{
    // A key over another ring or another modulus chain is rejected
    // before any kernel reads key material. The 36- and 40-bit chains
    // share T, so a KLSS key is told apart by the Q·P chain it was
    // lifted from.
    const CkksParams params = CkksParams::test_params(256, 5, 2);
    const CkksContext ctx(params);
    const RnsPoly d2(ctx.n(), ctx.active_mods(5), PolyForm::eval);

    for (size_t other_n : {128u, 512u}) {
        SCOPED_TRACE(::testing::Message() << "key n=" << other_n);
        const CkksContext other(CkksParams::test_params(other_n, 5, 2));
        KeyGenerator keygen(other, 6);
        const EvalKey rlk = keygen.relin_key(keygen.secret_key());
        const KlssEvalKey klss_rlk = keygen.to_klss(rlk);
        EXPECT_THROW(keyswitch_klss_pipeline(d2, klss_rlk, ctx),
                     std::invalid_argument);
        EXPECT_THROW(keyswitch_klss(d2, klss_rlk, ctx),
                     std::invalid_argument);
        EXPECT_THROW(keyswitch_hybrid(d2, rlk, ctx), std::invalid_argument);
    }

    CkksParams wide = params;
    wide.word_size = 40;
    const CkksContext other(wide);
    KeyGenerator keygen(other, 7);
    const EvalKey rlk = keygen.relin_key(keygen.secret_key());
    EXPECT_THROW(keyswitch_hybrid(d2, rlk, ctx), std::invalid_argument);
    const KlssEvalKey klss_rlk = keygen.to_klss(rlk);
    EXPECT_THROW(keyswitch_klss_pipeline(d2, klss_rlk, ctx),
                 std::invalid_argument);
    EXPECT_THROW(keyswitch_klss(d2, klss_rlk, ctx), std::invalid_argument);

    // Hoisted rotations read the Galois keys by limb index, so they
    // must run the same checks: a key over the 40-bit chain, and one
    // over the N=128 ring, whose limbs are too short to copy.
    const Ciphertext ct{d2, d2, 5, 1.0};
    const std::vector<i64> steps = {1, 2};
    const CkksContext narrow(CkksParams::test_params(128, 5, 2));
    KeyGenerator narrow_keygen(narrow, 8);
    for (KeyGenerator *kg : {&keygen, &narrow_keygen}) {
        const SecretKey sk = kg->secret_key();
        GaloisKeys gk;
        for (i64 step : steps) {
            const u64 g = ctx.encoder().galois_element(step);
            gk.hybrid.emplace(g, kg->galois_key(sk, g));
        }
        EXPECT_THROW(rotate_hoisted(ct, steps, gk, ctx),
                     std::invalid_argument);
    }
}

TEST(BConvExact, MatmulExactMatchesBaseConverter)
{
    auto p1 = generate_ntt_primes(36, 3, 1 << 10);
    auto p2 = generate_ntt_primes(48, 5, 1 << 10);
    RnsBasis from(p1), to(p2);
    BConvKernel kernel(from, to);
    BaseConverter conv(from, to);

    const size_t n = 64, batch = 2;
    Rng rng(3);
    std::vector<u64> in(3 * batch * n);
    for (size_t i = 0; i < 3; ++i)
        for (size_t x = 0; x < batch * n; ++x)
            in[i * batch * n + x] = rng.uniform(p1[i]);

    std::vector<u64> got(5 * batch * n);
    kernel.run_matmul_exact(in.data(), batch, n, got.data(),
                            EngineRegistry::engines(EngineId::scalar)
                                .per_column);

    // Reference: convert each batch element separately.
    for (size_t b = 0; b < batch; ++b) {
        std::vector<u64> one(3 * n), want(5 * n);
        for (size_t i = 0; i < 3; ++i)
            std::copy(in.begin() + (i * batch + b) * n,
                      in.begin() + (i * batch + b + 1) * n,
                      one.begin() + i * n);
        conv.convert_exact(one.data(), n, want.data());
        for (size_t j = 0; j < 5; ++j)
            for (size_t l = 0; l < n; ++l)
                EXPECT_EQ(got[(j * batch + b) * n + l], want[j * n + l])
                    << "b=" << b << " j=" << j << " l=" << l;
    }
}

TEST(BConvExact, Fp64EngineIdenticalToScalar)
{
    auto p1 = generate_ntt_primes(36, 4, 1 << 10);
    auto p2 = generate_ntt_primes(48, 6, 1 << 10);
    RnsBasis from(p1), to(p2);
    BConvKernel kernel(from, to);
    const size_t n = 32, batch = 3;
    Rng rng(4);
    std::vector<u64> in(4 * batch * n);
    for (size_t i = 0; i < 4; ++i)
        for (size_t x = 0; x < batch * n; ++x)
            in[i * batch * n + x] = rng.uniform(p1[i]);
    std::vector<u64> a(6 * batch * n), b(6 * batch * n);
    kernel.run_matmul_exact(in.data(), batch, n, a.data(),
                            EngineRegistry::engines(EngineId::scalar)
                                .per_column);
    kernel.run_matmul_exact(in.data(), batch, n, b.data(),
                            EngineRegistry::engines(EngineId::fp64_tcu)
                                .per_column);
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace neo
