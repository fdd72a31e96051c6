#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "boot/bootstrapper.h"
#include "boot/factored_transform.h"
#include "ckks/encryptor.h"
#include "common/isa.h"
#include "common/math_util.h"
#include "common/random.h"
#include "obs/obs.h"

namespace neo::boot {

using namespace ckks;

namespace {

double
max_err(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    double e = 0;
    for (size_t i = 0; i < a.size(); ++i)
        e = std::max(e, std::abs(a[i] - b[i]));
    return e;
}

/// y = M·z for a row-major s×s matrix, summed row by row.
std::vector<Complex>
dense_product(const std::vector<Complex> &m, const std::vector<Complex> &z)
{
    const size_t s = z.size();
    std::vector<Complex> y(s, Complex(0, 0));
    for (size_t i = 0; i < s; ++i)
        for (size_t j = 0; j < s; ++j)
            y[i] += m[i * s + j] * z[j];
    return y;
}

std::vector<u64>
words(const RnsPoly &p)
{
    return {p.data(), p.data() + p.limbs() * p.n()};
}

std::vector<Complex>
random_vector(size_t count, Rng &rng)
{
    std::vector<Complex> v(count);
    for (auto &x : v)
        x = Complex(2 * rng.uniform_real() - 1, 2 * rng.uniform_real() - 1);
    return v;
}

// ---------------------------------------------------------------------
// LinearTransform
// ---------------------------------------------------------------------

struct LtFixture : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        params_ = new CkksParams(CkksParams::test_params(64, 5, 2));
        ctx_ = new CkksContext(*params_);
        keygen_ = new KeyGenerator(*ctx_, 3);
        sk_ = new SecretKey(keygen_->secret_key());
        pk_ = new PublicKey(keygen_->public_key(*sk_));
    }

    static void
    TearDownTestSuite()
    {
        delete pk_;
        delete sk_;
        delete keygen_;
        delete ctx_;
        delete params_;
    }

    static CkksParams *params_;
    static CkksContext *ctx_;
    static KeyGenerator *keygen_;
    static SecretKey *sk_;
    static PublicKey *pk_;
};

CkksParams *LtFixture::params_ = nullptr;
CkksContext *LtFixture::ctx_ = nullptr;
KeyGenerator *LtFixture::keygen_ = nullptr;
SecretKey *LtFixture::sk_ = nullptr;
PublicKey *LtFixture::pk_ = nullptr;

TEST_F(LtFixture, DiagonalExtraction)
{
    const size_t s = 4;
    std::vector<Complex> m(s * s);
    for (size_t i = 0; i < s * s; ++i)
        m[i] = Complex(static_cast<double>(i), 0);
    LinearTransform lt(m, s);
    auto d1 = lt.diagonal(1);
    EXPECT_EQ(d1[0], m[0 * s + 1]);
    EXPECT_EQ(d1[3], m[3 * s + 0]); // wraps
}

/// A slots×slots matrix whose diagonals at @p offsets hold random
/// entries of magnitude up to @p scale·√2, and every other entry zero.
std::vector<Complex>
banded_matrix(size_t s, const std::vector<size_t> &offsets, double scale,
              Rng &rng)
{
    std::vector<Complex> m(s * s, Complex(0, 0));
    for (size_t d : offsets)
        for (size_t i = 0; i < s; ++i)
            m[i * s + (i + d) % s] =
                scale * Complex(2 * rng.uniform_real() - 1,
                                2 * rng.uniform_real() - 1);
    return m;
}

std::vector<size_t>
iota_offsets(size_t count)
{
    std::vector<size_t> v(count);
    for (size_t d = 0; d < count; ++d)
        v[d] = d;
    return v;
}

TEST_F(LtFixture, ApplyRotatesOncePerRequiredStep)
{
    // One matrix per kind of split: a full matrix (giant step g with
    // g² ≥ slots), a wrap-around band of offsets −3…3 (1 < g < slots)
    // and diagonals {0, 3, slots − 1} (g = slots: one rotation per
    // diagonal). Each runs with Galois keys for exactly
    // required_rotations(), so a step apply() took without declaring it
    // would find no key.
    const size_t s = ctx_->encoder().slot_count();
    ASSERT_EQ(s, 32u);
    struct Case
    {
        const char *name;
        std::vector<size_t> offsets;
        double scale;
        std::vector<i64> steps;
    };
    const std::vector<Case> cases = {
        {"full", iota_offsets(s), 0.2, {1, 2, 3, 4, 5, 6, 7, 8, 16, 24}},
        {"band", {0, 1, 2, 3, s - 3, s - 2, s - 1}, 1.0, {1, 2, 3, 28}},
        {"sparse", {0, 3, s - 1}, 1.0, {3, static_cast<i64>(s - 1)}},
    };

    Rng rng(4);
    std::vector<Complex> z(s);
    for (auto &x : z)
        x = Complex(2 * rng.uniform_real() - 1, 0);
    Encryptor enc(*ctx_);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    const Ciphertext ct = enc.encrypt(ctx_->encode(z, 5), *pk_);

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::vector<Complex> m =
            banded_matrix(s, c.offsets, c.scale, rng);
        const LinearTransform lt(m, s);
        const std::vector<i64> steps = lt.required_rotations();
        EXPECT_EQ(steps, c.steps);
        EvalKeyBundle keys;
        keys.galois = keygen_->galois_keys(*sk_, steps);
        EXPECT_EQ(keys.galois.hybrid.size(), steps.size());

        obs::Scope scope;
        const Ciphertext out = lt.apply(ev, *ctx_, ct, keys);
        EXPECT_EQ(scope.counter("op.hrotate"), steps.size());
        EXPECT_LT(max_err(dec.decrypt_decode(out), dense_product(m, z)),
                  1e-3);
    }
}

/// For every power of two g ≤ slots, the non-zero steps
/// {d mod g} ∪ {d − d mod g}; the rule takes the fewest, ties going to
/// the larger g.
std::vector<i64>
fewest_steps_brute_force(const std::vector<size_t> &offsets, size_t slots)
{
    std::vector<i64> best;
    bool found = false;
    for (size_t g = 1; g <= slots; g *= 2) {
        std::vector<i64> steps;
        for (size_t d : offsets)
            for (size_t step : {d % g, d - d % g})
                if (step != 0)
                    steps.push_back(static_cast<i64>(step));
        std::sort(steps.begin(), steps.end());
        steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
        if (!found || steps.size() <= best.size()) {
            best = steps;
            found = true;
        }
    }
    return best;
}

TEST_F(LtFixture, GiantStepRuleTakesFewestSteps)
{
    Rng rng(29);
    for (size_t s : {16u, 32u}) {
        std::vector<std::vector<size_t>> sets = {
            iota_offsets(s),
            {0, 1, 2, 3, s - 3, s - 2, s - 1},
            {0, 3, s - 1},
        };
        for (int k = 0; k < 40; ++k) {
            std::vector<size_t> offsets;
            const double keep = rng.uniform_real();
            for (size_t d = 0; d < s; ++d)
                if (rng.uniform_real() < keep)
                    offsets.push_back(d);
            sets.push_back(offsets);
        }
        for (const auto &offsets : sets) {
            SCOPED_TRACE(::testing::Message()
                         << "slots=" << s << " offsets=" << offsets.size());
            const LinearTransform lt(banded_matrix(s, offsets, 1.0, rng), s);
            EXPECT_EQ(lt.required_rotations(),
                      fewest_steps_brute_force(offsets, s));
        }

        // A full matrix keeps the classic split: g is the smallest power
        // of two with g² ≥ slots, baby steps 1…g−1, giant steps g, 2g, ….
        size_t g = 1;
        while (g * g < s)
            g <<= 1;
        std::vector<i64> classic;
        for (size_t j = 1; j < g; ++j)
            classic.push_back(static_cast<i64>(j));
        for (size_t i = g; i < s; i += g)
            classic.push_back(static_cast<i64>(i));
        const LinearTransform full(
            banded_matrix(s, iota_offsets(s), 1.0, rng), s);
        EXPECT_EQ(full.required_rotations(), classic);
    }
    const std::vector<Complex> ones(16, Complex(1, 0));
    EXPECT_THROW(LinearTransform({{0, ones}, {16, ones}}, 16),
                 std::invalid_argument);
}

TEST_F(LtFixture, SparseDiagonalMatrixNeedsFewRotations)
{
    const size_t s = ctx_->encoder().slot_count();
    // Circulant shift-by-2 matrix: single non-zero diagonal.
    std::vector<Complex> m(s * s, Complex(0, 0));
    for (size_t i = 0; i < s; ++i)
        m[i * s + (i + 2) % s] = Complex(1, 0);
    LinearTransform lt(m, s);
    EXPECT_EQ(lt.required_rotations(), std::vector<i64>{2});
}

TEST_F(LtFixture, PlainApplyMatchesDenseProduct)
{
    const size_t s = 16;
    Rng rng(12);
    const std::vector<Complex> z = random_vector(s, rng);

    // Dense: every diagonal is kept, applied with giant step 4 (baby
    // steps 1…3, giant steps 4, 8, 12).
    const std::vector<Complex> dense = random_vector(s * s, rng);
    const LinearTransform lt_dense(dense, s);
    EXPECT_EQ(lt_dense.required_rotations().size(), 6u);
    EXPECT_LT(max_err(lt_dense.apply_plain(z), dense_product(dense, z)),
              1e-12);

    // Sparse: diagonals 0, 3 and s − 1, the last wrapping past the
    // right edge on every row but the first.
    const std::vector<size_t> offsets = {0, 3, s - 1};
    std::vector<Complex> sparse(s * s, Complex(0, 0));
    for (size_t d : offsets)
        for (size_t i = 0; i < s; ++i)
            sparse[i * s + (i + d) % s] =
                Complex(2 * rng.uniform_real() - 1, rng.uniform_real());
    const LinearTransform lt_sparse(sparse, s);
    EXPECT_EQ(lt_sparse.required_rotations(),
              (std::vector<i64>{3, static_cast<i64>(s - 1)}));
    EXPECT_LT(max_err(lt_sparse.apply_plain(z), dense_product(sparse, z)),
              1e-12);
    for (size_t d : offsets) {
        const auto diag = lt_sparse.diagonal(d);
        for (size_t i = 0; i < s; ++i)
            EXPECT_EQ(diag[i], sparse[i * s + (i + d) % s]) << d << " " << i;
    }

    // An offset that is not kept reads as zeros.
    EXPECT_EQ(lt_sparse.diagonal(1), std::vector<Complex>(s));
    EXPECT_EQ(lt_sparse.diagonal(s - 2), std::vector<Complex>(s));
}

// ---------------------------------------------------------------------
// PolyEvaluator
// ---------------------------------------------------------------------

struct PolyFixture : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        params_ = new CkksParams(CkksParams::test_params(64, 9, 3));
        ctx_ = new CkksContext(*params_);
        keygen_ = new KeyGenerator(*ctx_, 5);
        sk_ = new SecretKey(keygen_->secret_key());
        pk_ = new PublicKey(keygen_->public_key(*sk_));
        keys_ = new EvalKeyBundle;
        keys_->rlk = keygen_->relin_key(*sk_);
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

    static CkksParams *params_;
    static CkksContext *ctx_;
    static KeyGenerator *keygen_;
    static SecretKey *sk_;
    static PublicKey *pk_;
    static EvalKeyBundle *keys_;
};

CkksParams *PolyFixture::params_ = nullptr;
CkksContext *PolyFixture::ctx_ = nullptr;
KeyGenerator *PolyFixture::keygen_ = nullptr;
SecretKey *PolyFixture::sk_ = nullptr;
PublicKey *PolyFixture::pk_ = nullptr;
EvalKeyBundle *PolyFixture::keys_ = nullptr;

TEST_F(PolyFixture, ChebyshevBasisMatchesPlainEvaluation)
{
    Encryptor enc(*ctx_);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    PolyEvaluator pe(*ctx_, ev, *keys_);

    Rng rng(7);
    const size_t slots = ctx_->encoder().slot_count();
    std::vector<Complex> z(slots);
    for (auto &x : z)
        x = Complex(2 * rng.uniform_real() - 1, 0);

    const double nominal =
        static_cast<double>(ctx_->q_basis()[1].value());
    Ciphertext ct =
        enc.encrypt(ctx_->encode(z, ctx_->max_level(), nominal), *pk_);

    // Chebyshev fit of exp(x/2) at degree 7, evaluated homomorphically.
    auto f = [](double x, void *) { return std::exp(x / 2.0); };
    auto coeffs = PolyEvaluator::chebyshev_fit(+f, nullptr, 7);
    auto got = dec.decrypt_decode(pe.evaluate_chebyshev(ct, coeffs));
    for (size_t i = 0; i < slots; ++i) {
        double want = std::exp(z[i].real() / 2.0);
        EXPECT_NEAR(got[i].real(), want, 5e-3) << "slot " << i;
    }
}

/// Σ c_k T_k(x) in double precision, by the three-term recurrence.
double
chebyshev_series(const std::vector<double> &c, double x)
{
    double t0 = 1, t1 = x, acc = c[0] + (c.size() > 1 ? c[1] * x : 0);
    for (size_t k = 2; k < c.size(); ++k) {
        const double t2 = 2 * x * t1 - t0;
        acc += c[k] * t2;
        t0 = t1;
        t1 = t2;
    }
    return acc;
}

TEST_F(PolyFixture, BootstrapCosineCostDepthAndPrecision)
{
    // The bootstrap's base cosine cos((2πK·u − π/2)/2^r) at K = 8,
    // r = 1, degree 63 (effective degree 53): 9 products build
    // T_2…T_8, T_16 and T_32, and 6 more join the giant steps.
    auto f = [](double u, void *) {
        return std::cos((2.0 * M_PI * 8.0 * u - M_PI / 2.0) / 2.0);
    };
    const auto coeffs = PolyEvaluator::chebyshev_fit(+f, nullptr, 63);
    ASSERT_EQ(PolyEvaluator::chebyshev_depth(coeffs), 6u);

    Encryptor enc(*ctx_);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    PolyEvaluator pe(*ctx_, ev, *keys_);
    Rng rng(41);
    const size_t slots = ctx_->encoder().slot_count();
    std::vector<Complex> z(slots);
    for (auto &x : z)
        x = Complex(2 * rng.uniform_real() - 1, 0);
    const double nominal =
        static_cast<double>(ctx_->q_basis()[1].value());
    const Ciphertext ct =
        enc.encrypt(ctx_->encode(z, ctx_->max_level(), nominal), *pk_);
    ASSERT_EQ(ct.level, 9u);

    obs::Scope scope;
    const Ciphertext out = pe.evaluate_chebyshev(ct, coeffs);
    EXPECT_EQ(scope.counter("op.hmult"), 15u);
    EXPECT_EQ(scope.counter("op.rescale"), 22u);
    EXPECT_EQ(scope.counter("op.pmult"), 0u);
    EXPECT_EQ(out.level, ct.level - 6);

    const auto got = dec.decrypt_decode(out);
    double err = 0;
    for (size_t i = 0; i < slots; ++i)
        err = std::max(err, std::abs(got[i] - chebyshev_series(
                                                  coeffs, z[i].real())));
    EXPECT_LT(err, 1e-6);
}

TEST_F(PolyFixture, ChebyshevDepthIsTheSharedRule)
{
    // Seeded non-zero coefficients at degrees on both sides of each
    // power of two: the levels consumed are the dry run's, and never
    // more than ⌈log2 d⌉ + 1.
    Encryptor enc(*ctx_);
    Decryptor dec(*ctx_, *sk_, *keygen_);
    Evaluator ev(*ctx_);
    PolyEvaluator pe(*ctx_, ev, *keys_);
    Rng rng(43);
    const size_t slots = ctx_->encoder().slot_count();
    std::vector<Complex> z(slots);
    for (auto &x : z)
        x = Complex(2 * rng.uniform_real() - 1, 0);
    const double nominal =
        static_cast<double>(ctx_->q_basis()[1].value());
    const Ciphertext ct =
        enc.encrypt(ctx_->encode(z, ctx_->max_level(), nominal), *pk_);

    for (size_t d : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 31u, 32u, 53u, 63u}) {
        SCOPED_TRACE(::testing::Message() << "degree " << d);
        std::vector<double> c(d + 1);
        for (auto &x : c) {
            const double m = 0.1 + 0.9 * rng.uniform_real();
            x = rng.uniform_real() < 0.5 ? -m : m;
        }
        const size_t depth = PolyEvaluator::chebyshev_depth(c);
        const size_t log2_ceil = static_cast<size_t>(bit_size(d - 1));
        EXPECT_LE(depth, log2_ceil + 1);

        const Ciphertext out = pe.evaluate_chebyshev(ct, c);
        EXPECT_EQ(ct.level - out.level, depth);
        const auto got = dec.decrypt_decode(out);
        double err = 0;
        for (size_t i = 0; i < slots; ++i)
            err = std::max(err, std::abs(got[i] - chebyshev_series(
                                                      c, z[i].real())));
        EXPECT_LT(err, 1e-5);
    }
}

TEST_F(PolyFixture, ChebyshevFitReproducesFunction)
{
    auto f = [](double x, void *) { return std::cos(3.0 * x); };
    auto c = PolyEvaluator::chebyshev_fit(+f, nullptr, 15);
    for (double x : {-0.9, -0.3, 0.0, 0.5, 1.0})
        EXPECT_NEAR(chebyshev_series(c, x), std::cos(3.0 * x), 1e-9);
}

// ---------------------------------------------------------------------
// Bootstrapping
// ---------------------------------------------------------------------

TEST(Bootstrap, RefreshesLevelAndPreservesMessage)
{
    CkksParams params = CkksParams::test_params(256, 14, 3);
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 11);
    SecretKey sk = keygen.secret_key_sparse(8);
    PublicKey pk = keygen.public_key(sk);
    EvalKeyBundle keys = keygen.eval_key_bundle(
        sk, Bootstrapper::required_rotations(ctx), /*conjugate=*/true);
    Encryptor enc(ctx);
    Decryptor dec(ctx, sk, keygen);
    Evaluator ev(ctx);
    Bootstrapper boot(ctx, ev, keys);

    // Small messages: |m| << q0 keeps the sine linearisation sharp.
    Rng rng(13);
    const size_t slots = ctx.encoder().slot_count();
    std::vector<Complex> z(slots);
    for (auto &x : z)
        x = Complex(0.04 * (2 * rng.uniform_real() - 1), 0);

    Ciphertext ct = enc.encrypt(ctx.encode(z, /*level=*/0), pk);
    ASSERT_EQ(ct.level, 0u);

    obs::Scope scope;
    Ciphertext fresh = boot.bootstrap(ct);
    EXPECT_GE(fresh.level, 2u) << "bootstrap must refresh levels";
    // One factored group each way: 44 rotations and one conjugation.
    EXPECT_EQ(scope.counter("op.hrotate"), 44u);
    EXPECT_EQ(scope.counter("op.hconj"), 1u);

    auto got = dec.decrypt_decode(fresh);
    EXPECT_LT(max_err(got, z), 2e-3);
}

TEST(FactoredEmbedding, StagesComposeToDenseEmbedding)
{
    // The butterfly factorization must reproduce the encoder's
    // canonical embedding exactly (plaintext check), for every grouping.
    for (size_t n : {8u, 64u, 256u, 1024u}) {
        Rng rng(n);
        std::vector<double> c(n);
        for (auto &x : c)
            x = 2 * rng.uniform_real() - 1;
        // Reference: z_k = Σ c_i ζ^{5^k i}.
        std::vector<Complex> want(n / 2, Complex(0, 0));
        u64 e = 1;
        for (size_t k = 0; k < n / 2; ++k) {
            for (size_t i = 0; i < n; ++i) {
                double th = M_PI * static_cast<double>((e * i) % (2 * n)) /
                            static_cast<double>(n);
                want[k] += c[i] * Complex(std::cos(th), std::sin(th));
            }
            e = (e * 5) % (2 * n);
        }
        const size_t levels = static_cast<size_t>(log2_exact(n / 2));
        for (size_t groups = 1; groups <= levels; ++groups) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " groups=" << groups);
            FactoredEmbedding fe(n, groups);
            const auto base = fe.pack_base(c);
            const auto z = fe.apply_forward(base);
            EXPECT_LT(max_err(z, want), 1e-12);
            // Inverse stages undo the forward ones.
            EXPECT_LT(max_err(fe.apply_inverse(z), base), 1e-13);
        }
    }
}

TEST(FactoredEmbedding, StagesAreSparse)
{
    FactoredEmbedding fe(256, 3); // 7 levels in 3 groups
    ASSERT_EQ(fe.groups(), 3u);
    for (const auto &stage : fe.forward()) {
        // Grouping ≤3 butterfly levels composes offsets from
        // {0,±D1}+{0,±D2}+{0,±D3}: at most 27 diagonals, far below the
        // 128 of the dense transform.
        EXPECT_LE(stage.required_rotations().size() + 1, 27u);
        EXPECT_LT(stage.required_rotations().size(), 127u);
    }
    EXPECT_THROW(FactoredEmbedding(256, 9), std::invalid_argument);
    EXPECT_THROW(FactoredEmbedding(6, 1), std::invalid_argument);
}

TEST(Bootstrap, FactoredTransformsRefreshAndPreserve)
{
    CkksParams params = CkksParams::test_params(256, 17, 3);
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 19);
    SecretKey sk = keygen.secret_key_sparse(8);
    PublicKey pk = keygen.public_key(sk);
    BootstrapOptions opts;
    opts.factored_groups = 2; // multi-stage CtS/StC
    EvalKeyBundle keys = keygen.eval_key_bundle(
        sk, Bootstrapper::required_rotations(ctx, opts), true);
    Encryptor enc(ctx);
    Decryptor dec(ctx, sk, keygen);
    Evaluator ev(ctx);
    Bootstrapper boot(ctx, ev, keys, opts);

    Rng rng(23);
    const size_t slots = ctx.encoder().slot_count();
    std::vector<Complex> z(slots);
    for (auto &x : z)
        x = Complex(0.04 * (2 * rng.uniform_real() - 1), 0);
    Ciphertext ct = enc.encrypt(ctx.encode(z, 0), pk);
    Ciphertext fresh = boot.bootstrap(ct);
    EXPECT_GE(fresh.level, 1u);
    auto got = dec.decrypt_decode(fresh);
    EXPECT_LT(max_err(got, z), 3e-3);
    // The same words at the portable ISA level, where the NTT and BConv
    // run their scalar loops.
    const Isa prev = force_isa_for_testing(Isa::portable);
    const Ciphertext portable = boot.bootstrap(ct);
    force_isa_for_testing(prev);
    EXPECT_EQ(portable.level, fresh.level);
    EXPECT_TRUE(words(portable.c0) == words(fresh.c0));
    EXPECT_TRUE(words(portable.c1) == words(fresh.c1));
}

TEST(Bootstrap, RotationKeysAreTheStagesSteps)
{
    // A factored bootstrap keyed with exactly required_rotations() runs,
    // and rotates once per step of each stage's required_rotations().
    CkksParams params = CkksParams::test_params(256, 17, 3);
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 31);
    SecretKey sk = keygen.secret_key_sparse(8);
    PublicKey pk = keygen.public_key(sk);
    Encryptor enc(ctx);
    Decryptor dec(ctx, sk, keygen);
    Evaluator ev(ctx);
    Rng rng(37);
    std::vector<Complex> z(ctx.encoder().slot_count());
    for (auto &x : z)
        x = Complex(0.04 * (2 * rng.uniform_real() - 1), 0);
    const Ciphertext ct = enc.encrypt(ctx.encode(z, 0), pk);

    for (size_t groups = 1; groups <= 3; ++groups) {
        SCOPED_TRACE(::testing::Message() << "groups=" << groups);
        BootstrapOptions opts;
        opts.factored_groups = groups;
        const std::vector<i64> rots =
            Bootstrapper::required_rotations(ctx, opts);
        const EvalKeyBundle keys = keygen.eval_key_bundle(sk, rots, true);
        Bootstrapper boot(ctx, ev, keys, opts);

        const FactoredEmbedding fe(ctx.n(), groups);
        size_t steps = 0;
        for (const auto *stages : {&fe.forward(), &fe.inverse()})
            for (const auto &stage : *stages)
                steps += stage.required_rotations().size();

        obs::Scope scope;
        const Ciphertext fresh = boot.bootstrap(ct);
        EXPECT_EQ(scope.counter("op.hrotate"), steps);
        EXPECT_LT(max_err(dec.decrypt_decode(fresh), z), 3e-3);
        if (groups == 3) {
            // No dense BSGS step (giant step 16) that no stage takes.
            for (i64 step = 9; step <= 15; ++step)
                EXPECT_EQ(std::count(rots.begin(), rots.end(), step), 0)
                    << step;
        }
    }
}

TEST(Bootstrap, ModRaiseLiftIsCentered)
{
    // Both raised components hold, over the full chain, the centered
    // lift of their level-0 residues: v for v ≤ q0/2 and v − q0 above.
    // The chain holds the default bootstrap's 10 levels.
    CkksParams params = CkksParams::test_params(256, 10, 2);
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 5);
    SecretKey sk = keygen.secret_key_sparse(8);
    PublicKey pk = keygen.public_key(sk);
    const EvalKeyBundle keys; // ModRaise switches no key
    Evaluator ev(ctx);
    Bootstrapper boot(ctx, ev, keys);
    Encryptor enc(ctx);
    const std::vector<Complex> z(ctx.encoder().slot_count(), 0.01);
    const Ciphertext ct = enc.encrypt(ctx.encode(z, /*level=*/0), pk);
    const Ciphertext raised = boot.mod_raise(ct);
    ASSERT_EQ(raised.level, ctx.max_level());

    const u64 q0 = ctx.q_basis()[0].value();
    size_t upper = 0; // residues the lift makes negative
    for (int comp = 0; comp < 2; ++comp) {
        RnsPoly src = comp == 0 ? ct.c0 : ct.c1;
        RnsPoly dst = comp == 0 ? raised.c0 : raised.c1;
        ctx.tables().to_coeff(src);
        ctx.tables().to_coeff(dst);
        const std::vector<double> lifted = ctx.lift_centered(dst);
        for (size_t l = 0; l < ctx.n(); ++l) {
            const u64 v = src.limb(0)[l];
            ASSERT_EQ(lifted[l], static_cast<double>(to_centered(v, q0)))
                << "component " << comp << ", coefficient " << l;
            upper += v > q0 / 2;
        }
    }
    // Both components look uniform mod q0, so about half their
    // residues lie above q0/2 and exercise the negative branch.
    EXPECT_GT(upper, ctx.n() / 2);
}

TEST(Bootstrap, DepthIsTheLevelsConsumed)
{
    // depth() is the levels a bootstrap takes off the top of the chain,
    // 2G + EvalMod's, so G = 1 refreshes a 10-level chain to level 0.
    struct Case
    {
        size_t levels;
        size_t groups;
    };
    for (const Case &c : {Case{17, 1}, Case{17, 2}, Case{17, 3},
                          Case{10, 1}}) {
        SCOPED_TRACE(::testing::Message()
                     << "levels=" << c.levels << " groups=" << c.groups);
        CkksParams params = CkksParams::test_params(256, c.levels, 3);
        CkksContext ctx(params);
        KeyGenerator keygen(ctx, 47);
        SecretKey sk = keygen.secret_key_sparse(8);
        PublicKey pk = keygen.public_key(sk);
        BootstrapOptions opts;
        opts.factored_groups = c.groups;
        const EvalKeyBundle keys = keygen.eval_key_bundle(
            sk, Bootstrapper::required_rotations(ctx, opts), true);
        Encryptor enc(ctx);
        Evaluator ev(ctx);
        Bootstrapper boot(ctx, ev, keys, opts);
        const std::vector<Complex> z(ctx.encoder().slot_count(), 0.02);
        const Ciphertext fresh = boot.bootstrap(enc.encrypt(
            ctx.encode(z, 0), pk));
        EXPECT_EQ(ctx.max_level() - fresh.level, boot.depth());
        if (c.levels == 10) {
            EXPECT_EQ(fresh.level, 0u);
        }
    }
}

TEST(Bootstrap, RejectsOptionsTheChainCannotRun)
{
    const EvalKeyBundle keys; // construction switches no key
    {
        // The default bootstrap needs 10 levels; this chain has 9.
        CkksContext ctx(CkksParams::test_params(256, 9, 3));
        Evaluator ev(ctx);
        EXPECT_THROW(Bootstrapper(ctx, ev, keys), std::invalid_argument);
    }
    CkksContext ctx(CkksParams::test_params(256, 14, 3));
    Evaluator ev(ctx);
    EXPECT_NO_THROW(Bootstrapper(ctx, ev, keys));
    auto rejects = [&](auto edit) {
        BootstrapOptions opts;
        edit(opts);
        EXPECT_THROW(Bootstrapper(ctx, ev, keys, opts),
                     std::invalid_argument);
    };
    rejects([](BootstrapOptions &o) { o.sin_degree = 0; });
    rejects([](BootstrapOptions &o) { o.k_range = 0; });
    rejects([](BootstrapOptions &o) { o.k_range = -8; });
    rejects([](BootstrapOptions &o) { o.double_angles = -1; });
    rejects([](BootstrapOptions &o) { o.input_level = 1; });
    rejects([](BootstrapOptions &o) { o.factored_groups = 0; });
    // Four factored groups take 16 levels.
    rejects([](BootstrapOptions &o) { o.factored_groups = 4; });
}

TEST(Bootstrap, SecretKeySparseHammingWeight)
{
    CkksParams params = CkksParams::test_params(256, 5, 2);
    CkksContext ctx(params);
    KeyGenerator keygen(ctx, 3);
    SecretKey sk = keygen.secret_key_sparse(8);
    int weight = 0;
    for (i64 c : sk.coeffs) {
        EXPECT_TRUE(c == -1 || c == 0 || c == 1);
        weight += (c != 0);
    }
    EXPECT_EQ(weight, 8);
}

} // namespace
} // namespace neo::boot
