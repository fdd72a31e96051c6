#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/obs.h"
#include "poly/matrix_ntt.h"
#include "poly/ntt.h"
#include "poly/rns_poly.h"
#include "rns/primes.h"
#include "tensor/gemm.h"

#include "isa_sweep.h"

namespace neo {
namespace {

Modulus
test_modulus(size_t n, int bits = 36)
{
    return Modulus(generate_ntt_primes(bits, 1, n)[0]);
}

/// MatrixNtt's GEMM seam on the scalar engine.
const ModMatMulFn scalar_mm = [](const u64 *a, const u64 *b, u64 *c,
                                 size_t m, size_t n, size_t k,
                                 const Modulus &q) {
    gemm(EngineId::scalar, a, b, c, {1, m, n, k}, ModulusMap::of(q));
};

TEST(Ntt, RoundTrip)
{
    for (size_t n : {8u, 64u, 1024u}) {
        Modulus q = test_modulus(n);
        NttTables t(n, q);
        Rng rng(n);
        auto a = rng.uniform_vec(n, q.value());
        auto b = a;
        t.forward(b.data());
        t.inverse(b.data());
        EXPECT_EQ(a, b) << "n=" << n;
    }
}

/// X[k] = Σ_i a_i·ψ^{(2k+1)·i} mod q, straight from the definition.
std::vector<u64>
ntt_by_definition(const std::vector<u64> &a, const NttTables &t)
{
    const Modulus &q = t.modulus();
    const size_t n = a.size();
    const u64 psi_sq = q.mul(t.psi(), t.psi());
    std::vector<u64> out(n);
    u64 root = t.psi(); // ψ^{2k+1}
    for (size_t k = 0; k < n; ++k) {
        u64 acc = 0, pw = 1;
        for (size_t i = 0; i < n; ++i) {
            acc = q.add(acc, q.mul(a[i], pw));
            pw = q.mul(pw, root);
        }
        out[k] = acc;
        root = q.mul(root, psi_sq);
    }
    return out;
}

TEST(Ntt, ForwardMatchesDefinitionAtEverySizeAndWidth)
{
    // 49- and 50-bit q take the IFMA lanes from n = 16 on; 51-bit q
    // and wider run the scalar loop at every ISA level.
    for (int bits : {20, 36, 48, 49, 50, 51, 60, 62}) {
        for (size_t n = 1; n <= 1024; n <<= 1) {
            SCOPED_TRACE(::testing::Message() << "bits=" << bits
                                              << " n=" << n);
            const Modulus q = test_modulus(n, bits);
            const NttTables t(n, q);
            ASSERT_EQ(q.pow(t.psi(), n), q.value() - 1); // ψ^n = −1
            Rng rng(bits * 4096 + n);
            // All-(q−1) drives every lazy butterfly to its range edge.
            for (const auto &a : {rng.uniform_vec(n, q.value()),
                                  std::vector<u64>(n, q.value() - 1)}) {
                const auto want = ntt_by_definition(a, t);
                for_each_isa([&] {
                    auto x = a;
                    t.forward(x.data());
                    ASSERT_EQ(x, want);
                    t.inverse(x.data());
                    ASSERT_EQ(x, a);
                });
            }
        }
    }
}

TEST(Ntt, LanesMatchPortableAtLargeSizes)
{
    // Past the definition test's n = 1024: every ISA level against the
    // portable scalar loops, forward, inverse and round trip, on
    // random, all-(q−1) and zero inputs.
    for (size_t n : {size_t{1} << 12, size_t{1} << 14}) {
        for (int bits : {20, 36, 48, 50, 51, 60}) {
            SCOPED_TRACE(::testing::Message() << "bits=" << bits
                                              << " n=" << n);
            const Modulus q = test_modulus(n, bits);
            const NttTables t(n, q);
            Rng rng(bits * 8192 + n);
            for (const auto &a : {rng.uniform_vec(n, q.value()),
                                  std::vector<u64>(n, q.value() - 1),
                                  std::vector<u64>(n, 0)}) {
                auto fwd = a, inv = a;
                const Isa prev = force_isa_for_testing(Isa::portable);
                t.forward(fwd.data());
                t.inverse(inv.data());
                force_isa_for_testing(prev);
                for_each_isa([&] {
                    auto x = a, y = a;
                    t.forward(x.data());
                    ASSERT_EQ(x, fwd);
                    t.inverse(x.data());
                    ASSERT_EQ(x, a);
                    t.inverse(y.data());
                    ASSERT_EQ(y, inv);
                });
            }
        }
    }
}

TEST(Ntt, RejectsModulusAtOrAbove2To62)
{
    // Lazy butterflies hold values below 4q, so q must stay below 2^62.
    const size_t n = 16;
    u64 p = ((1ULL << 63) - 1) / (2 * n) * (2 * n) + 1;
    while (!is_prime(p))
        p -= 2 * n;
    ASSERT_GE(p, 1ULL << 62);
    EXPECT_THROW(NttTables(n, Modulus(p)), std::invalid_argument);
    EXPECT_NO_THROW(NttTables(n, test_modulus(n, 62)));
}

TEST(Ntt, PointwiseProductMatchesNegacyclicConvolution)
{
    const size_t n = 128;
    Modulus q = test_modulus(n);
    NttTables t(n, q);
    Rng rng(5);
    auto a = rng.uniform_vec(n, q.value());
    auto b = rng.uniform_vec(n, q.value());
    auto expected = negacyclic_convolve(a, b, q);

    t.forward(a.data());
    t.forward(b.data());
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mul(a[i], b[i]);
    t.inverse(a.data());
    EXPECT_EQ(a, expected);
}

TEST(Ntt, XTimesXIsXSquared)
{
    const size_t n = 16;
    Modulus q = test_modulus(n);
    NttTables t(n, q);
    std::vector<u64> x(n, 0);
    x[1] = 1;
    auto y = x;
    t.forward(x.data());
    t.forward(y.data());
    for (size_t i = 0; i < n; ++i)
        x[i] = q.mul(x[i], y[i]);
    t.inverse(x.data());
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(x[i], i == 2 ? 1u : 0u);
}

TEST(Ntt, XPowNMinus1TimesXWrapsNegacyclically)
{
    const size_t n = 16;
    Modulus q = test_modulus(n);
    NttTables t(n, q);
    std::vector<u64> a(n, 0), b(n, 0);
    a[n - 1] = 1; // X^{n-1}
    b[1] = 1;     // X
    t.forward(a.data());
    t.forward(b.data());
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mul(a[i], b[i]);
    t.inverse(a.data());
    // X^n = -1.
    EXPECT_EQ(a[0], q.value() - 1);
    for (size_t i = 1; i < n; ++i)
        EXPECT_EQ(a[i], 0u);
}

class MatrixNttTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(MatrixNttTest, MatchesRadix2Reference)
{
    const auto [n, radix] = GetParam();
    Modulus q = test_modulus(n);
    NttTables t(n, q);
    MatrixNtt mntt(t, radix);
    Rng rng(n + radix);
    auto a = rng.uniform_vec(n, q.value());
    auto ref = a;
    t.forward(ref.data());
    auto got = a;
    mntt.forward(got.data(), scalar_mm);
    EXPECT_EQ(got, ref);
    mntt.inverse(got.data(), scalar_mm);
    EXPECT_EQ(got, a);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixNttTest,
    ::testing::Values(std::make_tuple(64, 8),    // four-step n1=n2=8
                      std::make_tuple(256, 16),  // four-step 16x16
                      std::make_tuple(1024, 16), // mixed 16,16,4
                      std::make_tuple(4096, 16), // radix-16 ten-step style
                      std::make_tuple(4096, 64), // four-step 64x64
                      std::make_tuple(256, 4),
                      std::make_tuple(32, 2)));

TEST(MatrixNtt, Radix16ComplexityMatchesPaper)
{
    // Paper §4.4: at N = 2^16 the four-step NTT costs 2^25 matmul MACs
    // (2 x 256x256x256... it reports 2^24 per stage) while radix-16
    // costs 2^22 total.
    const size_t n = 1 << 16;
    Modulus q = test_modulus(n);
    NttTables t(n, q);

    MatrixNtt four_step(t, 256);
    EXPECT_EQ(four_step.complexity().matmul_macs, 1ULL << 25);
    EXPECT_EQ(four_step.complexity().matmul_stages, 2u);

    MatrixNtt radix16(t, 16);
    EXPECT_EQ(radix16.complexity().matmul_macs, 1ULL << 22);
    EXPECT_EQ(radix16.complexity().matmul_stages, 4u);
}

TEST(MatrixNtt, OneGemmCallPerStage)
{
    // Batched schedule: a traced transform issues exactly
    // complexity().matmul_stages engine calls at every ring size, fused
    // or not — the host runs the per-stage schedule the model prices.
    for (size_t n : {1u << 8, 1u << 10, 1u << 12, 1u << 14}) {
        Modulus q = test_modulus(n);
        NttTables t(n, q);
        MatrixNtt mntt(t, 16);
        const u64 stages = mntt.complexity().matmul_stages;
        Rng rng(n + 1);
        auto a = rng.uniform_vec(n, q.value());
        for (bool fuse : {false, true}) {
            {
                obs::Scope scope;
                mntt.forward(a.data(), scalar_mm, fuse);
                EXPECT_EQ(scope.counter("span.gemm"), stages)
                    << "forward n=" << n << " fuse=" << fuse;
            }
            obs::Scope scope;
            mntt.inverse(a.data(), scalar_mm, fuse);
            EXPECT_EQ(scope.counter("span.gemm"), stages)
                << "inverse n=" << n << " fuse=" << fuse;
        }
    }
}

TEST(MatrixNtt, FullRingDegreeRoundTrip)
{
    // One sanity run at the paper's production degree N = 2^16.
    const size_t n = 1 << 16;
    Modulus q = test_modulus(n);
    NttTables t(n, q);
    MatrixNtt mntt(t, 16);
    Rng rng(99);
    auto a = rng.uniform_vec(n, q.value());
    auto got = a;
    mntt.forward(got.data(), scalar_mm);
    auto ref = a;
    t.forward(ref.data());
    EXPECT_EQ(got, ref);
}

TEST(RnsPoly, AddSubNegate)
{
    auto primes = generate_ntt_primes(36, 3, 64);
    std::vector<Modulus> mods(primes.begin(), primes.end());
    RnsPoly a(64, mods), b(64, mods);
    Rng rng(1);
    for (size_t i = 0; i < a.limbs(); ++i)
        for (size_t l = 0; l < 64; ++l) {
            a.limb(i)[l] = rng.uniform(primes[i]);
            b.limb(i)[l] = rng.uniform(primes[i]);
        }
    RnsPoly c = a;
    c.add_inplace(b);
    c.sub_inplace(b);
    EXPECT_TRUE(std::equal(c.data(), c.data() + 3 * 64, a.data()));
    RnsPoly d = a;
    d.negate_inplace();
    d.add_inplace(a);
    for (size_t i = 0; i < 3 * 64; ++i)
        EXPECT_EQ(d.data()[i], 0u);
}

TEST(RnsPoly, NttTableSetRoundTrip)
{
    const size_t n = 256;
    auto primes = generate_ntt_primes(36, 3, n);
    std::vector<Modulus> mods(primes.begin(), primes.end());
    NttTableSet tables(n, mods);
    RnsPoly a(n, mods);
    Rng rng(2);
    for (size_t i = 0; i < a.limbs(); ++i)
        for (size_t l = 0; l < n; ++l)
            a.limb(i)[l] = rng.uniform(primes[i]);
    RnsPoly b = a;
    tables.to_eval(b);
    EXPECT_EQ(b.form(), PolyForm::eval);
    tables.to_coeff(b);
    EXPECT_TRUE(std::equal(a.data(), a.data() + 3 * n, b.data()));
}

TEST(RnsPoly, MulAddProduct)
{
    const size_t n = 64;
    auto primes = generate_ntt_primes(36, 2, n);
    std::vector<Modulus> mods(primes.begin(), primes.end());
    NttTableSet tables(n, mods);
    Rng rng(3);
    RnsPoly a(n, mods), b(n, mods);
    for (size_t i = 0; i < 2; ++i)
        for (size_t l = 0; l < n; ++l) {
            a.limb(i)[l] = rng.uniform(primes[i]);
            b.limb(i)[l] = rng.uniform(primes[i]);
        }
    // Reference negacyclic product on limb 0.
    std::vector<u64> a0(a.limb(0), a.limb(0) + n);
    std::vector<u64> b0(b.limb(0), b.limb(0) + n);
    auto expected = negacyclic_convolve(a0, b0, mods[0]);

    tables.to_eval(a);
    tables.to_eval(b);
    RnsPoly c = a;
    c.mul_inplace(b);
    // add_product: acc += a*b should equal 2*c.
    RnsPoly acc = c;
    acc.add_product(a, b);
    tables.to_coeff(c);
    for (size_t l = 0; l < n; ++l)
        EXPECT_EQ(c.limb(0)[l], expected[l]);
    tables.to_coeff(acc);
    for (size_t l = 0; l < n; ++l)
        EXPECT_EQ(acc.limb(0)[l], mods[0].add(expected[l], expected[l]));
}

TEST(Automorphism, CoeffEvalConsistency)
{
    const size_t n = 128;
    Modulus q = test_modulus(n);
    NttTables t(n, q);
    Rng rng(4);
    auto a = rng.uniform_vec(n, q.value());
    for (u64 g : {u64{3}, u64{5}, u64{25}, u64{2 * n - 1}}) {
        // Path 1: automorphism in coefficient domain, then NTT.
        std::vector<u64> via_coeff(n);
        automorphism_coeff(a.data(), via_coeff.data(), n, g, q);
        t.forward(via_coeff.data());
        // Path 2: NTT, then automorphism in eval domain.
        auto via_eval_in = a;
        t.forward(via_eval_in.data());
        std::vector<u64> via_eval(n);
        automorphism_eval(via_eval_in.data(), via_eval.data(), n, g, q);
        EXPECT_EQ(via_coeff, via_eval) << "g=" << g;
    }
    // An odd element at or above 2^63 acts as itself mod 2n in both
    // domains: its index products wrap mod 2^64, a multiple of 2n.
    auto a_eval = a;
    t.forward(a_eval.data());
    for (u64 g : {(u64{1} << 63) + 5, ~u64{0}}) {
        const u64 g_mod = g % (2 * n);
        std::vector<u64> big(n), small(n);
        automorphism_coeff(a.data(), big.data(), n, g, q);
        automorphism_coeff(a.data(), small.data(), n, g_mod, q);
        EXPECT_EQ(big, small) << "coeff g=" << g;
        automorphism_eval(a_eval.data(), big.data(), n, g, q);
        automorphism_eval(a_eval.data(), small.data(), n, g_mod, q);
        EXPECT_EQ(big, small) << "eval g=" << g;
    }
}

TEST(Automorphism, IdentityAndComposition)
{
    const size_t n = 64;
    Modulus q = test_modulus(n);
    Rng rng(6);
    auto a = rng.uniform_vec(n, q.value());
    std::vector<u64> out(n);
    automorphism_coeff(a.data(), out.data(), n, 1, q);
    EXPECT_EQ(out, a);
    // σ_5 ∘ σ_5 == σ_25.
    std::vector<u64> s5(n), s55(n), s25(n);
    automorphism_coeff(a.data(), s5.data(), n, 5, q);
    automorphism_coeff(s5.data(), s55.data(), n, 5, q);
    automorphism_coeff(a.data(), s25.data(), n, 25, q);
    EXPECT_EQ(s55, s25);
}

TEST(Automorphism, RnsPolyWrapper)
{
    const size_t n = 64;
    auto primes = generate_ntt_primes(36, 2, n);
    std::vector<Modulus> mods(primes.begin(), primes.end());
    RnsPoly a(n, mods);
    a.limb(0)[1] = 1;
    a.limb(1)[1] = 1;
    RnsPoly b = automorphism(a, 5); // X -> X^5
    EXPECT_EQ(b.limb(0)[5], 1u);
    EXPECT_EQ(b.limb(1)[5], 1u);
    EXPECT_EQ(b.limb(0)[1], 0u);
}

TEST(NegacyclicConvolveReference, Small)
{
    Modulus q(97);
    // (1 + X) * (1 + X) = 1 + 2X + X^2 in Z97[X]/(X^4+1).
    std::vector<u64> a = {1, 1, 0, 0};
    auto c = negacyclic_convolve(a, a, q);
    EXPECT_EQ(c, (std::vector<u64>{1, 2, 1, 0}));
    // X^3 * X = -1.
    std::vector<u64> x3 = {0, 0, 0, 1}, x1 = {0, 1, 0, 0};
    auto w = negacyclic_convolve(x3, x1, q);
    EXPECT_EQ(w, (std::vector<u64>{96, 0, 0, 0}));
}

} // namespace
} // namespace neo
