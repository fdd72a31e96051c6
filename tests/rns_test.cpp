#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "rns/base_convert.h"
#include "rns/basis.h"
#include "rns/partition.h"
#include "rns/primes.h"

#include "isa_sweep.h"

namespace neo {
namespace {

TEST(Primes, MillerRabinKnownValues)
{
    EXPECT_FALSE(is_prime(0));
    EXPECT_FALSE(is_prime(1));
    EXPECT_TRUE(is_prime(2));
    EXPECT_TRUE(is_prime(3));
    EXPECT_FALSE(is_prime(4));
    EXPECT_TRUE(is_prime(65537));
    EXPECT_FALSE(is_prime(65536));
    EXPECT_TRUE(is_prime(1000000007ULL));
    EXPECT_FALSE(is_prime(1000000007ULL * 998244353ULL));
    EXPECT_TRUE(is_prime(18446744073709551557ULL)); // largest 64-bit prime
}

TEST(Primes, GeneratedPrimesAreNttFriendly)
{
    const u64 n = 1 << 12;
    for (int bits : {30, 36, 48, 60}) {
        auto primes = generate_ntt_primes(bits, 5, n);
        ASSERT_EQ(primes.size(), 5u);
        for (u64 p : primes) {
            EXPECT_TRUE(is_prime(p));
            EXPECT_EQ(bit_size(p), bits);
            EXPECT_EQ((p - 1) % (2 * n), 0u);
        }
        // Distinct.
        for (size_t i = 0; i < primes.size(); ++i)
            for (size_t j = i + 1; j < primes.size(); ++j)
                EXPECT_NE(primes[i], primes[j]);
    }
}

TEST(Primes, AvoidListRespected)
{
    const u64 n = 1 << 10;
    auto first = generate_ntt_primes(36, 3, n);
    auto second = generate_ntt_primes(36, 3, n, first);
    for (u64 p : second)
        for (u64 a : first)
            EXPECT_NE(p, a);
}

TEST(Primes, PrimitiveRootHasExactOrder)
{
    auto primes = generate_ntt_primes(36, 2, 1 << 12);
    for (u64 q : primes) {
        const u64 two_n = 2ULL << 12;
        u64 g = find_primitive_root(q, two_n);
        EXPECT_EQ(pow_mod(g, two_n, q), 1u);
        EXPECT_EQ(pow_mod(g, two_n / 2, q), q - 1);
    }
}

TEST(Modulus, MulAddSubPow)
{
    auto primes = generate_ntt_primes(48, 1, 1 << 10);
    Modulus q(primes[0]);
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        u64 a = rng.uniform(q.value());
        u64 b = rng.uniform(q.value());
        EXPECT_EQ(q.mul(a, b), mul_mod(a, b, q.value()));
        EXPECT_EQ(q.add(a, b), (a + b) % q.value());
        EXPECT_EQ(q.sub(a, q.add(a, b)),
                  b == 0 ? 0 : q.value() - b);
    }
    EXPECT_EQ(q.mul(q.inv(12345), 12345), 1u);
}

TEST(Modulus, BarrettMultiplicationMatchesExact)
{
    Rng rng(7);
    for (int bits : {30, 36, 48, 60, 62}) {
        auto primes = generate_ntt_primes(bits, 1, 1 << 10);
        Modulus q(primes[0]);
        for (int i = 0; i < 500; ++i) {
            u64 a = rng.uniform(q.value());
            u64 b = rng.uniform(q.value());
            EXPECT_EQ(q.mul_barrett(a, b), q.mul(a, b))
                << "bits=" << bits << " a=" << a << " b=" << b;
        }
        // Extremes.
        EXPECT_EQ(q.mul_barrett(q.value() - 1, q.value() - 1),
                  q.mul(q.value() - 1, q.value() - 1));
        EXPECT_EQ(q.mul_barrett(0, q.value() - 1), 0u);
        EXPECT_EQ(q.mul_barrett(1, 1), 1u);
    }
}

TEST(Modulus, BarrettReduce128Range)
{
    auto primes = generate_ntt_primes(48, 1, 1 << 10);
    Modulus q(primes[0]);
    Rng rng(8);
    for (int i = 0; i < 300; ++i) {
        // Any x < q * 2^64.
        u128 x = (static_cast<u128>(rng.uniform(q.value())) << 64) ^
                 rng.next();
        EXPECT_EQ(q.barrett_reduce(x),
                  static_cast<u64>(x % q.value()));
    }
}

TEST(Modulus, ShoupMultiplication)
{
    auto primes = generate_ntt_primes(60, 1, 1 << 10);
    Modulus q(primes[0]);
    Rng rng(2);
    for (int i = 0; i < 500; ++i) {
        u64 w = rng.uniform(q.value());
        u64 ws = shoup_precompute(w, q.value());
        u64 a = rng.uniform(q.value());
        EXPECT_EQ(mul_shoup(a, w, ws, q.value()), q.mul(a, w));
    }
}

class RnsBasisTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RnsBasisTest, PuncturedProductsConsistent)
{
    const int bits = GetParam();
    auto primes = generate_ntt_primes(bits, 4, 1 << 10);
    RnsBasis basis(primes);
    EXPECT_EQ(basis.size(), 4u);
    EXPECT_NEAR(basis.log2_product(), 4.0 * bits, 4.0);
    for (size_t i = 0; i < basis.size(); ++i) {
        // (B/b_i) * punc_inv(i) == 1 mod b_i.
        u64 prod = basis.punc_prod_mod(i, basis[i]);
        EXPECT_EQ(basis[i].mul(prod, basis.punc_inv(i)), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(WordSizes, RnsBasisTest,
                         ::testing::Values(30, 36, 48, 60));

TEST(RnsBasis, SliceAndConcat)
{
    auto primes = generate_ntt_primes(36, 6, 1 << 10);
    RnsBasis basis(primes);
    RnsBasis lo = basis.slice(0, 4);
    RnsBasis hi = basis.slice(4, 2);
    RnsBasis back = lo.concat(hi);
    EXPECT_EQ(back.size(), 6u);
    for (size_t i = 0; i < 6; ++i)
        EXPECT_EQ(back[i].value(), basis[i].value());
    EXPECT_THROW(basis.slice(4, 4), std::invalid_argument);
    EXPECT_THROW(lo.concat(lo), std::invalid_argument);
}

TEST(BaseConverter, ApproxConversionIsCorrectUpToBMultiple)
{
    auto p1 = generate_ntt_primes(30, 3, 1 << 10);
    auto p2 = generate_ntt_primes(31, 3, 1 << 10);
    RnsBasis from(p1), to(p2);
    BaseConverter conv(from, to);
    Rng rng(3);
    const size_t n = 16;

    // Build random values < B as RNS residues.
    std::vector<u64> in(3 * n), out(3 * n);
    std::vector<u128> truth(n);
    u128 big = 1;
    for (u64 p : p1)
        big *= p;
    for (size_t l = 0; l < n; ++l) {
        u128 v = (static_cast<u128>(rng.next()) << 32) ^ rng.next();
        v %= big;
        truth[l] = v;
        for (size_t i = 0; i < 3; ++i)
            in[i * n + l] = static_cast<u64>(v % p1[i]);
    }
    for_each_isa([&] {
        conv.convert_approx(in.data(), n, out.data());
        for (size_t l = 0; l < n; ++l) {
            for (size_t j = 0; j < 3; ++j) {
                u64 got = out[j * n + l];
                // got == truth + u*B mod t_j for some 0 <= u < 3.
                bool ok = false;
                for (u64 u = 0; u < 3; ++u) {
                    u128 cand = (truth[l] + u * big) % p2[j];
                    if (got == static_cast<u64>(cand))
                        ok = true;
                }
                EXPECT_TRUE(ok) << "coef " << l << " limb " << j;
            }
        }
    });
}

TEST(BaseConverter, ExactConversionRecoversCenteredValue)
{
    auto p1 = generate_ntt_primes(30, 3, 1 << 10);
    auto p2 = generate_ntt_primes(31, 4, 1 << 10);
    RnsBasis from(p1), to(p2);
    BaseConverter conv(from, to);
    Rng rng(4);
    const size_t n = 64;

    u128 big = 1;
    for (u64 p : p1)
        big *= p;

    std::vector<u64> in(3 * n), out(4 * n);
    std::vector<i128> truth(n);
    for (size_t l = 0; l < n; ++l) {
        // Centered values spanning nearly the full (-B/2, B/2) range.
        u128 mag = ((static_cast<u128>(rng.next()) << 32) ^ rng.next()) %
                   (big / 2 - 1);
        i128 v = (rng.next() & 1) ? -static_cast<i128>(mag)
                                  : static_cast<i128>(mag);
        truth[l] = v;
        u128 vmod = v < 0 ? big - static_cast<u128>(-v) : static_cast<u128>(v);
        for (size_t i = 0; i < 3; ++i)
            in[i * n + l] = static_cast<u64>(vmod % p1[i]);
    }
    for_each_isa([&] {
        conv.convert_exact(in.data(), n, out.data());
        for (size_t l = 0; l < n; ++l) {
            for (size_t j = 0; j < 4; ++j) {
                i128 t = truth[l] % static_cast<i128>(p2[j]);
                if (t < 0)
                    t += p2[j];
                EXPECT_EQ(out[j * n + l], static_cast<u64>(t))
                    << "coef " << l << " limb " << j;
            }
        }
    });
}

TEST(BaseConverter, ExactConversionZeroAndEdges)
{
    auto p1 = generate_ntt_primes(36, 2, 1 << 10);
    auto p2 = generate_ntt_primes(36, 2, 1 << 10, p1);
    RnsBasis from(p1), to(p2);
    BaseConverter conv(from, to);
    const size_t n = 4;
    std::vector<u64> in(2 * n, 0);
    // coefficient 1: value 1; coefficient 2: value -1 (i.e., B-1).
    in[0 * n + 1] = 1;
    in[1 * n + 1] = 1;
    in[0 * n + 2] = p1[0] - 1;
    in[1 * n + 2] = p1[1] - 1;
    for_each_isa([&] {
        std::vector<u64> out(2 * n, 99);
        conv.convert_exact(in.data(), n, out.data());
        for (size_t j = 0; j < 2; ++j) {
            EXPECT_EQ(out[j * n + 0], 0u);
            EXPECT_EQ(out[j * n + 1], 1u);
            EXPECT_EQ(out[j * n + 2], p2[j] - 1);
        }
    });
}

TEST(BaseConverter, LanesMatchPortableAtEveryWidth)
{
    // Both conversions at every ISA level against the portable scalar
    // loops. Source and target widths straddle the lanes' 2^50 bound
    // (a converter takes the lanes only when every modulus is below
    // it), and n = 61 leaves a ragged tail of 5 words.
    const size_t n = 61;
    for (int from_bits : {36, 48, 49, 50, 51, 60}) {
        for (int to_bits : {36, 48, 49, 50, 51, 60}) {
            for (int k : {1, 3, 18}) {
                SCOPED_TRACE(::testing::Message()
                             << "from=" << from_bits << " to=" << to_bits
                             << " k=" << k);
                const auto p1 = generate_ntt_primes(from_bits, k, 1 << 10);
                const auto p2 =
                    generate_ntt_primes(to_bits, 4, 1 << 10, p1);
                const BaseConverter conv{RnsBasis(p1), RnsBasis(p2)};
                Rng rng(static_cast<u64>(from_bits * 100 + to_bits + k));
                std::vector<u64> in(k * n);
                for (size_t i = 0; i < p1.size(); ++i)
                    for (size_t l = 0; l < n; ++l)
                        in[i * n + l] = rng.next() % p1[i];
                // Every residue b_i − 1 in the last coefficient.
                for (size_t i = 0; i < p1.size(); ++i)
                    in[i * n + n - 1] = p1[i] - 1;
                std::vector<u64> approx(4 * n), exact(4 * n);
                const Isa prev = force_isa_for_testing(Isa::portable);
                conv.convert_approx(in.data(), n, approx.data());
                conv.convert_exact(in.data(), n, exact.data());
                force_isa_for_testing(prev);
                for_each_isa([&] {
                    std::vector<u64> a(4 * n), e(4 * n);
                    conv.convert_approx(in.data(), n, a.data());
                    conv.convert_exact(in.data(), n, e.data());
                    EXPECT_EQ(a, approx);
                    EXPECT_EQ(e, exact);
                });
            }
        }
    }
}

// Both conversions against a per-term u128 reference: every term
// x_i·(B/b_i)^{-1} mod b_i is reduced mod t_j, multiplied by
// [B/b_i]_{t_j} in 128 bits and folded, and the exact variant subtracts
// (r mod t_j)·[B]_{t_j} with r rounded exactly as convert_exact does.
// 46 source primes is Set H's widest BConv source basis.
class BaseConverterDiffTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BaseConverterDiffTest, MatchesPerTermU128Reference)
{
    const int bits = GetParam();
    const size_t k = 46, m = 5, n = 64;
    const auto primes = generate_ntt_primes(bits, static_cast<int>(k + m),
                                            1 << 10);
    const std::vector<u64> p1(primes.begin(), primes.begin() + k);
    const std::vector<u64> p2(primes.begin() + k, primes.end());
    RnsBasis from(p1), to(p2);
    BaseConverter conv(from, to);
    Rng rng(static_cast<u64>(bits) + 900);
    std::vector<u64> in(k * n);
    for (size_t i = 0; i < k; ++i)
        for (size_t l = 0; l < n; ++l)
            in[i * n + l] = rng.next() % p1[i];
    // Every residue q-1 in the last coefficient: the widest terms.
    for (size_t i = 0; i < k; ++i)
        in[i * n + n - 1] = p1[i] - 1;

    std::vector<u64> approx(m * n), exact(m * n);
    conv.convert_approx(in.data(), n, approx.data());
    conv.convert_exact(in.data(), n, exact.data());
    for (size_t l = 0; l < n; ++l) {
        long double v = 0.0L;
        for (size_t i = 0; i < k; ++i) {
            const u64 y = from[i].mul(in[i * n + l], from.punc_inv(i));
            v += static_cast<long double>(y) *
                 (1.0 / static_cast<double>(p1[i]));
        }
        const u64 r = static_cast<u64>(llroundl(v));
        for (size_t j = 0; j < m; ++j) {
            const Modulus &tj = to[j];
            u128 acc = 0;
            for (size_t i = 0; i < k; ++i) {
                const u64 y = from[i].mul(in[i * n + l], from.punc_inv(i));
                acc = (acc + static_cast<u128>(y % p2[j]) *
                                 conv.factor(i, j)) %
                      p2[j];
            }
            const u64 want = static_cast<u64>(acc);
            EXPECT_EQ(approx[j * n + l], want) << "coef " << l << " limb " << j;
            const u64 corr = static_cast<u64>(
                static_cast<u128>(r % p2[j]) * conv.product_mod_to(j) % p2[j]);
            EXPECT_EQ(exact[j * n + l], tj.sub(want, corr))
                << "coef " << l << " limb " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(WordSizes, BaseConverterDiffTest,
                         ::testing::Values(30, 36, 48, 60));

TEST(Partition, GroupsCoverRange)
{
    auto groups = make_partition(10, 4);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].first, 0u);
    EXPECT_EQ(groups[0].count, 4u);
    EXPECT_EQ(groups[2].first, 8u);
    EXPECT_EQ(groups[2].count, 2u);
}

TEST(Partition, ExactDivision)
{
    auto groups = make_partition(36, 4);
    EXPECT_EQ(groups.size(), 9u);
    for (const auto &g : groups)
        EXPECT_EQ(g.count, 4u);
}

} // namespace
} // namespace neo
