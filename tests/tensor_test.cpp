#include <gtest/gtest.h>

#include <ostream>
#include <utility>

#include "common/random.h"
#include "poly/matrix_ntt.h"
#include "rns/primes.h"
#include "tensor/bitslice.h"
#include "tensor/gemm.h"
#include "tensor/layout.h"

namespace neo {
namespace {

TEST(BitSlice, Fp64SplitMatchesPaperExamples)
{
    // §3.4: 36-bit operands, K = 16 -> keep A whole, slice B into
    // three 12-bit planes; 3 FP64 GEMMs total.
    SplitPlan p36 = choose_fp64_split(36, 36, 16);
    EXPECT_EQ(p36.products(), 3);
    EXPECT_EQ(p36.a_planes, 1);
    EXPECT_EQ(p36.b_planes, 3);
    EXPECT_LE(p36.a_plane_bits + p36.b_plane_bits + 4, 53);

    // 48-bit operands -> 2 x 2 = 4 GEMMs ("FP64 complexity of 4").
    SplitPlan p48 = choose_fp64_split(48, 48, 16);
    EXPECT_EQ(p48.products(), 4);
    EXPECT_EQ(p48.a_planes, 2);
    EXPECT_EQ(p48.b_planes, 2);
    EXPECT_LE(p48.a_plane_bits + p48.b_plane_bits + 4, 53);
}

TEST(BitSlice, Int8SplitMatchesPaperExamples)
{
    // §3.4: 36-bit -> 5 planes each side -> 25 GEMMs; 48-bit -> 36.
    EXPECT_EQ(choose_int8_split(36, 36, 16).products(), 25);
    EXPECT_EQ(choose_int8_split(48, 48, 16).products(), 36);
}

TEST(BitSlice, Fp64SplitAlwaysExact)
{
    for (int w : {30, 36, 42, 48, 54, 60, 64}) {
        for (size_t k : {4u, 8u, 16u, 36u}) {
            SplitPlan p = choose_fp64_split(w, w, k);
            int kbits = k <= 1 ? 0 : bit_size(k - 1);
            EXPECT_LE(p.a_plane_bits + p.b_plane_bits + kbits, 53)
                << "w=" << w << " k=" << k;
            EXPECT_GE(p.a_planes * p.a_plane_bits, w);
            EXPECT_GE(p.b_planes * p.b_plane_bits, w);
        }
    }
}

TEST(BitSlice, PlanesReconstructValue)
{
    Rng rng(1);
    std::vector<u64> in(32);
    for (auto &x : in)
        x = rng.next() & ((1ULL << 48) - 1);
    SplitPlan p = choose_fp64_split(48, 48, 16);
    std::vector<double> planes(static_cast<size_t>(p.a_planes) * 32);
    slice_planes(in.data(), 32, p.a_planes, p.a_plane_bits, planes.data());
    for (size_t i = 0; i < 32; ++i) {
        u64 v = 0;
        for (int pl = p.a_planes - 1; pl >= 0; --pl) {
            v <<= p.a_plane_bits;
            v += static_cast<u64>(planes[static_cast<size_t>(pl) * 32 + i]);
        }
        EXPECT_EQ(v, in[i]);
    }
}

class SlicedGemmTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SlicedGemmTest, Fp64PathBitExactAgainstScalar)
{
    const int bits = GetParam();
    Modulus q(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    Rng rng(bits);
    const size_t m = 24, n = 16, k = 16;
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    std::vector<u64> ref(m * n), got(m * n);
    scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
    fp64_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
}

TEST_P(SlicedGemmTest, Int8PathBitExactAgainstScalar)
{
    const int bits = GetParam();
    Modulus q(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    Rng rng(bits + 100);
    const size_t m = 8, n = 8, k = 16;
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    std::vector<u64> ref(m * n), got(m * n);
    scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
    int8_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(WordSizes, SlicedGemmTest,
                         ::testing::Values(30, 36, 48, 60));

TEST(SlicedGemm, MaximalOperandsStayExact)
{
    // Adversarial case: all entries q-1, the largest possible values.
    Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
    const size_t m = 4, n = 4, k = 16;
    std::vector<u64> a(m * k, q.value() - 1), b(k * n, q.value() - 1);
    std::vector<u64> ref(m * n), got(m * n);
    scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
    fp64_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
    int8_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
}

TEST(SlicedGemm, OddShapes)
{
    Modulus q(generate_ntt_primes(36, 1, 1 << 10)[0]);
    Rng rng(7);
    for (auto [m, n, k] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                           {3, 5, 7},
                           {17, 9, 4},
                           {2, 33, 8}}) {
        auto a = rng.uniform_vec(m * k, q.value());
        auto b = rng.uniform_vec(k * n, q.value());
        std::vector<u64> ref(m * n), got(m * n);
        scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
        fp64_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
        EXPECT_EQ(got, ref) << m << "x" << n << "x" << k;
    }
}

// ---------------------------------------------------------------------
// ISA differential: the FP64 engines at every plane-kernel level, and
// the INT8 engines, are bit-exact against the scalar references
// ---------------------------------------------------------------------

/// Run @p fn once per ISA level the host supports, forced through the
/// test hook; the host's own level is restored afterwards.
template <class Fn>
void
for_each_isa(Fn &&fn)
{
    const GemmIsa top = gemm_isa_supported();
    for (int lvl = 0; lvl <= static_cast<int>(top); ++lvl) {
        const GemmIsa isa = static_cast<GemmIsa>(lvl);
        const GemmIsa prev = force_gemm_isa_for_testing(isa);
        SCOPED_TRACE(gemm_isa_name(isa));
        fn();
        force_gemm_isa_for_testing(prev);
    }
}

struct Shape
{
    size_t m, n, k;
};

std::ostream &
operator<<(std::ostream &os, const Shape &s)
{
    return os << s.m << "x" << s.n << "x" << s.k;
}

class IsaDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(IsaDifferentialTest, SingleModulusMatchesScalar)
{
    const int bits = GetParam();
    Modulus q(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    Rng rng(bits + 300);
    // Batched-NTT stage and base shapes, then ragged edges: m mod 4 ≠
    // 0, n mod 16 ≠ 0, and K past one 256-deep KC slab.
    for (const Shape s : {Shape{16, 1024, 16}, Shape{4096, 4, 4},
                          Shape{7, 37, 16}, Shape{13, 21, 300},
                          Shape{5, 19, 257}, Shape{1, 3, 1}}) {
        auto a = rng.uniform_vec(s.m * s.k, q.value());
        auto b = rng.uniform_vec(s.k * s.n, q.value());
        std::vector<u64> ref(s.m * s.n), got(s.m * s.n);
        scalar_mod_matmul(a.data(), b.data(), ref.data(), s.m, s.n, s.k, q);
        for_each_isa([&] {
            fp64_sliced_matmul(a.data(), b.data(), got.data(), s.m, s.n,
                               s.k, q);
            EXPECT_EQ(got, ref) << s;
            int8_sliced_matmul(a.data(), b.data(), got.data(), s.m, s.n,
                               s.k, q);
            EXPECT_EQ(got, ref) << "int8 " << s;
        });
    }
}

TEST_P(IsaDifferentialTest, PerColumnMatchesScalar)
{
    const int bits = GetParam();
    const auto primes = generate_ntt_primes(bits, 3, 1 << 10);
    Rng rng(bits + 400);
    // scalar_matmul_cols accumulates in u128, so K stays ≤ 64 here.
    for (const Shape s : {Shape{16, 1024, 16}, Shape{4096, 4, 4},
                          Shape{7, 37, 16}, Shape{13, 21, 64}}) {
        std::vector<Modulus> mods;
        for (size_t j = 0; j < s.n; ++j)
            mods.emplace_back(primes[j % primes.size()]);
        auto a = rng.uniform_vec(s.m * s.k, primes[0]);
        auto b = rng.uniform_vec(s.k * s.n, primes[0]);
        std::vector<u64> ref(s.m * s.n), got(s.m * s.n);
        scalar_matmul_cols(a.data(), b.data(), ref.data(), s.m, s.n, s.k,
                           mods);
        for_each_isa([&] {
            fp64_sliced_matmul_cols(a.data(), b.data(), got.data(), s.m,
                                    s.n, s.k, mods);
            EXPECT_EQ(got, ref) << s;
            int8_sliced_matmul_cols(a.data(), b.data(), got.data(), s.m,
                                    s.n, s.k, mods);
            EXPECT_EQ(got, ref) << "int8 " << s;
        });
    }
}

TEST_P(IsaDifferentialTest, PerSiteMatchesScalar)
{
    const int bits = GetParam();
    const auto primes = generate_ntt_primes(bits, 3, 1 << 10);
    const std::vector<Modulus> mods(primes.begin(), primes.end());
    Rng rng(bits + 500);
    // (sites, shape): IP-like sites, ragged sites, a deep K.
    for (const auto &[sites, s] :
         {std::pair<size_t, Shape>{1024, Shape{4, 4, 4}},
          {37, Shape{3, 5, 7}},
          {3, Shape{2, 3, 300}}}) {
        auto a = rng.uniform_vec(sites * s.m * s.k, primes[0]);
        auto b = rng.uniform_vec(sites * s.k * s.n, primes[0]);
        std::vector<u64> ref(sites * s.m * s.n), got(sites * s.m * s.n);
        scalar_matmul_sites(a.data(), b.data(), ref.data(), sites, s.m, s.n,
                            s.k, mods);
        for_each_isa([&] {
            fp64_sliced_matmul_sites(a.data(), b.data(), got.data(), sites,
                                     s.m, s.n, s.k, mods);
            EXPECT_EQ(got, ref) << sites << " sites of " << s;
            int8_sliced_matmul_sites(a.data(), b.data(), got.data(), sites,
                                     s.m, s.n, s.k, mods);
            EXPECT_EQ(got, ref) << "int8 " << sites << " sites of " << s;
        });
    }
}

INSTANTIATE_TEST_SUITE_P(WordSizes, IsaDifferentialTest,
                         ::testing::Values(30, 36, 48, 60));

TEST(GemmIsa, HookForcesSupportedLevelsOnly)
{
    // The host runs at its highest level until a test forces another.
    const GemmIsa prev = force_gemm_isa_for_testing(GemmIsa::portable);
    EXPECT_EQ(prev, gemm_isa_supported());
    EXPECT_EQ(force_gemm_isa_for_testing(prev), GemmIsa::portable);
    if (gemm_isa_supported() != GemmIsa::avx512) {
        EXPECT_THROW(force_gemm_isa_for_testing(GemmIsa::avx512),
                     std::invalid_argument);
    }
}

TEST(SlicedGemm, MatrixNttThroughFp64TcuMatchesScalar)
{
    // The paper's NTT-on-TCU: radix-16 NTT with all matmuls routed
    // through the FP64-sliced GEMM must equal the radix-2 reference.
    const size_t n = 1024;
    Modulus q(generate_ntt_primes(48, 1, n)[0]);
    NttTables t(n, q);
    MatrixNtt mntt(t, 16);
    Rng rng(11);
    auto a = rng.uniform_vec(n, q.value());
    auto ref = a;
    t.forward(ref.data());
    auto got = a;
    mntt.forward(got.data(), fp64_tcu_matmul());
    EXPECT_EQ(got, ref);
    mntt.inverse(got.data(), fp64_tcu_matmul());
    EXPECT_EQ(got, a);
}

TEST(SlicedGemm, MatrixNttThroughInt8TcuMatchesScalar)
{
    const size_t n = 256;
    Modulus q(generate_ntt_primes(36, 1, n)[0]);
    NttTables t(n, q);
    MatrixNtt mntt(t, 16);
    Rng rng(12);
    auto a = rng.uniform_vec(n, q.value());
    auto ref = a;
    t.forward(ref.data());
    auto got = a;
    mntt.forward(got.data(), int8_tcu_matmul());
    EXPECT_EQ(got, ref);
}

TEST(Layout, Reorder3dRoundTrip)
{
    const size_t d0 = 3, d1 = 4, d2 = 5;
    Rng rng(2);
    auto in = rng.uniform_vec(d0 * d1 * d2, 1000);
    std::vector<u64> mid(in.size()), back(in.size());
    reorder_3d_swap02(in.data(), d0, d1, d2, mid.data());
    // Element check: out[l][b][i] == in[i][b][l].
    for (size_t i = 0; i < d0; ++i)
        for (size_t b = 0; b < d1; ++b)
            for (size_t l = 0; l < d2; ++l)
                EXPECT_EQ(mid[(l * d1 + b) * d0 + i],
                          in[(i * d1 + b) * d2 + l]);
    reorder_3d_swap02(mid.data(), d2, d1, d0, back.data());
    EXPECT_EQ(back, in);
}

TEST(Layout, Reorder4dSwap03RoundTrip)
{
    const size_t d0 = 2, d1 = 3, d2 = 4, d3 = 5;
    Rng rng(3);
    auto in = rng.uniform_vec(d0 * d1 * d2 * d3, 1000);
    std::vector<u64> mid(in.size()), back(in.size());
    reorder_4d_swap03(in.data(), d0, d1, d2, d3, mid.data());
    reorder_4d_swap03(mid.data(), d3, d1, d2, d0, back.data());
    EXPECT_EQ(back, in);
}

TEST(Layout, Reorder4dReverseRoundTrip)
{
    const size_t d0 = 2, d1 = 3, d2 = 4, d3 = 5;
    Rng rng(4);
    auto in = rng.uniform_vec(d0 * d1 * d2 * d3, 1000);
    std::vector<u64> mid(in.size()), back(in.size());
    reorder_4d_reverse(in.data(), d0, d1, d2, d3, mid.data());
    reorder_4d_reverse(mid.data(), d3, d2, d1, d0, back.data());
    EXPECT_EQ(back, in);
}

} // namespace
} // namespace neo
