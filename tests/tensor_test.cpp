#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "poly/matrix_ntt.h"
#include "rns/primes.h"
#include "tensor/bitslice.h"
#include "tensor/gemm.h"
#include "tensor/layout.h"

#include "isa_sweep.h"

namespace neo {

// Outside the anonymous namespace, so argument-dependent lookup finds
// it for GemmShape.
std::ostream &
operator<<(std::ostream &os, const GemmShape &s)
{
    if (s.sites != 1)
        os << s.sites << " sites of ";
    return os << s.m << "x" << s.n << "x" << s.k;
}

namespace {

/// C of one gemm() call on @p e, pre-filled with a sentinel so an
/// output the engine leaves unwritten shows.
std::vector<u64>
run(EngineId e, const std::vector<u64> &a, const std::vector<u64> &b,
    const GemmShape &s, const ModulusMap &map)
{
    std::vector<u64> c(s.sites * s.m * s.n, 0xDEADBEEFDEADBEEFULL);
    gemm(e, a.data(), b.data(), c.data(), s, map);
    return c;
}

/// MatrixNtt's GEMM seam on engine @p e.
ModMatMulFn
ntt_mm(EngineId e)
{
    return [e](const u64 *a, const u64 *b, u64 *c, size_t m, size_t n,
               size_t k, const Modulus &q) {
        gemm(e, a, b, c, {1, m, n, k}, ModulusMap::of(q));
    };
}

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
    const GemmShape s{1, m, n, k};
    EXPECT_EQ(run(EngineId::fp64_tcu, a, b, s, ModulusMap::of(q)),
              run(EngineId::scalar, a, b, s, ModulusMap::of(q)));
}

TEST_P(SlicedGemmTest, Int8PathBitExactAgainstScalar)
{
    const int bits = GetParam();
    Modulus q(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    Rng rng(bits + 100);
    const size_t m = 8, n = 8, k = 16;
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    const GemmShape s{1, m, n, k};
    EXPECT_EQ(run(EngineId::int8_tcu, a, b, s, ModulusMap::of(q)),
              run(EngineId::scalar, a, b, s, ModulusMap::of(q)));
}

INSTANTIATE_TEST_SUITE_P(WordSizes, SlicedGemmTest,
                         ::testing::Values(30, 36, 48, 60));

TEST(SlicedGemm, MaximalOperandsStayExact)
{
    // Adversarial case: all entries q-1, the largest possible values.
    Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
    const size_t m = 4, n = 4, k = 16;
    std::vector<u64> a(m * k, q.value() - 1), b(k * n, q.value() - 1);
    const GemmShape s{1, m, n, k};
    const auto ref = run(EngineId::scalar, a, b, s, ModulusMap::of(q));
    EXPECT_EQ(run(EngineId::fp64_tcu, a, b, s, ModulusMap::of(q)), ref);
    EXPECT_EQ(run(EngineId::int8_tcu, a, b, s, ModulusMap::of(q)), ref);
}

TEST(SlicedGemm, OddShapes)
{
    Modulus q(generate_ntt_primes(36, 1, 1 << 10)[0]);
    Rng rng(7);
    for (auto [m, n, k] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                           {3, 5, 7},
                           {17, 9, 4},
                           {2, 33, 8},
                           {4, 0, 3}}) {
        auto a = rng.uniform_vec(m * k, q.value());
        auto b = rng.uniform_vec(k * n, q.value());
        const GemmShape s{1, m, n, k};
        EXPECT_EQ(run(EngineId::fp64_tcu, a, b, s, ModulusMap::of(q)),
                  run(EngineId::scalar, a, b, s, ModulusMap::of(q)))
            << s;
    }
}

// ---------------------------------------------------------------------
// ISA differential: the FP64 engine at every plane-kernel level, and
// the INT8 engine, are bit-exact against the scalar engine
// ---------------------------------------------------------------------

/// The FP64 engine at every ISA level, and the INT8 engine, against
/// the scalar engine on one shape and map.
void
expect_engines_agree(const std::vector<u64> &a, const std::vector<u64> &b,
                     const GemmShape &s, const ModulusMap &map)
{
    const auto ref = run(EngineId::scalar, a, b, s, map);
    for_each_isa([&] {
        EXPECT_EQ(run(EngineId::fp64_tcu, a, b, s, map), ref) << s;
        EXPECT_EQ(run(EngineId::int8_tcu, a, b, s, map), ref) << "int8 " << s;
    });
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
    for (const GemmShape s :
         {GemmShape{1, 16, 1024, 16}, GemmShape{1, 4096, 4, 4},
          GemmShape{1, 7, 37, 16}, GemmShape{1, 13, 21, 300},
          GemmShape{1, 5, 19, 257}, GemmShape{1, 1, 3, 1}}) {
        auto a = rng.uniform_vec(s.m * s.k, q.value());
        auto b = rng.uniform_vec(s.k * s.n, q.value());
        expect_engines_agree(a, b, s, ModulusMap::of(q));
    }
}

TEST_P(IsaDifferentialTest, PerColumnMatchesScalar)
{
    const int bits = GetParam();
    const auto primes = generate_ntt_primes(bits, 3, 1 << 10);
    Rng rng(bits + 400);
    // The narrow BConv shapes (n = 1…7) come with m not a multiple of
    // any lane count.
    std::vector<GemmShape> shapes = {
        GemmShape{1, 16, 1024, 16}, GemmShape{1, 4096, 4, 4},
        GemmShape{1, 7, 37, 16}, GemmShape{1, 13, 21, 64}};
    for (size_t n = 1; n <= 7; ++n)
        shapes.push_back(GemmShape{1, 1003, n, 5});
    for (const GemmShape s : shapes) {
        std::vector<Modulus> mods;
        for (size_t j = 0; j < s.n; ++j)
            mods.emplace_back(primes[j % primes.size()]);
        auto a = rng.uniform_vec(s.m * s.k, primes[0]);
        auto b = rng.uniform_vec(s.k * s.n, primes[0]);
        expect_engines_agree(a, b, s, ModulusMap::columns(mods));
    }
}

TEST_P(IsaDifferentialTest, PerSiteMatchesScalar)
{
    const int bits = GetParam();
    const auto primes = generate_ntt_primes(bits, 5, 1 << 10);
    Rng rng(bits + 500);
    // IP-like sites, ragged sites, a deep K, and site counts that are
    // no multiple of any lane count against 3 and 5 cycling moduli, so
    // lane vectors start at every modulus phase.
    for (const size_t nmods : {3, 5}) {
        const std::vector<Modulus> mods(primes.begin(),
                                        primes.begin() + nmods);
        for (const GemmShape s :
             {GemmShape{1024, 4, 4, 4}, GemmShape{37, 3, 5, 7},
              GemmShape{3, 2, 3, 300}, GemmShape{1003, 1, 8, 3},
              GemmShape{21, 2, 3, 5}}) {
            auto a = rng.uniform_vec(s.sites * s.m * s.k, primes[0]);
            auto b = rng.uniform_vec(s.sites * s.k * s.n, primes[0]);
            SCOPED_TRACE(::testing::Message() << "mod " << nmods);
            expect_engines_agree(a, b, s, ModulusMap::sites(mods));
        }
    }
}

TEST(IsaDifferential, LaneWidthEdgesStayExact)
{
    // The FP64 recombine lanes take 49-bit moduli at the plan's deepest
    // K, where the plane sums reach 2^53, and reject 50- and 51-bit
    // ones there. All-(q-1) operands drive every plane sum and every
    // pair's quotient to its worst case; the lane and scalar paths
    // must both match the scalar engine.
    for (const int bits : {49, 50, 51}) {
        const SplitPlan p = choose_fp64_split(bits, bits, 16);
        const size_t k = size_t{1}
                         << (53 - p.a_plane_bits - p.b_plane_bits);
        const SplitPlan deep = choose_fp64_split(bits, bits, k);
        EXPECT_EQ(deep.a_plane_bits + deep.b_plane_bits +
                      (k <= 1 ? 0 : bit_size(k - 1)),
                  53)
            << bits;
        EXPECT_EQ(fp64_lanes_exact(deep, k, bits), bits <= 49) << bits;
        const auto primes = generate_ntt_primes(bits, 5, 1 << 10);
        const Modulus q(primes[0]);
        const u64 top = q.value() - 1;
        const GemmShape s{1, 5, 19, k};
        std::vector<u64> a(s.m * s.k, top), b(s.k * s.n, top);
        const auto ref = run(EngineId::scalar, a, b, s, ModulusMap::of(q));
        // Per site: 11 sites (a ragged lane vector) over 5 moduli, each
        // site's operands all q_s - 1 of its own modulus.
        const std::vector<Modulus> mods(primes.begin(), primes.end());
        const GemmShape ss{11, 2, 3, k};
        std::vector<u64> sa(ss.sites * 2 * k), sb(ss.sites * k * 3);
        for (size_t site = 0; site < ss.sites; ++site) {
            const u64 t = mods[site % mods.size()].value() - 1;
            std::fill(sa.begin() + site * 2 * k,
                      sa.begin() + (site + 1) * 2 * k, t);
            std::fill(sb.begin() + site * k * 3,
                      sb.begin() + (site + 1) * k * 3, t);
        }
        const auto sref =
            run(EngineId::scalar, sa, sb, ss, ModulusMap::sites(mods));
        for_each_isa([&] {
            EXPECT_EQ(run(EngineId::fp64_tcu, a, b, s, ModulusMap::of(q)),
                      ref)
                << bits << "-bit " << s;
            EXPECT_EQ(
                run(EngineId::fp64_tcu, sa, sb, ss, ModulusMap::sites(mods)),
                sref)
                << bits << "-bit sites, K = " << k;
        });
    }
}

TEST(IsaDifferential, PerColumnWideWordsAtDeepK)
{
    // 62-bit words at K = 64 under per-column moduli: 64 products of
    // ~2^124 overflow an unfolded u128 sum. Every engine must match a
    // per-term reduced reference, on random and all-(q-1) operands.
    const auto primes = generate_ntt_primes(62, 4, 1 << 10);
    const std::vector<Modulus> mods(primes.begin(), primes.end());
    const GemmShape s{1, 16, 4, 64};
    Rng rng(62);
    for (const bool top : {false, true}) {
        std::vector<u64> a(s.m * s.k), b(s.k * s.n);
        for (auto &x : a)
            x = top ? primes[0] - 1 : rng.uniform(primes[0]);
        for (size_t t = 0; t < s.k; ++t)
            for (size_t j = 0; j < s.n; ++j)
                b[t * s.n + j] = top ? primes[j] - 1 : rng.uniform(primes[j]);
        std::vector<u64> want(s.m * s.n, 0);
        for (size_t i = 0; i < s.m; ++i)
            for (size_t j = 0; j < s.n; ++j)
                for (size_t t = 0; t < s.k; ++t) {
                    const Modulus &q = mods[j];
                    want[i * s.n + j] =
                        q.add(want[i * s.n + j],
                              q.mul(q.reduce(a[i * s.k + t]),
                                    b[t * s.n + j]));
                }
        const ModulusMap map = ModulusMap::columns(mods);
        EXPECT_EQ(run(EngineId::scalar, a, b, s, map), want) << top;
        for_each_isa([&] {
            EXPECT_EQ(run(EngineId::fp64_tcu, a, b, s, map), want) << top;
            EXPECT_EQ(run(EngineId::int8_tcu, a, b, s, map), want) << top;
        });
    }
}

TEST(IsaDifferential, EmptyInnerDimensionWritesZeros)
{
    // K = 0 is the empty sum: C = 0 on every engine, map and ISA level,
    // even after an earlier GEMM left its products in the workspace.
    const auto primes = generate_ntt_primes(48, 16, 1 << 10);
    const std::vector<Modulus> cols(primes.begin(), primes.end());
    const std::vector<Modulus> site_mods(primes.begin(), primes.begin() + 3);
    const Modulus q(primes[0]);
    Rng rng(0);
    const auto a = rng.uniform_vec(64 * 16, primes[0]);
    const auto b = rng.uniform_vec(16 * 16, primes[0]);
    const std::vector<u64> none, zeros(64 * 16, 0);
    for_each_isa([&] {
        for (const EngineId e :
             {EngineId::fp64_tcu, EngineId::scalar, EngineId::int8_tcu}) {
            SCOPED_TRACE(static_cast<int>(e));
            for (const auto &[s, empty, map] :
                 {std::tuple{GemmShape{1, 64, 16, 16}, GemmShape{1, 64, 16, 0},
                             ModulusMap::of(q)},
                  {GemmShape{1, 64, 16, 16}, GemmShape{1, 64, 16, 0},
                   ModulusMap::columns(cols)},
                  {GemmShape{4, 16, 16, 4}, GemmShape{64, 1, 16, 0},
                   ModulusMap::sites(site_mods)}}) {
                run(e, a, b, s, map);
                EXPECT_EQ(run(e, none, none, empty, map), zeros) << empty;
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(WordSizes, IsaDifferentialTest,
                         ::testing::Values(30, 36, 48, 60));

TEST(GemmIsa, HookForcesSupportedLevelsOnly)
{
    // The host runs at its highest level until a test forces another.
    const Isa prev = force_isa_for_testing(Isa::portable);
    EXPECT_EQ(prev, isa_supported());
    EXPECT_EQ(active_isa(), Isa::portable);
    EXPECT_EQ(force_isa_for_testing(prev), Isa::portable);
    if (isa_supported() != Isa::avx512) {
        EXPECT_THROW(force_isa_for_testing(Isa::avx512),
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
    mntt.forward(got.data(), ntt_mm(EngineId::fp64_tcu));
    EXPECT_EQ(got, ref);
    mntt.inverse(got.data(), ntt_mm(EngineId::fp64_tcu));
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
    mntt.forward(got.data(), ntt_mm(EngineId::int8_tcu));
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
