#include <gtest/gtest.h>

#include "common/check.h"
#include "common/isa.h"
#include "common/json.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/table.h"

namespace neo {
namespace {

TEST(MathUtil, Pow2Helpers)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(65536));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_EQ(log2_exact(1), 0);
    EXPECT_EQ(log2_exact(65536), 16);
    EXPECT_EQ(ceil_div(7, 3), 3u);
    EXPECT_EQ(ceil_div(6, 3), 2u);
    EXPECT_EQ(bit_size(0), 0);
    EXPECT_EQ(bit_size(1), 1);
    EXPECT_EQ(bit_size((1ULL << 35) + 5), 36);
}

TEST(MathUtil, ReverseBits)
{
    EXPECT_EQ(reverse_bits(0b001, 3), 0b100u);
    EXPECT_EQ(reverse_bits(0b110, 3), 0b011u);
    for (u64 x = 0; x < 64; ++x)
        EXPECT_EQ(reverse_bits(reverse_bits(x, 6), 6), x);
}

TEST(MathUtil, ModularArithmetic)
{
    const u64 q = (1ULL << 36) - 5; // not prime; fine for add/sub/mul
    EXPECT_EQ(add_mod(q - 1, 1, q), 0u);
    EXPECT_EQ(sub_mod(0, 1, q), q - 1);
    EXPECT_EQ(mul_mod(q - 1, q - 1, q), 1u);
    const u64 p = 576460752303421441ULL; // 2^59.something prime
    EXPECT_EQ(mul_mod(pow_mod(3, p - 1, p), 1, p), 1u) << "Fermat";
    EXPECT_EQ(mul_mod(inv_mod(12345, p), 12345, p), 1u);
}

TEST(MathUtil, CenteredRepresentatives)
{
    const u64 q = 101;
    EXPECT_EQ(to_centered(0, q), 0);
    EXPECT_EQ(to_centered(50, q), 50);
    EXPECT_EQ(to_centered(51, q), -50);
    EXPECT_EQ(to_centered(100, q), -1);
    for (u64 x = 0; x < q; ++x)
        EXPECT_EQ(from_centered(to_centered(x, q), q), x);
    EXPECT_EQ(from_centered(-1, q), 100u);
    EXPECT_EQ(from_centered(-202, q), 0u);
}

TEST(Check, ThrowsProperTypes)
{
    EXPECT_THROW(NEO_CHECK(false, "boom"), std::invalid_argument);
    EXPECT_THROW(NEO_ASSERT(false, "boom"), std::logic_error);
    EXPECT_NO_THROW(NEO_CHECK(true, ""));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniform(97), 97u);
}

TEST(Rng, TernaryValues)
{
    Rng rng(7);
    int zeros = 0;
    for (int i = 0; i < 4000; ++i) {
        i64 t = rng.ternary();
        EXPECT_TRUE(t == 0 || t == 1 || t == -1);
        zeros += (t == 0);
    }
    // P(0) = 1/2: expect near 2000.
    EXPECT_GT(zeros, 1600);
    EXPECT_LT(zeros, 2400);
}

TEST(Rng, GaussianCentered)
{
    Rng rng(11);
    double sum = 0, sumsq = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        i64 v = rng.gaussian();
        sum += static_cast<double>(v);
        sumsq += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(sum / trials, 0.0, 0.2);
    EXPECT_NEAR(sumsq / trials, 3.2 * 3.2, 1.0);
}

TEST(Table, AlignsColumns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xx", "y"});
    std::string s = t.str();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("xx"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(format_time(2.5e-9), "2.5 ns");
    EXPECT_EQ(format_time(3.25e-5), "32.50 us");
    EXPECT_EQ(format_time(0.5), "500.00 ms");
    EXPECT_EQ(format_time(12.0), "12.000 s");
    EXPECT_EQ(format_bytes(512), "512 B");
    EXPECT_EQ(format_bytes(2048), "2.0 KB");
}

TEST(Json, NestingIsCappedNotUnbounded)
{
    // The parser recurses per level: a hostile document must fail
    // with NEO_CHECK long before it could exhaust the stack.
    EXPECT_THROW(json::Value::parse(std::string(1000000, '[')),
                 std::invalid_argument);
    const std::string at_cap = std::string(json::kMaxDepth, '[') +
                               std::string(json::kMaxDepth, ']');
    const json::Value v = json::Value::parse(at_cap);
    EXPECT_TRUE(v.is_array());
    EXPECT_THROW(json::Value::parse("[" + at_cap + "]"),
                 std::invalid_argument);
    EXPECT_THROW(json::Value::parse(std::string(json::kMaxDepth + 1, '{')),
                 std::invalid_argument);
}

TEST(Isa, IfmaLanesFollowTheHost)
{
    // The NTT and BConv lanes run only at the top level, avx512, and
    // only on a host with AVX-512 IFMA.
    const Isa top = isa_supported();
    for (int lvl = 0; lvl < static_cast<int>(top); ++lvl) {
        const Isa prev = force_isa_for_testing(static_cast<Isa>(lvl));
        EXPECT_FALSE(ifma_lanes()) << isa_name(active_isa());
        force_isa_for_testing(prev);
    }
    bool host_ifma = false;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    host_ifma = __builtin_cpu_supports("avx512ifma");
#endif
    if (top != Isa::avx512 || !host_ifma) {
        EXPECT_FALSE(ifma_lanes());
        GTEST_SKIP() << "host has no AVX-512 IFMA (top level "
                     << isa_name(top)
                     << "): the NTT and BConv run their scalar loops";
    }
    EXPECT_EQ(active_isa(), Isa::avx512);
    EXPECT_TRUE(ifma_lanes());
}

} // namespace
} // namespace neo
