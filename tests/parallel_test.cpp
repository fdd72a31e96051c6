/**
 * Determinism suite for the parallel execution engine.
 *
 * The repo's strongest invariant is bit-exactness: the Neo pipeline
 * must equal the reference keyswitch_klss to the last bit. The thread
 * pool is only admissible if that invariant survives every thread
 * count, so this suite runs the full pipeline (scalar and FP64-TCU
 * engines) under NEO_NUM_THREADS ∈ {1, 2, 7, 16} and requires all
 * outputs identical to each other and to the sequential reference —
 * plus direct unit tests of the parallel_for contract itself.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "neo/engine.h"
#include "neo/kernels.h"
#include "neo/pipeline.h"
#include "rns/primes.h"
#include "tensor/gemm.h"

namespace neo {
namespace {

using namespace ckks;

/// Point the global pool at @p n executors through the same
/// environment knob users have, verifying the env parsing on the way.
void
use_threads(size_t n)
{
    ::setenv("NEO_NUM_THREADS", std::to_string(n).c_str(), 1);
    ThreadPool::set_global_threads(0); // 0 = re-read NEO_NUM_THREADS
    ASSERT_EQ(ThreadPool::global().threads(), n);
}

const size_t kThreadCounts[] = {1, 2, 7, 16};

// ---------------------------------------------------------------------
// parallel_for contract.
// ---------------------------------------------------------------------

TEST(ThreadPool, EnvVariableControlsThreadCount)
{
    ::setenv("NEO_NUM_THREADS", "7", 1);
    EXPECT_EQ(ThreadPool::env_threads(), 7u);
    ::setenv("NEO_NUM_THREADS", "not-a-number", 1);
    EXPECT_GE(ThreadPool::env_threads(), 1u); // falls back to hardware
    ::setenv("NEO_NUM_THREADS", "0", 1);
    EXPECT_GE(ThreadPool::env_threads(), 1u);
    ::unsetenv("NEO_NUM_THREADS");
    EXPECT_GE(ThreadPool::env_threads(), 1u);
}

TEST(ThreadPool, ExplicitCountsShareTheEnvironmentCap)
{
    ::setenv("NEO_NUM_THREADS", "3000", 1);
    EXPECT_EQ(ThreadPool::env_threads(), ThreadPool::kMaxThreads);
    ::unsetenv("NEO_NUM_THREADS");
    // `--threads -1` reaches the pool as SIZE_MAX.
    ThreadPool pool(std::numeric_limits<size_t>::max());
    EXPECT_EQ(pool.threads(), ThreadPool::kMaxThreads);
}

TEST(ThreadPool, ChunksTileTheRangeExactlyOnce)
{
    for (size_t tc : kThreadCounts) {
        ThreadPool pool(tc);
        for (size_t range : {0ul, 1ul, 5ul, 64ul, 1000ul, 4097ul}) {
            std::vector<std::atomic<int>> hits(range);
            for (auto &h : hits)
                h.store(0);
            pool.parallel_for(0, range, 3, [&](size_t b, size_t e) {
                ASSERT_LE(b, e);
                for (size_t i = b; i < e; ++i)
                    hits[i].fetch_add(1);
            });
            for (size_t i = 0; i < range; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "threads=" << tc << " range=" << range
                    << " index=" << i;
        }
    }
}

TEST(ThreadPool, NestedParallelForRunsInlineAndCompletes)
{
    ThreadPool pool(4);
    constexpr size_t kOuter = 32, kInner = 100;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    for (auto &h : hits)
        h.store(0);
    pool.parallel_for(0, kOuter, 1, [&](size_t ob, size_t oe) {
        for (size_t o = ob; o < oe; ++o) {
            // Inner call must not re-enter the pool (deadlock) and
            // must still cover its whole range.
            pool.parallel_for(0, kInner, 1, [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i)
                    hits[o * kInner + i].fetch_add(1);
            });
        }
    });
    for (auto &h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, BackToBackLoopsReuseWorkers)
{
    ThreadPool pool(7);
    std::atomic<long> total{0};
    for (int round = 0; round < 50; ++round) {
        pool.parallel_for(0, 997, 10, [&](size_t b, size_t e) {
            long s = 0;
            for (size_t i = b; i < e; ++i)
                s += static_cast<long>(i);
            total.fetch_add(s);
        });
    }
    EXPECT_EQ(total.load(), 50L * (996L * 997L / 2));
}

// ---------------------------------------------------------------------
// Kernel-level determinism: identical bits for every thread count.
// ---------------------------------------------------------------------

TEST(ParallelDeterminism, Fp64GemmBitIdenticalAcrossThreadCounts)
{
    Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
    const size_t m = 512, n = 16, k = 16;
    Rng rng(11);
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());

    use_threads(1);
    std::vector<u64> ref(m * n);
    gemm(EngineId::fp64_tcu, a.data(), b.data(), ref.data(), {1, m, n, k},
         ModulusMap::of(q));

    for (size_t tc : kThreadCounts) {
        use_threads(tc);
        std::vector<u64> got(m * n);
        gemm(EngineId::fp64_tcu, a.data(), b.data(), got.data(),
             {1, m, n, k}, ModulusMap::of(q));
        EXPECT_EQ(got, ref) << "threads=" << tc;
    }
    use_threads(1);
}

std::vector<u64>
words(const RnsPoly &p)
{
    return std::vector<u64>(p.data(), p.data() + p.limbs() * p.n());
}

TEST(ParallelDeterminism, BatchNttBitIdenticalAcrossThreadCounts)
{
    // NttTableSet fans a poly's limbs out over the pool; each limb is
    // one serial NttTables transform.
    const size_t n = 1 << 13;
    const auto primes = generate_ntt_primes(48, 5, n);
    const std::vector<Modulus> mods(primes.begin(), primes.end());
    const NttTableSet set(n, mods);
    RnsPoly input(n, mods);
    Rng rng(12);
    for (size_t i = 0; i < mods.size(); ++i) {
        const auto limb = rng.uniform_vec(n, mods[i].value());
        std::copy(limb.begin(), limb.end(), input.limb(i));
    }

    RnsPoly ref = input;
    for (size_t i = 0; i < mods.size(); ++i)
        set[i].forward(ref.limb(i));

    for (size_t tc : kThreadCounts) {
        use_threads(tc);
        RnsPoly got = input;
        set.to_eval(got);
        EXPECT_EQ(words(got), words(ref)) << "threads=" << tc;
        set.to_coeff(got);
        EXPECT_EQ(words(got), words(input)) << "roundtrip threads=" << tc;
    }
    use_threads(1);
}

TEST(NttTableSet, RejectsForeignModulusAtAnyThreadCount)
{
    // A limb whose modulus has no tables in the set, or whose ring
    // degree differs from the tables', is user misuse. It is rejected
    // on the caller's thread, before the limb fan-out: a pool body
    // must not throw.
    const CkksParams params = CkksParams::test_params(256, 3, 2);
    const CkksContext ctx(params);
    CkksParams wide = params;
    wide.word_size = 40;
    const CkksContext other(wide);
    KeyGenerator keygen(other, 3);
    const SecretKey sk = keygen.secret_key();
    Encryptor enc(other, 4);
    const Ciphertext ct = enc.encrypt_symmetric(
        other.encode(std::vector<Complex>(4, Complex(0.5, 0)), 3), sk,
        keygen);
    const RnsPoly t_poly(ctx.n(), ctx.t_basis().mods(), PolyForm::coeff);
    const RnsPoly half_ring(ctx.n() / 2, ctx.active_mods(3), PolyForm::coeff);
    const Evaluator eval(ctx);

    for (size_t tc : {1u, 4u}) {
        use_threads(tc);
        SCOPED_TRACE(::testing::Message() << "threads=" << tc);
        RnsPoly p = t_poly;
        EXPECT_THROW(ctx.tables().to_eval(p), std::invalid_argument);
        p = half_ring;
        EXPECT_THROW(ctx.tables().to_eval(p), std::invalid_argument);
        EXPECT_THROW(eval.rescale(ct), std::invalid_argument);
    }
    use_threads(1);
}

TEST(BConvKernel, LargeBatchMatchesConverterOnEveryEngineAndThreadCount)
{
    // batch·n = 2^15 is past the grain of each of the matrix form's
    // own loops (8192 words to scale, 4096 overflow counts, 1024
    // correction rows), so every one of them splits across the pool.
    // Shapes: ModUp-like (4 → 5 limbs) and Recover-like (5 → 2 limbs).
    const size_t n = 1 << 14, batch = 2;
    for (const auto &[a, ap] :
         {std::pair<size_t, size_t>{4, 5}, std::pair<size_t, size_t>{5, 2}}) {
        const auto p1 = generate_ntt_primes(36, static_cast<int>(a), 1 << 10);
        const auto p2 = generate_ntt_primes(48, static_cast<int>(ap), 1 << 10);
        const RnsBasis from(p1), to(p2);
        const BConvKernel kernel(from, to);
        Rng rng(a * 10 + ap);
        std::vector<u64> in(a * batch * n);
        for (size_t i = 0; i < a; ++i)
            for (size_t x = 0; x < batch * n; ++x)
                in[i * batch * n + x] = rng.uniform(p1[i]);

        // Reference: each batch element through the converter.
        std::vector<u64> want_approx(ap * batch * n);
        std::vector<u64> want_exact(ap * batch * n);
        std::vector<u64> one(a * n), conv_out(ap * n);
        for (size_t b = 0; b < batch; ++b) {
            for (size_t i = 0; i < a; ++i)
                std::copy_n(in.begin() + (i * batch + b) * n, n,
                            one.begin() + i * n);
            for (bool exact : {false, true}) {
                if (exact)
                    kernel.converter().convert_exact(one.data(), n,
                                                     conv_out.data());
                else
                    kernel.converter().convert_approx(one.data(), n,
                                                      conv_out.data());
                auto &want = exact ? want_exact : want_approx;
                for (size_t j = 0; j < ap; ++j)
                    std::copy_n(conv_out.begin() + j * n, n,
                                want.begin() + (j * batch + b) * n);
            }
        }

        for (EngineId e :
             {EngineId::scalar, EngineId::fp64_tcu, EngineId::int8_tcu}) {
            const auto &mm = EngineRegistry::engines(e).per_column;
            for (size_t tc : kThreadCounts) {
                use_threads(tc);
                SCOPED_TRACE(::testing::Message()
                             << a << " -> " << ap << " engine "
                             << EngineRegistry::name(e) << " threads=" << tc);
                std::vector<u64> got(ap * batch * n);
                kernel.run_matmul(in.data(), batch, n, got.data(), mm);
                EXPECT_EQ(got, want_approx);
                kernel.run_matmul_exact(in.data(), batch, n, got.data(), mm);
                EXPECT_EQ(got, want_exact);
            }
        }
    }
    use_threads(1);
}

// ---------------------------------------------------------------------
// Pipeline determinism: the tentpole guarantee.
// ---------------------------------------------------------------------

struct ParallelPipelineFixture : public ::testing::Test
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

    /// Run the pipeline under every thread count and assert the
    /// outputs are bit-identical to each other and to the sequential
    /// reference keyswitch.
    static void
    check_engine(EngineId engine, const char *label)
    {
        const ExecPolicy policy = ExecPolicy::fixed(engine);
        RnsPoly d2 = random_eval_poly(5, 42);

        use_threads(1);
        auto [r0, r1] = keyswitch_klss(d2, *klss_rlk_, *ctx_);
        auto [s0, s1] =
            keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_, policy);
        const size_t count0 = r0.limbs() * r0.n();
        const size_t count1 = r1.limbs() * r1.n();
        ASSERT_TRUE(std::equal(r0.data(), r0.data() + count0, s0.data()))
            << label << " single-thread pipeline != reference";
        ASSERT_TRUE(std::equal(r1.data(), r1.data() + count1, s1.data()))
            << label << " single-thread pipeline != reference";

        for (size_t tc : kThreadCounts) {
            use_threads(tc);
            auto [p0, p1] =
                keyswitch_klss_pipeline(d2, *klss_rlk_, *ctx_, policy);
            EXPECT_TRUE(
                std::equal(s0.data(), s0.data() + count0, p0.data()))
                << label << " c0 differs at threads=" << tc;
            EXPECT_TRUE(
                std::equal(s1.data(), s1.data() + count1, p1.data()))
                << label << " c1 differs at threads=" << tc;
            EXPECT_TRUE(
                std::equal(r0.data(), r0.data() + count0, p0.data()))
                << label << " c0 != reference at threads=" << tc;
        }
        use_threads(1);
    }

    static CkksParams *params_;
    static CkksContext *ctx_;
    static KeyGenerator *keygen_;
    static SecretKey *sk_;
    static EvalKey *rlk_;
    static KlssEvalKey *klss_rlk_;
};

CkksParams *ParallelPipelineFixture::params_ = nullptr;
CkksContext *ParallelPipelineFixture::ctx_ = nullptr;
KeyGenerator *ParallelPipelineFixture::keygen_ = nullptr;
SecretKey *ParallelPipelineFixture::sk_ = nullptr;
EvalKey *ParallelPipelineFixture::rlk_ = nullptr;
KlssEvalKey *ParallelPipelineFixture::klss_rlk_ = nullptr;

TEST_F(ParallelPipelineFixture, ScalarEngineDeterministicAcrossThreads)
{
    check_engine(EngineId::scalar, "scalar");
}

TEST_F(ParallelPipelineFixture, Fp64TcuEngineDeterministicAcrossThreads)
{
    check_engine(EngineId::fp64_tcu, "fp64_tcu");
}

} // namespace
} // namespace neo
