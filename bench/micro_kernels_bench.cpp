/**
 * Measured microbenchmarks (google-benchmark) of the *functional*
 * kernels on the host CPU: the bit-exact TCU emulations, the NTT
 * variants and the BConv/IP algorithm pairs. These measure the
 * reproduction substrate itself, complementing the device-model
 * benches that regenerate the paper's figures.
 */
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "common/random.h"
#include "neo/kernels.h"
#include "obs/obs.h"
#include "poly/matrix_ntt.h"
#include "poly/rns_poly.h"
#include "rns/primes.h"
#include "tensor/gemm.h"

namespace neo {
namespace {

/// Thread sweep applied to the parallel-engine benchmarks below: the
/// benchmark's Arg is the pool size, so one run prints 1/2/4/8-thread
/// numbers side by side (EXPERIMENTS.md records them).
void
thread_sweep(benchmark::internal::Benchmark *b)
{
    for (int t : {1, 2, 4, 8})
        b->Arg(t);
}

void
BM_NttRadix2(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    Modulus q(generate_ntt_primes(36, 1, n)[0]);
    NttTables t(n, q);
    Rng rng(1);
    auto a = rng.uniform_vec(n, q.value());
    for (auto _ : state) {
        t.forward(a.data());
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttRadix2)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void
BM_NttRadix16Matrix(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    Modulus q(generate_ntt_primes(36, 1, n)[0]);
    NttTables t(n, q);
    MatrixNtt mntt(t, 16);
    const auto &scalar = EngineRegistry::engines(EngineId::scalar);
    Rng rng(2);
    auto a = rng.uniform_vec(n, q.value());
    for (auto _ : state) {
        mntt.forward(a.data(), scalar.same_mod);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttRadix16Matrix)->Arg(1 << 12)->Arg(1 << 14);

void
BM_ScalarGemm(benchmark::State &state)
{
    Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
    const size_t m = 256, n = 16, k = 16;
    Rng rng(3);
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    std::vector<u64> c(m * n);
    for (auto _ : state) {
        gemm(EngineId::scalar, a.data(), b.data(), c.data(), {1, m, n, k},
             ModulusMap::of(q));
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_ScalarGemm);

void
BM_Fp64SlicedGemm(benchmark::State &state)
{
    Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
    const size_t m = 256, n = 16, k = 16;
    Rng rng(4);
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    std::vector<u64> c(m * n);
    for (auto _ : state) {
        gemm(EngineId::fp64_tcu, a.data(), b.data(), c.data(), {1, m, n, k},
             ModulusMap::of(q));
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_Fp64SlicedGemm);

void
BM_BConvElementwise(benchmark::State &state)
{
    auto p1 = generate_ntt_primes(36, 4, 1 << 10);
    auto p2 = generate_ntt_primes(48, 8, 1 << 10);
    RnsBasis from(p1), to(p2);
    BConvKernel kernel(from, to);
    const size_t batch = 2, n = 256;
    Rng rng(5);
    std::vector<u64> in(4 * batch * n);
    for (size_t i = 0; i < 4; ++i)
        for (size_t x = 0; x < batch * n; ++x)
            in[i * batch * n + x] = rng.uniform(p1[i]);
    std::vector<u64> out(8 * batch * n);
    for (auto _ : state) {
        kernel.run_elementwise(in.data(), batch, n, out.data());
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_BConvElementwise);

void
BM_BConvMatmul(benchmark::State &state)
{
    auto p1 = generate_ntt_primes(36, 4, 1 << 10);
    auto p2 = generate_ntt_primes(48, 8, 1 << 10);
    RnsBasis from(p1), to(p2);
    BConvKernel kernel(from, to);
    const size_t batch = 2, n = 256;
    Rng rng(6);
    std::vector<u64> in(4 * batch * n);
    for (size_t i = 0; i < 4; ++i)
        for (size_t x = 0; x < batch * n; ++x)
            in[i * batch * n + x] = rng.uniform(p1[i]);
    std::vector<u64> out(8 * batch * n);
    const auto &scalar = EngineRegistry::engines(EngineId::scalar);
    for (auto _ : state) {
        kernel.run_matmul(in.data(), batch, n, out.data(), scalar.per_column);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_BConvMatmul);

/// Cost of the neo::obs probes on a hot kernel. Arg 0 = no sink
/// installed (the production default: each probe is one relaxed
/// atomic load), 1 = counting sink active, 2 = counting + timeline
/// events. Arg 0 must match the pre-instrumentation baseline; the
/// acceptance bar is no measurable slowdown with tracing off.
void
BM_ObsProbeOverhead(benchmark::State &state)
{
    const size_t n = 1 << 12;
    Modulus q(generate_ntt_primes(36, 1, n)[0]);
    NttTables t(n, q);
    Rng rng(10);
    auto a = rng.uniform_vec(n, q.value());
    std::optional<obs::Scope> scope;
    if (state.range(0) > 0) {
        obs::Scope::Options so;
        so.registry.record_events = state.range(0) > 1;
        scope.emplace(so);
    }
    for (auto _ : state) {
        t.forward(a.data());
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ObsProbeOverhead)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------------------
// Thread-scaling benchmarks of the parallel execution engine (Arg =
// pool size). Shapes follow the paper's KLSS operating point.
// ---------------------------------------------------------------------

/// Per-limb batch NTT: an α'=8-limb R_T element at N = 2^14, the
/// batch the pipeline transforms after every ModUp digit.
void
BM_BatchNttThreads(benchmark::State &state)
{
    const size_t threads = bench::use_threads(state.range(0));
    const size_t n = 1 << 14, limbs = 8;
    auto primes = generate_ntt_primes(48, limbs, n);
    std::vector<Modulus> mods(primes.begin(), primes.end());
    NttTableSet tables(n, mods);
    Rng rng(7);
    RnsPoly p(n, mods, PolyForm::coeff);
    for (size_t i = 0; i < limbs; ++i)
        for (size_t l = 0; l < n; ++l)
            p.limb(i)[l] = rng.uniform(mods[i].value());
    for (auto _ : state) {
        tables.to_eval(p);
        tables.to_coeff(p);
        benchmark::DoNotOptimize(p.data());
    }
    state.SetItemsProcessed(state.iterations() * limbs * n * 2);
    state.counters["threads"] = static_cast<double>(threads);
    bench::use_threads(1);
}
BENCHMARK(BM_BatchNttThreads)->Apply(thread_sweep)
    ->Unit(benchmark::kMillisecond);

/// FP64 bit-sliced TCU GEMM at the paper's Fig 3 shape family
/// (tall-skinny M×16×16, 48-bit words).
void
BM_TcuGemmThreads(benchmark::State &state)
{
    const size_t threads = bench::use_threads(state.range(0));
    Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
    const size_t m = 1 << 15, n = 16, k = 16;
    Rng rng(8);
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    std::vector<u64> c(m * n);
    for (auto _ : state) {
        gemm(EngineId::fp64_tcu, a.data(), b.data(), c.data(), {1, m, n, k},
             ModulusMap::of(q));
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m * n * k);
    state.counters["threads"] = static_cast<double>(threads);
    bench::use_threads(1);
}
BENCHMARK(BM_TcuGemmThreads)->Apply(thread_sweep)
    ->Unit(benchmark::kMillisecond);

/// Matrix-form exact BConv (Alg 2) at α=4 → α'=8, N = 2^13.
void
BM_BConvMatmulThreads(benchmark::State &state)
{
    const size_t threads = bench::use_threads(state.range(0));
    const size_t n = 1 << 13;
    auto p1 = generate_ntt_primes(36, 4, n);
    auto p2 = generate_ntt_primes(48, 8, n);
    RnsBasis from(p1), to(p2);
    BConvKernel kernel(from, to);
    Rng rng(9);
    std::vector<u64> in(4 * n);
    for (size_t i = 0; i < 4; ++i)
        for (size_t x = 0; x < n; ++x)
            in[i * n + x] = rng.uniform(p1[i]);
    std::vector<u64> out(8 * n);
    const auto &scalar = EngineRegistry::engines(EngineId::scalar);
    for (auto _ : state) {
        kernel.run_matmul_exact(in.data(), 1, n, out.data(),
                                scalar.per_column);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["threads"] = static_cast<double>(threads);
    bench::use_threads(1);
}
BENCHMARK(BM_BConvMatmulThreads)->Apply(thread_sweep)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace neo
