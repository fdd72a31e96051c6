/**
 * Fig 3 — time to emulate a wide-integer matrix multiplication of
 * shape 2^19 × 16 × 16 through the INT8 vs the FP64 tensor-core
 * pipes, broken into the three steps (bit-split, matrix multiply,
 * merge). The paper reports FP64 1.65× faster at WordSize 36 and
 * 1.74× at 48.
 */
#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "common/random.h"
#include "gpusim/tcu_model.h"
#include "neo/kernel_model.h"
#include "rns/primes.h"
#include "tensor/bitslice.h"
#include "tensor/gemm.h"

using namespace neo;

namespace {

struct Steps
{
    double split, matmul, merge;

    double total() const { return split + matmul + merge; }
};

Steps
fp64_steps(const gpusim::DeviceSpec &d, size_t m, size_t n, size_t k,
           int word)
{
    const SplitPlan plan = choose_fp64_split(word, word, k);
    const double macs = static_cast<double>(gpusim::TcuModel::padded_macs(
                            m, n, k, gpusim::kFp64Fragment)) *
                        plan.products();
    Steps s;
    s.split = 2.0 *
              (plan.a_planes * static_cast<double>(m) * k +
               plan.b_planes * static_cast<double>(k) * n) /
              d.int_op_rate();
    s.matmul = macs / d.tcu_fp64_fma_rate();
    s.merge = d.int_ops_per_merge * plan.products() *
              static_cast<double>(m) * n / d.int_op_rate();
    return s;
}

Steps
int8_steps(const gpusim::DeviceSpec &d, size_t m, size_t n, size_t k,
           int word)
{
    const SplitPlan plan = choose_int8_split(word, word, k);
    u64 best = ~0ULL;
    for (const auto &f : gpusim::kInt8Fragments)
        best = std::min(best, gpusim::TcuModel::padded_macs(m, n, k, f));
    Steps s;
    s.split = 2.0 *
              (plan.a_planes * static_cast<double>(m) * k +
               plan.b_planes * static_cast<double>(k) * n) /
              d.int_op_rate();
    s.matmul = static_cast<double>(best) * plan.products() /
               d.tcu_int8_mac_rate();
    s.merge = d.int_ops_per_merge * plan.products() *
              static_cast<double>(m) * n / d.int_op_rate();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig03",
                         "INT8 vs FP64 wide-word GEMM (2^19 x 16 x 16)");
    bench::banner("Fig 3",
                  "INT8 vs FP64 wide-word GEMM (2^19 x 16 x 16)");
    const auto dev = gpusim::DeviceSpec::a100();
    const size_t m = 1ULL << 19, n = 16, k = 16;

    TextTable t;
    t.header({"WordSize", "engine", "splits", "split", "matmul", "merge",
              "total"});
    for (int word : {36, 48}) {
        Steps f = fp64_steps(dev, m, n, k, word);
        Steps i = int8_steps(dev, m, n, k, word);
        t.row({strfmt("%d", word), "FP64",
               strfmt("%d", choose_fp64_split(word, word, k).products()),
               format_time(f.split), format_time(f.matmul),
               format_time(f.merge), format_time(f.total())});
        t.row({strfmt("%d", word), "INT8",
               strfmt("%d", choose_int8_split(word, word, k).products()),
               format_time(i.split), format_time(i.matmul),
               format_time(i.merge), format_time(i.total())});
        std::printf("WS=%d: INT8/FP64 total ratio = %.2fx (paper: %.2fx)\n",
                    word, i.total() / f.total(), word == 36 ? 1.65 : 1.74);
        report.metric(strfmt("ws%d.fp64.total_s", word), f.total());
        report.metric(strfmt("ws%d.int8.total_s", word), i.total());
    }
    t.print();
    std::printf("\nPaper reference: 36-bit needs 3 FP64 GEMMs vs 25 INT8 "
                "GEMMs; 48-bit needs 4 vs 36.\n");

    // Measured host-emulation wall time of the FP64 bit-sliced pipe
    // (reduced M so a repeat sweep stays fast). --repeat N records the
    // p50/p95/max spread into the artifact's "dist" sub-object; the
    // "wall" key keeps the default baseline compare from gating it.
    {
        Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
        const size_t em = 1 << 12;
        Rng rng(11);
        auto a = rng.uniform_vec(em * k, q.value());
        auto b = rng.uniform_vec(k * n, q.value());
        std::vector<u64> c(em * n);
        std::vector<double> samples(opts.repeat);
        for (auto &s : samples) {
            const auto t0 = std::chrono::steady_clock::now();
            gemm(EngineId::fp64_tcu, a.data(), b.data(), c.data(),
                 {1, em, n, k}, ModulusMap::of(q));
            s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        }
        std::sort(samples.begin(), samples.end());
        std::printf("\nHost emulation (FP64 pipe, %zu x %zu x %zu, "
                    "%zu run%s): median %.3f ms\n",
                    em, n, k, opts.repeat, opts.repeat == 1 ? "" : "s",
                    1e3 * samples[samples.size() / 2]);
        report.sample("ws48.fp64.emulated_wall_s", std::move(samples));
    }
    report.write();
    return 0;
}
