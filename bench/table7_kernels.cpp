/**
 * Table 7 — kernel throughput (#kernels/second) for BConv, IP and
 * NTT under Set-B parameters: TensorFHE's element-wise / INT8-TCU
 * mappings vs Neo's matrix-form / FP64-TCU mappings on identical
 * kernel shapes. Paper speedups: 2.74× (BConv), 2.60× (IP), 3.74×
 * (NTT).
 */
#include <vector>

#include "baselines/backends.h"
#include "bench_util.h"
#include "neo/engine.h"
#include "neo/pipeline.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "table7",
                         "Kernel throughput under Set-B shapes");
    bench::banner("Table 7", "Kernel throughput under Set-B shapes");
    const auto params = ckks::paper_set('B');
    const size_t l = params.max_level;
    const size_t alpha = params.alpha();        // 12
    const size_t ext = l + 1 + alpha;           // 48
    const size_t beta = params.beta(l);         // 3

    auto tfhe = baselines::make_tensorfhe('B');
    auto neo = baselines::make_neo('C');
    // Same parameter set so the kernels have identical shapes.
    neo.params = params;
    neo.cfg.use_klss = false;
    // --engine overrides the Neo column's GEMM engine; "auto" prices
    // each kernel under every registry engine and keeps the fastest
    // (the per-site decision the tuner would make for that shape).
    report.note("neo_engine", opts.engine
                                  ? EngineRegistry::name(*opts.engine)
                                  : "auto");
    model::KernelModel m_t(tfhe.params, tfhe.cfg);
    const auto &dev = tfhe.cfg.device;

    std::vector<model::KernelModel> neo_models;
    for (const EngineId id : EngineRegistry::ids()) {
        if (opts.engine && id != *opts.engine)
            continue;
        neo.cfg.policy.engine = id;
        neo_models.emplace_back(neo.params, neo.cfg);
    }
    // Price one kernel under the active policy: the fixed model, or
    // the fastest engine for this shape under --engine auto.
    auto neo_cost = [&](auto &&kernel_of) {
        gpusim::KernelCost best = kernel_of(neo_models.front());
        for (size_t i = 1; i < neo_models.size(); ++i) {
            auto c = kernel_of(neo_models[i]);
            if (c.time(dev, true) < best.time(dev, true))
                best = c;
        }
        return best;
    };

    TextTable t;
    t.header({"kernel", "TensorFHE /s", "Neo /s", "speedup", "paper"});

    auto rate = [&](const gpusim::KernelCost &c, bool overlap) {
        // Throughput per batched kernel invocation.
        return 1.0 / c.time(dev, overlap);
    };

    {
        auto kt = m_t.bconv(alpha, ext - alpha, params.word_size,
                            params.word_size);
        auto kn = neo_cost([&](const model::KernelModel &m) {
            return m.bconv(alpha, ext - alpha, params.word_size,
                           params.word_size);
        });
        double rt = rate(kt, false), rn = rate(kn, true);
        t.row({"BConv", strfmt("%.0f", rt), strfmt("%.0f", rn),
               strfmt("%.2fx", rn / rt), "2.74x"});
        report.metric("neo.bconv.kernel_s", kn.time(dev, true));
    }
    {
        auto kt = m_t.ip(beta, 1, ext, params.word_size);
        auto kn = neo_cost([&](const model::KernelModel &m) {
            return m.ip(beta, 1, ext, params.word_size);
        });
        double rt = rate(kt, false), rn = rate(kn, true);
        t.row({"IP", strfmt("%.0f", rt), strfmt("%.0f", rn),
               strfmt("%.2fx", rn / rt), "2.60x"});
        report.metric("neo.ip.kernel_s", kn.time(dev, true));
    }
    {
        auto kt = m_t.ntt(1, params.word_size);
        auto kn = neo_cost([&](const model::KernelModel &m) {
            return m.ntt(1, params.word_size);
        });
        double rt = rate(kt, false), rn = rate(kn, true);
        t.row({"NTT", strfmt("%.0f", rt), strfmt("%.0f", rn),
               strfmt("%.2fx", rn / rt), "3.74x"});
        report.metric("neo.ntt.kernel_s", kn.time(dev, true));
    }
    t.print();
    std::printf("\nPaper reference: #BConv 311526 -> 854700; #IP 621762 -> "
                "1617978; #NTT 25478 -> 95329 per second.\n");

    // Analytic kernel-invocation counts for one functional
    // keyswitch_klss_pipeline run. A traced run (NEO_TRACE=summary)
    // records exactly these numbers as span.gemm / span.ntt /
    // span.bconv / span.ip — tests/obs_test asserts the equality.
    {
        ckks::CkksParams fp = ckks::CkksParams::test_params(256, 5, 2);
        ckks::CkksContext ctx(fp);
        const size_t lvl = ctx.max_level();
        auto c = keyswitch_pipeline_kernel_counts(ctx, lvl);
        std::printf("\nAnalytic kernel invocations per KLSS KeySwitch "
                    "(functional pipeline, N=%zu, level %zu):\n",
                    ctx.n(), lvl);
        TextTable a;
        a.header({"kernel", "invocations"});
        a.row({"GEMM", strfmt("%llu", (unsigned long long)c.gemm)});
        a.row({"NTT", strfmt("%llu", (unsigned long long)c.ntt)});
        a.row({"BConv", strfmt("%llu", (unsigned long long)c.bconv)});
        a.row({"IP", strfmt("%llu", (unsigned long long)c.ip)});
        a.print();
        report.metric("keyswitch.spans.gemm", static_cast<double>(c.gemm));
        report.metric("keyswitch.spans.ntt", static_cast<double>(c.ntt));
        report.metric("keyswitch.spans.bconv",
                      static_cast<double>(c.bconv));
        report.metric("keyswitch.spans.ip", static_cast<double>(c.ip));
    }
    report.write();
    return 0;
}
