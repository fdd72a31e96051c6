/**
 * Fig 13 — execution-time breakdown of the optimized BConv and IP
 * kernels (preprocessing / matrix multiplication / postprocessing)
 * against the total time of their pre-optimization (element-wise)
 * forms, normalised to a single operation. The paper's point: the
 * added pre/post stages are a negligible share of the optimized
 * kernels, which beat the originals outright.
 */
#include "baselines/backends.h"
#include "bench_util.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig13",
                         "Optimized BConv/IP step breakdown (Set-C)");
    bench::banner("Fig 13", "Optimized BConv/IP step breakdown (Set-C)");
    const auto params = ckks::paper_set('C');
    const auto dev = gpusim::DeviceSpec::a100();
    const size_t alpha = params.alpha();
    const size_t ap = params.klss_alpha_prime();
    const size_t beta = params.beta(params.max_level);
    const size_t bt = params.beta_tilde(params.max_level);
    const int wt = params.klss.word_size_t;

    model::ModelConfig opt;
    model::ModelConfig orig;
    orig.matmul_dataflow = false;
    orig.policy.engine = EngineId::int8_tcu;
    model::KernelModel m_opt(params, opt);
    model::KernelModel m_orig(params, orig);

    // Split the optimized kernels into their three steps by pricing
    // the component costs separately.
    auto breakdown = [&](gpusim::KernelCost full, double gemm_time) {
        const double total = full.time(dev, true);
        const double pre_post = std::max(0.0, total - gemm_time);
        return std::pair<double, double>(pre_post, gemm_time);
    };

    TextTable t;
    t.header({"kernel", "orig total", "opt pre+post", "opt matmul",
              "opt total", "speedup"});

    {
        auto orig_c = m_orig.bconv(alpha, ap, params.word_size, wt);
        auto opt_c = m_opt.bconv(alpha, ap, params.word_size, wt);
        const double gemm_time =
            opt_c.tcu_fp64_macs / dev.tcu_fp64_fma_rate();
        auto [pp, mmtime] = breakdown(opt_c, gemm_time);
        t.row({"BConv", format_time(orig_c.time(dev, false)),
               format_time(pp), format_time(mmtime),
               format_time(opt_c.time(dev, true)),
               strfmt("%.2fx", orig_c.time(dev, false) /
                                   opt_c.time(dev, true))});
        report.metric("bconv.opt.total_s", opt_c.time(dev, true));
        report.metric("bconv.orig.total_s", orig_c.time(dev, false));
    }
    {
        auto orig_c = m_orig.ip(beta, bt, ap, wt);
        auto opt_c = m_opt.ip(beta, bt, ap, wt);
        const double gemm_time =
            opt_c.tcu_fp64_macs / dev.tcu_fp64_fma_rate() +
            (opt_c.cuda_modmul / dev.modmul_rate());
        auto [pp, mmtime] = breakdown(opt_c, gemm_time);
        t.row({"IP", format_time(orig_c.time(dev, false)),
               format_time(pp), format_time(mmtime),
               format_time(opt_c.time(dev, true)),
               strfmt("%.2fx", orig_c.time(dev, false) /
                                   opt_c.time(dev, true))});
        report.metric("ip.opt.total_s", opt_c.time(dev, true));
        report.metric("ip.orig.total_s", orig_c.time(dev, false));
    }
    t.print();
    std::printf("\nPaper reference: optimized kernels win despite the added "
                "pre/postprocessing, which is a negligible share.\n");

    // --- Fusion / graph-capture ablation: where does the launch tax
    // go? One keyswitch at Set-C top level under the four
    // (--fuse, --graph) combinations; the launch fraction collapses
    // and the schedule bound moves off "launch".
    std::printf("\nKeySwitch launch-tax ablation (Set-C, level %zu):\n",
                params.max_level);
    TextTable abl;
    abl.header({"fuse", "graph", "modeled", "launches", "launch_s",
                "launch %", "fused", "bound"});
    for (const bool fuse : {false, true}) {
        for (const bool graph : {false, true}) {
            model::ModelConfig cfg;
            cfg.policy.fuse = fuse;
            cfg.policy.graph = graph;
            model::KernelModel m(params, cfg);
            const auto att = m.run_attributed(
                m.keyswitch_kernels_named(params.max_level));
            const auto &s = att.schedule;
            const double frac =
                s.seconds > 0 ? s.launch_s / s.seconds : 0;
            abl.row({fuse ? "on" : "off", graph ? "on" : "off",
                     format_time(att.seconds),
                     strfmt("%.0f", s.launches),
                     format_time(s.launch_s),
                     strfmt("%.3f%%", 100.0 * frac),
                     strfmt("%llu", (unsigned long long)att.fused_kernels),
                     gpusim::bound_name(s.bound())});
            const char *tag =
                fuse ? (graph ? "fuse_graph" : "fuse")
                     : (graph ? "graph" : "base");
            report.metric(strfmt("keyswitch.%s.modeled_s", tag),
                          att.seconds);
            report.metric(strfmt("keyswitch.%s.launch_fraction", tag),
                          frac);
        }
    }
    abl.print();
    report.write();
    return 0;
}
