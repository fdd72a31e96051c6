/**
 * Fig 16 — KeySwitch time: Hybrid vs KLSS at WordSize_T ∈ {36,48,64},
 * other parameters as Set-B. 48 bits is the sweet spot: 36 inflates
 * α' (algorithmic complexity), 64 inflates the FP64 split count on
 * the TCU ("Booth complexity").
 */
#include "baselines/backends.h"
#include "bench_util.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig16",
                         "Hybrid vs KLSS across WordSize_T (Set-B base)");
    bench::banner("Fig 16", "Hybrid vs KLSS across WordSize_T (Set-B base)");
    model::ModelConfig neo_cfg; // all Neo optimizations on

    TextTable t;
    t.header({"method", "WordSize_T", "alpha'", "KeySwitch time",
              "vs Hybrid"});

    // Both methods at the Table 8 optimum d_num = 9 (the sweep's
    // other parameters follow Set-B), KLSS sweeping WordSize_T.
    ckks::CkksParams base = ckks::paper_set('B');
    base.d_num = 9;
    model::ModelConfig hybrid_cfg = neo_cfg;
    hybrid_cfg.use_klss = false;
    model::KernelModel hybrid(base, hybrid_cfg);
    const double t_hybrid =
        hybrid.time(model::Op::keyswitch, base.max_level);
    t.row({"Hybrid", "-", "-", format_time(t_hybrid), "1.00x"});
    report.metric("hybrid.keyswitch_s", t_hybrid);

    for (int wst : {36, 48, 64}) {
        ckks::CkksParams p = base;
        p.klss.word_size_t = wst;
        p.klss.alpha_tilde = 5;
        model::KernelModel klss(p, neo_cfg);
        const double s = klss.time(model::Op::keyswitch, p.max_level);
        t.row({"KLSS", strfmt("%d", wst),
               strfmt("%zu", p.klss_alpha_prime()), format_time(s),
               strfmt("%.2fx", t_hybrid / s)});
        report.metric(strfmt("klss.ws%d.keyswitch_s", wst), s);
    }
    t.print();
    std::printf("\nPaper reference: WordSize_T = 48 is optimal; 36 pays in "
                "alpha', 64 pays in TCU split complexity.\n");
    report.write();
    return 0;
}
