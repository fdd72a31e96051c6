/**
 * Fig 2 — proportion of KeySwitch global-memory traffic due to the
 * BConv, IP and NTT kernels at levels l = 5..35, for the Hybrid
 * method (Set-B) and the KLSS method (Set-C). The paper highlights
 * BConv+IP reaching 43.4% + 41.8%-class shares at l = 35 under KLSS.
 *
 * Traffic is counted on the *pre-optimization* (element-wise) kernel
 * forms, as in the paper's motivation section.
 */
#include "baselines/backends.h"
#include "bench_util.h"

using namespace neo;

namespace {

void
print_method(const char *label, const ckks::CkksParams &params, bool klss,
             bench::Report &report)
{
    model::ModelConfig cfg;
    cfg.use_klss = klss;
    cfg.matmul_dataflow = false; // motivate: original kernels
    cfg.policy.engine = EngineId::int8_tcu;
    cfg.radix16_ntt = false;
    model::KernelModel m(params, cfg);

    TextTable t;
    t.header({"l", "BConv", "IP", "NTT", "other", "total"});
    for (size_t l = 5; l <= params.max_level; l += 5) {
        auto tr = m.keyswitch_traffic(l);
        const double tot = tr.total();
        t.row({strfmt("%zu", l), strfmt("%5.1f%%", 100 * tr.bconv / tot),
               strfmt("%5.1f%%", 100 * tr.ip / tot),
               strfmt("%5.1f%%", 100 * tr.ntt / tot),
               strfmt("%5.1f%%", 100 * tr.other / tot),
               format_bytes(tot)});
    }
    {
        const auto tr = m.keyswitch_traffic(params.max_level);
        const std::string key = klss ? "klss" : "hybrid";
        report.metric(key + ".l35.bytes.total", tr.total());
        report.metric(key + ".l35.bytes.bconv", tr.bconv);
        report.metric(key + ".l35.bytes.ip", tr.ip);
        report.metric(key + ".l35.bytes.ntt", tr.ntt);
    }
    std::printf("%s\n", label);
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig02",
                         "KeySwitch data-transfer proportions by kernel");
    bench::banner("Fig 2", "KeySwitch data-transfer proportions by kernel");
    print_method("Hybrid method (Set-B):", ckks::paper_set('B'), false,
                 report);
    print_method("KLSS method (Set-C):", ckks::paper_set('C'), true,
                 report);
    std::printf("Paper reference: BConv+IP together dominate — 43.4%% "
                "(BConv) and 41.8%% (IP) at l=35 under KLSS.\n");
    report.write();
    return 0;
}
