/**
 * Multi-device crossover sweep: modeled keyswitch time for parameter
 * sets A–H sharded over 1/2/4/8 devices on the NVLink and PCIe
 * presets. The question (Fig 2's bandwidth argument, scaled out): at
 * which parameter scale does the collective traffic a shard exchanges
 * cost less than the DRAM passes it saves? One table per fabric, plus
 * flat metrics (`<set>.d<N>.<fabric>.s` and speedups) that the CI
 * artifact gates on.
 */
#include "ckks/paper_params.h"
#include "gpusim/topology.h"
#include "neo/shard.h"
#include "bench_util.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig_multi_device",
                         "multi-device keyswitch crossover sweep");
    bench::banner("MultiDevice",
                  "sharded keyswitch crossover (sets A-H, NVLink vs "
                  "PCIe)");

    const size_t device_counts[] = {1, 2, 4, 8};
    char best_set = '?';
    double best_speedup = 0;
    size_t crossovers = 0;

    for (const auto ic :
         {gpusim::Interconnect::nvlink, gpusim::Interconnect::pcie}) {
        const char *fabric = gpusim::interconnect_name(ic);
        std::printf("\n-- %s fabric --\n", fabric);
        TextTable t;
        t.header({"set", "1 dev", "2 dev", "4 dev", "8 dev",
                  "best speedup", "comm bytes (2 dev)"});
        for (const char set : ckks::kPaperSets) {
            const auto params = ckks::paper_set(set);
            if (!params.klss.enabled()) {
                // No α̃: the set has no KLSS key-digit structure to
                // shard (sets A/B/E/F/H are baseline configurations).
                t.row({std::string(1, set), "-", "-", "-", "-", "-",
                       "-"});
                continue;
            }
            model::ModelConfig cfg;
            cfg.policy.interconnect = ic;
            std::vector<std::string> cells;
            cells.push_back(std::string(1, set));
            double single = 0;
            double best = 0;
            double comm2 = 0;
            for (const size_t d : device_counts) {
                cfg.policy.devices = d;
                const auto sc = shard::model_sharded_keyswitch(
                    params, params.max_level, cfg);
                if (d == 1)
                    single = sc.single_seconds;
                if (d == 2)
                    comm2 = sc.plan.total_bytes();
                const double speedup =
                    sc.seconds > 0 ? single / sc.seconds : 0;
                if (d > 1)
                    best = std::max(best, speedup);
                cells.push_back(d == 1
                                    ? format_time(single)
                                    : strfmt("%s (%.2fx)",
                                             format_time(sc.seconds)
                                                 .c_str(),
                                             speedup));
                report.metric(strfmt("%c.d%zu.%s.s", set, d, fabric),
                              d == 1 ? single : sc.seconds);
                if (d > 1 && ic == gpusim::Interconnect::nvlink &&
                    sc.seconds < single) {
                    ++crossovers;
                    if (speedup > best_speedup) {
                        best_speedup = speedup;
                        best_set = set;
                    }
                }
            }
            cells.push_back(strfmt("%.2fx", best));
            cells.push_back(format_bytes(comm2));
            t.row(cells);
            report.metric(strfmt("%c.best_speedup.%s", set, fabric),
                          best);
        }
        t.print();
    }

    std::printf("\nCrossover: %zu NVLink shard points beat "
                "single-device; best %.2fx at set %c. The PCIe ring's "
                "collective bill shifts the crossover to larger "
                "parameter sets.\n",
                crossovers, best_speedup, best_set);
    report.metric("crossover.points", static_cast<double>(crossovers));
    report.metric("crossover.best_speedup", best_speedup);
    report.note("sets", "A-H (Table 5 parameters)");
    report.note("fabrics", "nvlink (FC, 300 GB/s egress), pcie "
                           "(ring, 25 GB/s)");
    report.write();
    return crossovers > 0 ? 0 : 1;
}
