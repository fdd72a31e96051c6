/**
 * Table 5 — application performance (seconds) across schemes:
 * PackBootstrap, HELR (one iteration), ResNet-20/32/56, for CPU,
 * TensorFHE (SS / A / B / C), HEonGPU, Neo (C / D) and Neo_SS.
 */
#include "apps/schedules.h"
#include "baselines/backends.h"
#include "bench_util.h"
#include "tune/tuner.h"

using namespace neo;

namespace {

struct PaperRow
{
    double boot, helr, r20, r32, r56;
};

void
add_row(TextTable &t, const baselines::Backend &b, const PaperRow *paper)
{
    auto m = b.model();
    const double boot =
        apps::run_schedule(apps::pack_bootstrap(b.params), m);
    const double helr =
        apps::run_schedule(apps::helr_iteration(b.params), m);
    const double r20 = apps::run_schedule(apps::resnet(b.params, 20), m);
    const double r32 = apps::run_schedule(apps::resnet(b.params, 32), m);
    const double r56 = apps::run_schedule(apps::resnet(b.params, 56), m);
    auto cell = [&](double ours, double pap) {
        return paper ? strfmt("%8.2f (%7.2f)", ours, pap)
                     : strfmt("%8.2f", ours);
    };
    t.row({b.name, cell(boot, paper ? paper->boot : 0),
           cell(helr, paper ? paper->helr : 0),
           cell(r20, paper ? paper->r20 : 0),
           cell(r32, paper ? paper->r32 : 0),
           cell(r56, paper ? paper->r56 : 0)});
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "table5",
                         "Application performance across schemes");
    bench::banner("Table 5", "Application performance, seconds "
                             "(paper values in parentheses)");
    TextTable t;
    t.header({"scheme", "PackBootstrap", "HELR", "ResNet-20", "ResNet-32",
              "ResNet-56"});

    const PaperRow cpu{17.2, 356, 1380, 0, 0};
    const PaperRow tfhe_ss{0.53, 0.90, 35.27, 57.70, 102.71};
    const PaperRow neo_ss{0.17, 0.19, 9.11, 14.90, 26.48};
    const PaperRow tfhe_a{0.67, 0.96, 41.07, 67.18, 119.49};
    const PaperRow tfhe_b{0.74, 0.78, 38.77, 64.22, 114.15};
    const PaperRow tfhe_c{0.85, 0.73, 40.68, 66.19, 117.30};
    const PaperRow heon{0.36, 0.26, 16.42, 27.00, 47.99};
    const PaperRow neo_c{0.24, 0.22, 12.03, 19.68, 34.98};
    const PaperRow neo_d{0.27, 0.25, 13.39, 21.83, 38.78};

    add_row(t, baselines::make_cpu(), &cpu);
    add_row(t, baselines::make_tensorfhe_ss(), &tfhe_ss);
    add_row(t, baselines::make_neo_ss(), &neo_ss);
    add_row(t, baselines::make_tensorfhe('A'), &tfhe_a);
    add_row(t, baselines::make_tensorfhe('B'), &tfhe_b);
    add_row(t, baselines::make_tensorfhe('C'), &tfhe_c);
    add_row(t, baselines::make_heongpu(), &heon);
    add_row(t, baselines::make_neo('C'), &neo_c);
    add_row(t, baselines::make_neo('D'), &neo_d);

    // Autotuned Neo: the Set-C model with the tuner's per-site engine
    // decisions, resolved through the table's policy. No paper
    // column — the paper's Neo rows are fixed-engine.
    auto neo_auto = baselines::make_neo('C');
    neo_auto.name = "Neo (C, auto)";
    {
        tune::TunerConfig tcfg;
        tcfg.base = neo_auto.cfg;
        neo_auto.cfg.policy = tune::Tuner(tcfg).tune(neo_auto.params).policy(
            neo_auto.cfg.policy);
    }
    add_row(t, neo_auto, nullptr);
    t.print();

    // The headline speedup: Neo vs best TensorFHE configuration.
    auto neo = baselines::make_neo('C');
    double neo_total = 0, tfhe_total = 1e18;
    for (char set : {'A', 'B', 'C'}) {
        auto b = baselines::make_tensorfhe(set);
        auto m = b.model();
        double tot =
            apps::run_schedule(apps::pack_bootstrap(b.params), m) +
            apps::run_schedule(apps::helr_iteration(b.params), m) +
            apps::run_schedule(apps::resnet(b.params, 20), m);
        tfhe_total = std::min(tfhe_total, tot);
    }
    {
        auto m = neo.model();
        const double boot =
            apps::run_schedule(apps::pack_bootstrap(neo.params), m);
        const double helr =
            apps::run_schedule(apps::helr_iteration(neo.params), m);
        const double r20 =
            apps::run_schedule(apps::resnet(neo.params, 20), m);
        neo_total = boot + helr + r20;
        report.metric("neo_c.bootstrap_s", boot);
        report.metric("neo_c.helr_s", helr);
        report.metric("neo_c.resnet20_s", r20);
    }
    std::printf("\nNeo speedup over best TensorFHE config: %.2fx "
                "(paper: 3.28x vs optimal TensorFHE).\n",
                tfhe_total / neo_total);
    // Speedup is higher-is-better; gate on its reciprocal.
    report.metric("neo_c.vs_tensorfhe.inverse_speedup",
                  neo_total / tfhe_total);

    // The autotuner gate: the per-site mix must not lose to the fixed
    // Set-C engine on the application schedules (ratio <= 1 modulo
    // model noise; gated via the neo.bench/1 baseline compare).
    {
        auto m = neo_auto.model();
        const double boot =
            apps::run_schedule(apps::pack_bootstrap(neo_auto.params), m);
        const double helr =
            apps::run_schedule(apps::helr_iteration(neo_auto.params), m);
        const double r20 =
            apps::run_schedule(apps::resnet(neo_auto.params, 20), m);
        report.metric("neo_c_auto.bootstrap_s", boot);
        report.metric("neo_c_auto.helr_s", helr);
        report.metric("neo_c_auto.resnet20_s", r20);
        report.metric("neo_c_auto.vs_fixed_ratio",
                      (boot + helr + r20) / neo_total);
        std::printf("Autotuned Neo (C) vs fixed engine: %.4fx of the "
                    "fixed-engine time on Bootstrap+HELR+ResNet-20.\n",
                    (boot + helr + r20) / neo_total);
    }
    report.write();
    return 0;
}
