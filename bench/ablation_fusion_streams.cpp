/**
 * Design-choice ablation beyond Fig 14: §4.6's two "other
 * optimization approaches" — kernel fusion and multi-stream
 * processing — plus the §4.5.3 IP mapping gate, each toggled
 * independently on the full Neo configuration.
 */
#include "apps/schedules.h"
#include "baselines/backends.h"
#include "gpusim/event_sim.h"
#include "bench_util.h"

using namespace neo;
using model::Op;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "ablation",
                         "kernel fusion / multi-stream / IP gate");
    bench::banner("Ablation", "kernel fusion / multi-stream / IP gate");
    auto base = baselines::make_neo('C');

    struct Variant
    {
        const char *name;
        model::ModelConfig cfg;
    };
    std::vector<Variant> variants;
    variants.push_back({"Neo (all on)", base.cfg});
    {
        auto c = base.cfg;
        c.kernel_fusion = false;
        variants.push_back({"- kernel fusion", c});
    }
    {
        auto c = base.cfg;
        c.multistream = false;
        variants.push_back({"- multi-stream", c});
    }
    {
        auto c = base.cfg;
        c.kernel_fusion = false;
        c.multistream = false;
        variants.push_back({"- both", c});
    }
    {
        auto c = base.cfg;
        c.ip_tcu_threshold = 2.0; // IP always on CUDA cores
        variants.push_back({"IP always CUDA", c});
    }
    {
        auto c = base.cfg;
        c.ip_tcu_threshold = 0.0; // IP always on the TCU
        variants.push_back({"IP always TCU", c});
    }

    TextTable t;
    t.header({"variant", "KeySwitch", "HMULT", "PackBootstrap",
              "vs Neo"});
    double base_time = 0;
    for (const auto &v : variants) {
        model::KernelModel m(base.params, v.cfg);
        const double ks = m.time(Op::keyswitch, base.params.max_level);
        const double hm = m.time(Op::hmult, base.params.max_level);
        const double boot =
            apps::run_schedule(apps::pack_bootstrap(base.params), m);
        if (base_time == 0) {
            base_time = boot;
            report.metric("neo.keyswitch_s", ks);
            report.metric("neo.hmult_s", hm);
            report.metric("neo.bootstrap_s", boot);
        }
        t.row({v.name, format_time(ks), format_time(hm),
               format_time(boot), strfmt("%.3fx", boot / base_time)});
    }
    t.print();

    // Hoisting: 16 rotations of one ciphertext (a BSGS inner loop),
    // individually vs with a shared ModUp.
    model::KernelModel m(base.params, base.cfg);
    const size_t l = base.params.max_level;
    const double individual = 16 * m.time(Op::hrotate, l);
    const double hoisted = m.hrotate_hoisted_time(l, 16);
    std::printf("\nHoisting (16 rotations at l=%zu): individual %s vs "
                "hoisted %s (%.2fx)\n",
                l, format_time(individual).c_str(),
                format_time(hoisted).c_str(), individual / hoisted);
    report.metric("hoisted16.total_s", hoisted);

    // Fluid event simulation of two batch-halves issued on two
    // streams: cross-checks the aggregate multi-stream model on the
    // real KeySwitch kernel sequence.
    {
        std::vector<gpusim::KernelCost> kernels;
        for (const auto &nk : m.kernels(Op::keyswitch, l))
            kernels.push_back(nk.cost);
        gpusim::EventSimulator sim(base.cfg.device);
        const double fluid =
            sim.run_queues({kernels, kernels}).makespan;
        const double serial =
            2 * gpusim::run_schedule(kernels, base.cfg.device,
                                     gpusim::SchedulePolicy{false, false})
                    .seconds;
        std::printf("\nFluid stream simulation (2 batch-halves, 2 "
                    "streams): %s vs %s serial (%.2fx overlap gain)\n",
                    format_time(fluid).c_str(),
                    format_time(serial).c_str(), serial / fluid);
        report.metric("fluid.two_stream_s", fluid);
    }

    std::printf("\nPaper reference (§4.6/§4.5.3): fusion removes "
                "intermediate traffic and launches; multi-stream fills "
                "TCU stalls with CUDA work; the 80%% valid-proportion "
                "gate picks IP's engine per level.\n");
    report.write();
    return 0;
}
