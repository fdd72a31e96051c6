/**
 * Performance explorer: uses the A100 device model the way a
 * deployment engineer would — pick a parameter set, see where the
 * time goes (per kernel, per operation, per application), and compare
 * the backend designs before writing a single CUDA kernel.
 */
#include <cstdio>

#include "apps/schedules.h"
#include "baselines/backends.h"
#include "common/table.h"

using namespace neo;
using model::Op;

int
main(int argc, char **argv)
{
    const char set = argc > 1 ? argv[1][0] : 'C';
    auto backend = baselines::make_neo(set);
    auto m = backend.model();
    const auto &p = backend.params;
    const auto &dev = backend.cfg.device;

    std::printf("Backend: %s on %s\n", backend.name.c_str(), dev.name);
    std::printf("N=%zu L=%zu WordSize=%d d_num=%zu batch=%zu", p.n,
                p.max_level, p.word_size, p.d_num, p.batch);
    if (p.klss.enabled()) {
        std::printf(" | KLSS: WordSize_T=%d alpha~=%zu alpha'=%zu",
                    p.klss.word_size_t, p.klss.alpha_tilde,
                    p.klss_alpha_prime());
    }
    std::printf("\n\n");

    // Where one KeySwitch spends its time.
    std::printf("KeySwitch kernel walk at l = %zu:\n", p.max_level);
    TextTable kt;
    kt.header({"#", "cuda", "tcu", "mem", "kernel time"});
    int idx = 0;
    for (const auto &nk : m.kernels(Op::keyswitch, p.max_level)) {
        const auto &k = nk.cost;
        kt.row({strfmt("%d", idx++), format_time(k.cuda_time(dev)),
                format_time(k.tcu_time(dev)),
                format_time(k.mem_time(dev)),
                format_time(k.time(dev, true))});
    }
    kt.print();
    std::printf("KeySwitch total (amortized per batched ct): %s\n\n",
                format_time(m.time(Op::keyswitch, p.max_level)).c_str());

    // Operation costs across levels.
    std::printf("Operation costs by level:\n");
    TextTable ot;
    ot.header({"l", "HMULT", "HROTATE", "PMULT", "Rescale"});
    for (i64 l = static_cast<i64>(p.max_level); l >= 5; l -= 10) {
        ot.row({strfmt("%lld", static_cast<long long>(l)),
                format_time(m.time(Op::hmult, l)),
                format_time(m.time(Op::hrotate, l)),
                format_time(m.time(Op::pmult, l)),
                format_time(m.time(Op::rescale, l))});
    }
    ot.print();

    // Application projections.
    std::printf("\nApplication projections:\n");
    TextTable at;
    at.header({"app", "projected time"});
    at.row({"PackBootstrap",
            format_time(apps::run_schedule(apps::pack_bootstrap(p), m))});
    at.row({"HELR iteration",
            format_time(apps::run_schedule(apps::helr_iteration(p), m))});
    at.row({"ResNet-20",
            format_time(apps::run_schedule(apps::resnet(p, 20), m))});
    at.print();
    std::printf("\nTry: %s D   (60-bit Set-D parameters)\n",
                argc > 0 ? argv[0] : "performance_explorer");
    return 0;
}
