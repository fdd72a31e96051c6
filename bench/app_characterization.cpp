/**
 * Workload characterization: the operation mix each application
 * schedule issues (the inputs behind Table 5), the per-op cost on
 * Neo, and the resulting time breakdown — making the schedule
 * assumptions auditable rather than baked into opaque totals.
 */
#include "apps/schedules.h"
#include "baselines/backends.h"
#include "bench_util.h"

using namespace neo;
using namespace neo::apps;

namespace {

void
characterize(const char *name, const Schedule &s,
             const model::KernelModel &m, bench::Report &report)
{
    std::printf("%s (embedded bootstraps: %.0f)\n", name, s.bootstraps);
    struct Kind
    {
        model::Op op;
        const char *label;
    };
    const Kind kinds[] = {
        {model::Op::hmult, "HMULT"},   {model::Op::hrotate, "HROTATE"},
        {model::Op::pmult, "PMULT"},   {model::Op::hadd, "HADD"},
        {model::Op::padd, "PADD"},     {model::Op::rescale, "Rescale"},
        {model::Op::double_rescale, "DS"},
    };
    TextTable t;
    t.header({"op", "count", "share of time"});
    const double total = run_schedule(s, m);
    for (const auto &k : kinds) {
        double cnt = 0, time = 0;
        for (const auto &o : s.ops) {
            if (o.op != k.op)
                continue;
            cnt += o.count;
            time += m.time(o.op, o.level) * o.count;
        }
        if (cnt > 0)
            t.row({k.label, strfmt("%.0f", cnt),
                   strfmt("%5.1f%%", 100 * time / total)});
    }
    t.print();
    std::printf("total: %s\n\n", format_time(total).c_str());
    report.metric(strfmt("%s.total_s", name), total);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "app_characterization",
                         "application op mixes (Neo/Set-C)");
    bench::banner("Characterization", "application op mixes (Neo/Set-C)");
    auto b = baselines::make_neo('C');
    auto m = b.model();
    characterize("PackBootstrap", pack_bootstrap(b.params), m, report);
    characterize("HELR", helr_iteration(b.params), m, report);
    characterize("ResNet-20", resnet(b.params, 20), m, report);
    std::printf("Note: KeySwitch-bearing ops (HMULT/HROTATE) dominate — "
                "the premise of the paper's optimization focus.\n");
    report.write();
    return 0;
}
