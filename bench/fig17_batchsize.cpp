/**
 * Fig 17 — sensitivity of per-batch application time to BatchSize
 * (8..128, Set-B-consistent; Set-C chain for Neo). Larger batches
 * amortize launches and raise parallelism, so per-ciphertext time
 * decreases monotonically; 128 is the memory-capacity limit.
 */
#include "apps/schedules.h"
#include "baselines/backends.h"
#include "bench_util.h"
#include "gpusim/memory_model.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig17",
                         "BatchSize sensitivity (normalised to 128)");
    bench::banner("Fig 17", "BatchSize sensitivity (normalised to 128)");
    TextTable t;
    t.header({"app", "BS=8", "BS=16", "BS=32", "BS=64", "BS=128"});

    struct App
    {
        const char *name;
        apps::Schedule (*make)(const ckks::CkksParams &);
    };
    auto r20 = [](const ckks::CkksParams &p) { return apps::resnet(p, 20); };
    const App apps_list[] = {
        {"PackBootstrap", apps::pack_bootstrap},
        {"HELR", apps::helr_iteration},
        {"ResNet-20", +r20},
    };

    for (const auto &app : apps_list) {
        // Reference at BS = 128.
        auto make_time = [&](size_t bs) {
            auto b = baselines::make_neo('C');
            b.params.batch = bs;
            return apps::run_schedule(app.make(b.params), b.model());
        };
        const double ref = make_time(128);
        std::vector<std::string> row = {app.name};
        for (size_t bs : {8u, 16u, 32u, 64u, 128u})
            row.push_back(strfmt("%.2f", make_time(bs) / ref));
        t.row(row);
        report.metric(strfmt("%s.bs128.total_s", app.name), ref);
    }
    t.print();

    // The cap itself: the largest BatchSize whose Set-C keyswitch
    // working set fits the device (§6.3).
    const auto neo_c = baselines::make_neo('C');
    const size_t max_batch =
        gpusim::MemoryModel(neo_c.params).max_batch(neo_c.cfg.device);
    report.metric("vram.max_batch", static_cast<double>(max_batch));
    std::printf("\nPaper reference: per-batch time decreases monotonically "
                "with BatchSize; 128 is the default.\n"
                "VRAM model: BatchSize <= %zu fits the %.0f GB device.\n",
                max_batch, neo_c.cfg.device.vram_bytes / 1e9);
    report.write();
    return 0;
}
