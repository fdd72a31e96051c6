/**
 * Table 8 — KeySwitch time under the d_num × α̃ sweep (other
 * parameters per Set-B, KLSS at WordSize_T = 48). The paper's optimum
 * is d_num = 9, α̃ = 5 (3.22 ms).
 */
#include "baselines/backends.h"
#include "bench_util.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "table8",
                         "KeySwitch time across d_num and alpha~");
    bench::banner("Table 8", "KeySwitch time (ms) across d_num and alpha~");
    model::ModelConfig cfg; // Neo full configuration

    const size_t d_nums[] = {4, 6, 9, 12, 18};
    TextTable t;
    std::vector<std::string> head = {"alpha~ \\ d_num"};
    for (size_t d : d_nums)
        head.push_back(strfmt("%zu", d));
    t.header(head);

    double best = 1e18;
    size_t best_d = 0, best_a = 0;
    for (size_t at = 4; at <= 10; ++at) {
        std::vector<std::string> row = {strfmt("%zu", at)};
        for (size_t d : d_nums) {
            ckks::CkksParams p = ckks::paper_set('B');
            p.d_num = d;
            p.klss.word_size_t = 48;
            p.klss.alpha_tilde = at;
            model::KernelModel m(p, cfg);
            const double ms =
                m.time(model::Op::keyswitch, p.max_level) * 1e3;
            if (ms < best) {
                best = ms;
                best_d = d;
                best_a = at;
            }
            row.push_back(strfmt("%.3f", ms));
        }
        t.row(row);
    }
    t.print();
    std::printf("\nModel optimum: d_num=%zu, alpha~=%zu at %.3f ms "
                "(paper optimum: d_num=9, alpha~=5 at 3.22 ms).\n",
                best_d, best_a, best);
    report.metric("best.keyswitch_s", best * 1e-3);
    report.note("best.d_num", strfmt("%zu", best_d));
    report.note("best.alpha_tilde", strfmt("%zu", best_a));
    report.write();
    return 0;
}
