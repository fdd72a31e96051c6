/**
 * Table 6 — primitive-operation times at l = 35 (microseconds, per
 * batched ciphertext) for TensorFHE (Sets A/B/C), HEonGPU (Set-E) and
 * Neo (Set-C), plus the CPU reference at Set-H.
 */
#include "baselines/backends.h"
#include "bench_util.h"

using namespace neo;
using model::Op;

namespace {

void
add_row(TextTable &t, const baselines::Backend &b, size_t level)
{
    auto m = b.model();
    auto us = [&](Op op) {
        return strfmt("%10.1f", m.time(op, level) * 1e6);
    };
    t.row({b.name, us(Op::hmult), us(Op::hrotate), us(Op::pmult),
           us(Op::hadd), us(Op::padd), us(Op::rescale)});
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "table6",
                         "Operation times at l=35");
    bench::banner("Table 6", "Operation times at l=35, microseconds");
    TextTable t;
    t.header({"scheme", "HMult", "HRotate", "PMult", "HAdd", "PAdd",
              "Rescale"});
    add_row(t, baselines::make_cpu(), 44);
    add_row(t, baselines::make_tensorfhe('A'), 35);
    add_row(t, baselines::make_tensorfhe('B'), 35);
    add_row(t, baselines::make_tensorfhe('C'), 35);
    add_row(t, baselines::make_heongpu(), 35);
    add_row(t, baselines::make_neo('C'), 35);
    t.print();
    std::printf(
        "\nPaper reference (us): TensorFHE A/B/C HMult = 15304.6 / 18689.4 "
        "/ 32523.6; HEonGPU = 8172.6; Neo = 3472.5; CPU HMult = 2.6 s.\n");
    {
        auto m = baselines::make_neo('C').model();
        report.metric("neo_c.hmult_s", m.time(Op::hmult, 35));
        report.metric("neo_c.hrotate_s", m.time(Op::hrotate, 35));
        report.metric("neo_c.rescale_s", m.time(Op::rescale, 35));
    }
    report.write();
    return 0;
}
