/**
 * Fig 11 + Fig 12 — Tensor-core fragment utilisation.
 *
 * Fig 11: BConv's GEMM (K = α = 4, N = α' = 8) fills FP64 8×8×4
 * fragments perfectly (100% valid) but only 25% of an INT8 32×8×16
 * fragment.
 *
 * Fig 12: valid proportion of the NTT / BConv / IP matrix products on
 * the FP64 fragments as the level l drops (Set-C parameters). NTT and
 * BConv stay at 100%; IP varies with β and β̃ and falls below the 80%
 * threshold of §4.5.3 at some levels, which flips its mapping to the
 * CUDA cores.
 */
#include "baselines/backends.h"
#include "bench_util.h"
#include "gpusim/tcu_model.h"

using namespace neo;
using gpusim::TcuModel;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig12",
                         "Tensor-core fragment utilisation");
    bench::banner("Fig 11", "BConv fragment utilisation, INT8 vs FP64");
    const auto params = ckks::paper_set('C');
    const size_t alpha = params.alpha();          // 4
    const size_t alpha_p = params.klss_alpha_prime(); // 8
    const size_t m = params.batch * params.n;
    std::printf("BConv GEMM (BS*N) x %zu x %zu:\n", alpha_p, alpha);
    std::printf("  FP64 8x8x4 fragments : %5.1f%% valid (paper: 100%%)\n",
                100 * TcuModel::valid_proportion_fp64(m, alpha_p, alpha));
    std::printf("  INT8 32x8x16 fragment: %5.1f%% valid (paper: 25%%)\n",
                100 * TcuModel::valid_proportion_int8(m, alpha_p, alpha));

    bench::banner("Fig 12", "FP64 valid proportion vs level (Set-C)");
    model::KernelModel model(params, model::ModelConfig{});
    TextTable t;
    t.header({"l", "NTT", "BConv", "IP", "IP mapping"});
    for (i64 l = static_cast<i64>(params.max_level); l >= 3; l -= 4) {
        const size_t beta = params.beta(l);
        const size_t beta_tilde = params.beta_tilde(l);
        const double ntt = TcuModel::valid_proportion_fp64(
            params.batch * params.n / 16, 16, 16);
        const double bconv =
            TcuModel::valid_proportion_fp64(m, alpha_p, alpha);
        const double ip = TcuModel::valid_proportion_fp64(
            params.batch, beta_tilde, beta);
        t.row({strfmt("%zu", l), strfmt("%5.1f%%", 100 * ntt),
               strfmt("%5.1f%%", 100 * bconv), strfmt("%5.1f%%", 100 * ip),
               model.ip_engine(l) == EngineId::fp64_tcu
                   ? "TCU FP64"
                   : "CUDA cores"});
    }
    t.print();
    std::printf("\nPaper reference: NTT and BConv pin at 100%%; IP varies "
                "with l and maps to the TCU only above the 80%% gate.\n");
    // Valid proportions are "higher is better": gate on the wasted
    // fraction instead so an increase means a regression.
    report.metric("bconv.fp64.invalid",
                  1.0 - TcuModel::valid_proportion_fp64(m, alpha_p, alpha));
    report.metric("bconv.int8.invalid",
                  1.0 - TcuModel::valid_proportion_int8(m, alpha_p, alpha));
    report.metric("ip.l35.invalid",
                  1.0 - TcuModel::valid_proportion_fp64(
                            params.batch, params.beta_tilde(35),
                            params.beta(35)));
    report.write();
    return 0;
}
