#include "apps/schedules.h"

#include <algorithm>

#include "common/check.h"

namespace neo::apps {

using model::Op;

namespace {

/// Clamp a level into the valid [1, L] range of the parameter set.
size_t
lvl(const ckks::CkksParams &p, i64 level)
{
    return static_cast<size_t>(
        std::clamp<i64>(level, 1, static_cast<i64>(p.max_level)));
}

void
push(Schedule &s, Op op, size_t level, double count)
{
    if (count > 0)
        s.ops.push_back({op, level, count});
}

} // namespace

double
Schedule::total(Op k) const
{
    double c = 0;
    for (const auto &o : ops) {
        if (o.op == k)
            c += o.count;
    }
    return c;
}

Schedule
pack_bootstrap(const ckks::CkksParams &p)
{
    Schedule s;
    s.name = "PackBootstrap";
    const i64 top = static_cast<i64>(p.max_level);

    // CoeffToSlot: 3 BSGS stages of the factored DFT. Each stage has
    // ~63 plaintext diagonals: 2·√63 ≈ 16 rotations (8 giant + 8
    // baby), 63 PMULT/HADD, one rescale. One conjugation splits
    // real/imag parts at the end.
    for (int stage = 0; stage < 3; ++stage) {
        const size_t at = lvl(p, top - stage);
        push(s, Op::hrotate, at, 16);
        push(s, Op::pmult, at, 63);
        push(s, Op::hadd, at, 63);
        push(s, Op::rescale, at, 1);
    }
    push(s, Op::hrotate, lvl(p, top - 3), 1); // conjugation

    // EvalMod: degree-63 Chebyshev of the scaled sine plus 2
    // double-angle steps — 12 non-scalar multiplications and their
    // rescales (Double Rescale keeps precision at WordSize 36, §2.1).
    const bool use_ds = p.word_size < 40;
    for (int m = 0; m < 12; ++m) {
        const size_t at = lvl(p, top - 4 - m);
        push(s, Op::hmult, at, 1);
        push(s, use_ds && m % 2 == 0 ? Op::double_rescale
                                     : Op::rescale,
             at, 1);
    }
    push(s, Op::pmult, lvl(p, top - 8), 26);
    push(s, Op::padd, lvl(p, top - 8), 26);
    push(s, Op::hadd, lvl(p, top - 8), 12);

    // SlotToCoeff: 3 more BSGS stages at the lower levels.
    for (int stage = 0; stage < 3; ++stage) {
        const size_t at = lvl(p, top - 17 - stage);
        push(s, Op::hrotate, at, 16);
        push(s, Op::pmult, at, 63);
        push(s, Op::hadd, at, 63);
        push(s, Op::rescale, at, 1);
    }
    return s;
}

Schedule
helr_iteration(const ckks::CkksParams &p)
{
    Schedule s;
    s.name = "HELR";
    const i64 top = static_cast<i64>(p.max_level);

    // X·w: rotate-and-sum over the 196-feature dimension packed into
    // slot groups (log2(256) = 8 rotations), one PMULT per block.
    push(s, Op::hrotate, lvl(p, top), 8);
    push(s, Op::pmult, lvl(p, top), 4);
    push(s, Op::hmult, lvl(p, top), 2);
    push(s, Op::rescale, lvl(p, top), 2);

    // Degree-3 sigmoid approximation.
    push(s, Op::hmult, lvl(p, top - 1), 2);
    push(s, Op::rescale, lvl(p, top - 1), 2);
    push(s, Op::pmult, lvl(p, top - 1), 3);
    push(s, Op::padd, lvl(p, top - 1), 3);

    // Gradient: X^T·(σ(z) - y) by rotate-and-sum, then the update.
    push(s, Op::hrotate, lvl(p, top - 2), 8);
    push(s, Op::hmult, lvl(p, top - 2), 1);
    push(s, Op::rescale, lvl(p, top - 2), 1);
    push(s, Op::pmult, lvl(p, top - 3), 2);
    push(s, Op::hadd, lvl(p, top - 3), 4);

    // One refresh bootstrap per iteration keeps the budget positive
    // across the 32 training iterations.
    s.bootstraps = 1;
    return s;
}

Schedule
resnet(const ckks::CkksParams &p, int layers)
{
    NEO_CHECK(layers == 20 || layers == 32 || layers == 56,
              "ResNet variant must be 20/32/56");
    Schedule s;
    s.name = "ResNet-" + std::to_string(layers);
    const i64 top = static_cast<i64>(p.max_level);

    // Per convolutional layer (multiplexed packing, Lee et al.):
    // 3×3 kernel -> 9 shifted copies, channel rotations and packing
    // moves; then a degree-27 polynomial ReLU (8 non-scalar mults via
    // BSGS), and one bootstrap to refresh the budget. The three
    // ResNet stages (16/32/64 channels, halving spatial size) shift
    // work from spatial shifts to channel packing as depth grows.
    const double relu_mult = 8;
    for (int layer = 0; layer < layers; ++layer) {
        const int stage = layer / std::max(1, layers / 3); // 0,1,2
        const double conv_rot = 28.0 + 6.0 * std::min(stage, 2);
        const double conv_pmult = 30.0 + 6.0 * std::min(stage, 2);
        const size_t at = lvl(p, top - (layer % 6));
        push(s, Op::hrotate, at, conv_rot);
        push(s, Op::pmult, at, conv_pmult);
        push(s, Op::hadd, at, conv_pmult);
        push(s, Op::rescale, at, 2);
        push(s, Op::hmult, lvl(p, at - 1), relu_mult);
        push(s, Op::rescale, lvl(p, at - 1), relu_mult);
    }
    // Final average-pool + fully connected layer.
    push(s, Op::hrotate, lvl(p, 4), 16);
    push(s, Op::pmult, lvl(p, 4), 10);
    push(s, Op::hadd, lvl(p, 4), 16);

    s.bootstraps = layers; // one refresh per layer block
    return s;
}

double
run_schedule(const Schedule &s, const model::KernelModel &m)
{
    double t = 0;
    for (const auto &o : s.ops)
        t += m.time(o.op, o.level) * o.count;
    if (s.bootstraps > 0) {
        const Schedule bs = pack_bootstrap(m.params());
        t += s.bootstraps * run_schedule(bs, m);
    }
    return t;
}

} // namespace neo::apps
