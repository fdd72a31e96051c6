#include "tune/tuner.h"

#include <array>
#include <vector>

#include "common/check.h"
#include "gpusim/tcu_model.h"
#include "neo/engine.h"

namespace neo::tune {

namespace {

/// Accept/compare slack: far below any modeled kernel time, far above
/// double rounding noise.
constexpr double kTol = 1e-15;

/// One engine per kStages row.
using Assignment = std::array<EngineId, kStages.size()>;

/**
 * The operation set scored at one level: every composite operation
 * whose schedule the stage engines influence. Keyswitch first — it is
 * the metric the bench gate compares.
 */
std::vector<double>
op_times(const ckks::CkksParams &params, const model::ModelConfig &base,
         const Assignment &assign, size_t level)
{
    model::ModelConfig cfg = base;
    cfg.policy.site_engine = [&assign](const SiteKey &site) {
        const size_t rank = stage_rank(site.stage);
        NEO_ASSERT(rank < assign.size(), "untuned stage queried");
        return assign[rank];
    };
    const model::KernelModel m(params, cfg);
    using model::Op;
    std::vector<double> t;
    for (const Op op : {Op::keyswitch, Op::hmult, Op::hrotate, Op::rescale,
                        Op::double_rescale}) {
        // A rescale needs a limb to drop, a double rescale two.
        if ((op == Op::rescale && level < 1) ||
            (op == Op::double_rescale && level < 2))
            continue;
        t.push_back(m.time(op, level));
    }
    return t;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/// Per-operation shortfall against the uniform-engine targets.
std::vector<double>
violations(const std::vector<double> &times,
           const std::vector<double> &targets)
{
    std::vector<double> v(times.size());
    for (size_t i = 0; i < times.size(); ++i)
        v[i] = std::max(0.0, times[i] - targets[i]);
    return v;
}

/**
 * Vector acceptance: @p cand beats @p cur iff no operation's
 * shortfall grows and (the summed shortfall shrinks, or it ties and
 * the summed time shrinks). Monotone per operation — the keyswitch
 * shortfall starts at zero and can never become positive.
 */
bool
accepts(const std::vector<double> &cand_v, double cand_sum,
        const std::vector<double> &cur_v, double cur_sum)
{
    for (size_t i = 0; i < cand_v.size(); ++i)
        if (cand_v[i] > cur_v[i] + kTol)
            return false;
    const double vc = sum(cand_v);
    const double vb = sum(cur_v);
    if (vc < vb - kTol)
        return true;
    return vc <= vb + kTol && cand_sum < cur_sum - kTol;
}

} // namespace

void
Tuner::tune_level(const ckks::CkksParams &params, size_t level,
                  TuningTable &out) const
{
    const auto &engines = EngineRegistry::ids();

    // 1. Uniform baselines and the per-operation targets.
    std::vector<std::vector<double>> uniform(engines.size());
    Assignment assign{};
    for (size_t e = 0; e < engines.size(); ++e) {
        assign.fill(engines[e]);
        uniform[e] = op_times(params, cfg_.base, assign, level);
    }
    std::vector<double> targets = uniform[0];
    for (size_t e = 1; e < engines.size(); ++e)
        for (size_t i = 0; i < targets.size(); ++i)
            targets[i] = std::min(targets[i], uniform[e][i]);

    // 2. Start from the uniform engine with the best (keyswitch,
    // total) time; registry order breaks exact ties.
    size_t start = 0;
    for (size_t e = 1; e < engines.size(); ++e) {
        if (uniform[e][0] < uniform[start][0] - kTol ||
            (uniform[e][0] <= uniform[start][0] + kTol &&
             sum(uniform[e]) < sum(uniform[start]) - kTol))
            start = e;
    }
    assign.fill(engines[start]);
    std::vector<double> cur = uniform[start];
    std::vector<double> cur_v = violations(cur, targets);
    double cur_sum = sum(cur);

    // 3. Coordinate descent: stages in pipeline order, candidate
    // engines in registry order, vector acceptance.
    for (size_t pass = 0; pass < cfg_.max_passes; ++pass) {
        bool changed = false;
        for (EngineId &slot : assign) {
            const EngineId before = slot;
            EngineId best = before;
            for (EngineId cand : engines) {
                if (cand == best)
                    continue;
                slot = cand;
                const auto t = op_times(params, cfg_.base, assign, level);
                const auto v = violations(t, targets);
                const double s = sum(t);
                if (accepts(v, s, cur_v, cur_sum)) {
                    best = cand;
                    cur = t;
                    cur_v = v;
                    cur_sum = s;
                }
                slot = best;
            }
            changed = changed || best != before;
        }
        if (!changed)
            break;
    }

    // 4. Emit one decision per stage, with per-engine scores (the
    // operation-set total with only that stage's engine swapped).
    const double valid = gpusim::TcuModel::valid_proportion_fp64(
        params.batch, params.beta_tilde(level), params.beta(level));
    for (size_t i = 0; i < kStages.size(); ++i) {
        if (kStages[i].rescale && level < 1)
            continue; // no rescale operation exists at level 0
        SiteDecision d;
        d.stage = kStages[i].name;
        d.level = level;
        d.d_num = params.d_num;
        d.n = params.n;
        d.valid = valid;
        const EngineId chosen = assign[i];
        d.engine = chosen;
        for (EngineId e : engines) {
            assign[i] = e;
            d.scores.push_back(
                {e, sum(op_times(params, cfg_.base, assign, level))});
        }
        assign[i] = chosen;
        out.add(std::move(d));
    }
}

void
Tuner::tune(const ckks::CkksParams &params, TuningTable &out) const
{
    NEO_CHECK(params.klss.enabled(),
              "the tuner targets the KLSS keyswitch pipeline");
    for (size_t l = 0; l <= params.max_level; ++l)
        tune_level(params, l, out);
}

TuningTable
Tuner::tune(const ckks::CkksParams &params) const
{
    TuningTable t;
    tune(params, t);
    return t;
}

} // namespace neo::tune
