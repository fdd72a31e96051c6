#include "ckks/ks_precomp.h"

#include <algorithm>

#include "ckks/context.h"
#include "common/check.h"

namespace neo::ckks {

namespace {

/// The primes at positions first..last-1 of the [P, Q] ordering.
RnsBasis
pq_range(const CkksContext &ctx, size_t first, size_t last)
{
    std::vector<u64> primes;
    for (size_t t = first; t < last; ++t)
        primes.push_back(ctx.pq_ordered_mod(t).value());
    return RnsBasis(primes);
}

KeySwitchPrecomp::Level
build_level(const CkksContext &ctx, size_t level)
{
    KeySwitchPrecomp::Level lv;
    lv.active = ctx.active_mods(level);
    lv.extended = ctx.extended_mods(level);
    lv.p_to_q = std::make_unique<BaseConverter>(
        ctx.p_basis(), ctx.q_basis().slice(0, level + 1));
    lv.p_inv.resize(level + 1);
    lv.p_inv_shoup.resize(level + 1);
    for (size_t i = 0; i <= level; ++i) {
        const Modulus &qi = lv.active[i];
        lv.p_inv[i] = qi.inv(ctx.p_basis().product_mod(qi));
        lv.p_inv_shoup[i] = shoup_precompute(lv.p_inv[i], qi.value());
    }

    lv.groups = ctx.digit_partition(level);
    const bool klss = ctx.params().klss.enabled();
    lv.digits.reserve(lv.groups.size());
    for (const auto &g : lv.groups) {
        const RnsBasis digit = ctx.q_basis().slice(g.first, g.count);
        std::vector<u64> other_primes;
        for (size_t t = 0; t < lv.extended.size(); ++t) {
            if (t < g.first || t >= g.first + g.count)
                other_primes.push_back(lv.extended[t].value());
        }
        KeySwitchPrecomp::Digit d;
        d.to_other = std::make_unique<BaseConverter>(
            digit, RnsBasis(other_primes));
        if (klss)
            d.to_t = std::make_unique<BaseConverter>(digit, ctx.t_basis());
        lv.digits.push_back(std::move(d));
    }
    if (!klss)
        return lv;

    // Every key digit below β̃ starts inside the active [P, q_0..q_l]
    // prefix, so each keeps at least one prime; the last may be cut.
    lv.beta_tilde = ctx.params().beta_tilde(level);
    const size_t active = level + 1 + ctx.p_basis().size();
    lv.recover.reserve(lv.beta_tilde);
    for (size_t i = 0; i < lv.beta_tilde; ++i) {
        const auto &grp = ctx.klss_key_partition()[i];
        lv.recover.emplace_back(
            ctx.t_basis(),
            pq_range(ctx, grp.first, std::min(grp.first + grp.count, active)));
    }
    return lv;
}

} // namespace

KeySwitchPrecomp::KeySwitchPrecomp(const CkksContext &ctx)
{
    levels_.reserve(ctx.max_level() + 1);
    for (size_t level = 0; level <= ctx.max_level(); ++level)
        levels_.push_back(build_level(ctx, level));
    if (!ctx.params().klss.enabled())
        return;
    for (const auto &grp : ctx.klss_key_partition())
        key_digit_to_t_.emplace_back(
            pq_range(ctx, grp.first, grp.first + grp.count), ctx.t_basis());
}

const KeySwitchPrecomp::Level &
KeySwitchPrecomp::level(size_t level) const
{
    NEO_CHECK(level < levels_.size(), "level out of range");
    return levels_[level];
}

} // namespace neo::ckks
