#include "ckks/ks_precomp.h"

#include "ckks/context.h"
#include "common/check.h"

namespace neo::ckks {

KeySwitchPrecomp::KeySwitchPrecomp(const CkksContext &ctx)
    : ctx_(ctx), levels_(ctx.max_level() + 1)
{
    if (ctx.params().klss.enabled())
        t_single_.resize(ctx.pq_ordered_size());
}

KeySwitchPrecomp::~KeySwitchPrecomp() = default;

const KeySwitchPrecomp::Level &
KeySwitchPrecomp::level(size_t level) const
{
    LockGuard lock(mu_);
    // Size check under the lock: levels_ is sized once in the
    // constructor, but the analysis (rightly) has no way to know that.
    NEO_CHECK(level < levels_.size(), "level out of range");
    auto &slot = levels_[level];
    if (slot != nullptr)
        return *slot;

    auto lv = std::make_unique<Level>();
    lv->active = ctx_.active_mods(level);
    lv->extended = ctx_.extended_mods(level);
    std::vector<u64> active_primes;
    active_primes.reserve(lv->active.size());
    for (const auto &m : lv->active)
        active_primes.push_back(m.value());
    lv->q_active = RnsBasis(active_primes);
    lv->p_to_q = std::make_unique<BaseConverter>(ctx_.p_basis(),
                                                 lv->q_active);
    lv->p_inv.resize(level + 1);
    lv->p_inv_shoup.resize(level + 1);
    for (size_t i = 0; i <= level; ++i) {
        const Modulus &qi = lv->active[i];
        lv->p_inv[i] = qi.inv(ctx_.p_basis().product_mod(qi));
        lv->p_inv_shoup[i] = shoup_precompute(lv->p_inv[i], qi.value());
    }

    lv->groups = ctx_.digit_partition(level);
    const bool klss = ctx_.params().klss.enabled();
    if (klss) {
        const size_t k_special = ctx_.p_basis().size();
        const size_t alpha_tilde = ctx_.params().klss.alpha_tilde;
        lv->beta_tilde =
            (level + 1 + k_special + alpha_tilde - 1) / alpha_tilde;
    }
    lv->digits.reserve(lv->groups.size());
    for (const auto &g : lv->groups) {
        Digit d;
        d.basis = ctx_.q_basis().slice(g.first, g.count);
        std::vector<u64> other_primes;
        for (size_t t = 0; t < lv->extended.size(); ++t) {
            if (t < g.first || t >= g.first + g.count)
                other_primes.push_back(lv->extended[t].value());
        }
        d.to_other = std::make_unique<BaseConverter>(
            d.basis, RnsBasis(other_primes));
        if (klss)
            d.to_t =
                std::make_unique<BaseConverter>(d.basis, ctx_.t_basis());
        lv->digits.push_back(std::move(d));
    }

    slot = std::move(lv);
    return *slot;
}

const BaseConverter &
KeySwitchPrecomp::t_to_pq(size_t idx) const
{
    LockGuard lock(mu_);
    NEO_CHECK(idx < t_single_.size(), "pq index out of range");
    auto &slot = t_single_[idx];
    if (slot == nullptr)
        slot = std::make_unique<BaseConverter>(
            ctx_.t_basis(),
            RnsBasis({ctx_.pq_ordered_mod(idx).value()}));
    return *slot;
}

} // namespace neo::ckks
