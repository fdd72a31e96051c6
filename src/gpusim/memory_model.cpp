#include "gpusim/memory_model.h"

namespace neo::gpusim {

double
MemoryModel::ciphertext_bytes(size_t level) const
{
    return 2.0 * (level + 1) * limb_bytes();
}

double
MemoryModel::hybrid_key_bytes() const
{
    const size_t ext = params_.max_level + 1 + params_.special_primes();
    return 2.0 * params_.beta(params_.max_level) * ext * limb_bytes();
}

double
MemoryModel::klss_key_bytes() const
{
    if (!params_.klss.enabled())
        return 0.0;
    return 2.0 * params_.beta(params_.max_level) *
           params_.beta_tilde(params_.max_level) *
           params_.klss_alpha_prime() * limb_bytes();
}

double
MemoryModel::keyswitch_working_set(size_t level) const
{
    const double batch = static_cast<double>(params_.batch);
    const size_t beta = params_.beta(level);
    const size_t ext = level + 1 + params_.special_primes();
    double ct_side;
    if (params_.klss.enabled()) {
        const size_t ap = params_.klss_alpha_prime();
        const size_t bt = params_.beta_tilde(level);
        // digits over T + accumulators + raised output over Q·P.
        ct_side = (beta * ap + 2.0 * bt * ap + 2.0 * ext) * limb_bytes();
    } else {
        // β raised digits over Q·P + two accumulators.
        ct_side = (beta + 2.0) * ext * limb_bytes();
    }
    const double keys = params_.klss.enabled() ? klss_key_bytes()
                                               : hybrid_key_bytes();
    return batch * (ciphertext_bytes(level) + ct_side) + keys;
}

size_t
MemoryModel::max_batch(const DeviceSpec &dev,
                       double reserve_fraction) const
{
    const double budget = dev.vram_bytes * (1.0 - reserve_fraction);
    ckks::CkksParams p = params_;
    size_t best = 0;
    for (size_t bs = 1; bs <= 4096; bs <<= 1) {
        p.batch = bs;
        MemoryModel m(p);
        if (m.keyswitch_working_set(p.max_level) <= budget)
            best = bs;
    }
    return best;
}

} // namespace neo::gpusim
