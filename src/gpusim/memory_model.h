/**
 * @file
 * VRAM footprint model: how much device memory a batched FHE workload
 * needs, and hence the largest feasible BatchSize — the paper's
 * stated reason for capping BatchSize at 128 on the A100-40GB
 * (§6.3 / Fig 17) and TensorFHE's noted VRAM-capacity constraint.
 */
#pragma once

#include "ckks/params.h"
#include "gpusim/device_spec.h"

namespace neo::gpusim {

/** Byte accounting for one parameter set. */
class MemoryModel
{
  public:
    explicit MemoryModel(const ckks::CkksParams &params)
        : params_(params)
    {
    }

    /// Bytes of one ciphertext at level l (2 polys, l+1 limbs).
    double ciphertext_bytes(size_t level) const;

    /// Bytes of one hybrid key-switching key (β digits over Q·P).
    double hybrid_key_bytes() const;

    /// Bytes of one KLSS key (2·β·β̃·α' limbs over T).
    double klss_key_bytes() const;

    /// Working set of one batched KeySwitch at level l: input +
    /// ModUp/IP intermediates + keys.
    double keyswitch_working_set(size_t level) const;

    /**
     * Largest power-of-two BatchSize whose KeySwitch working set fits
     * the device (with @p reserve_fraction held back for the
     * framework and twiddles).
     */
    size_t max_batch(const DeviceSpec &dev,
                     double reserve_fraction = 0.1) const;

  private:
    double limb_bytes() const
    {
        return static_cast<double>(params_.n) * 8.0;
    }

    ckks::CkksParams params_;
};

} // namespace neo::gpusim
