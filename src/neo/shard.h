/**
 * @file
 * Multi-device sharded keyswitch: partition plan + cost model.
 *
 * Sharding follows the §4 digit structure instead of inventing a new
 * decomposition: Q limbs (the INTT/ModDown/final-NTT stages) split
 * into contiguous per-device ranges, ciphertext digits (ModUp and the
 * NTT over T) split by β, and key digits (IP, INTT over T, Recover
 * Limbs) split by β̃. Three collectives stitch the shards together:
 *
 *   1. all-gather of the source Q limbs after the input INTT — every
 *      ModUp digit's BConv reads its whole α-limb group, so devices
 *      exchange coefficient-form limbs once before the digit fan-out;
 *   2. all-gather of the raised digits after the NTT over T — each
 *      device's IP shard multiplies *all* β digits against its own β̃
 *      rows of the key (Recover Limbs then needs no communication:
 *      the key partition's output limb ranges are disjoint per digit);
 *   3. reduce-scatter of the ModDown fix term per component — each
 *      device keeps only its own Q-limb range of the result.
 *
 * The host execution of a sharded schedule is the *same kernels over
 * the same disjoint index ranges in a deterministic device-major
 * order*, so it is bit-identical to single-device execution by
 * construction (ctest -L shard proves it); only the cost model sees
 * devices, links and collectives.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "ckks/params.h"
#include "gpusim/topology.h"
#include "neo/kernel_model.h"

namespace neo::shard {

/** One device's contiguous slice of an index range. */
struct ShardRange
{
    size_t first = 0;
    size_t count = 0;
};

/**
 * Contiguous ceil-partition of @p total items over @p devices: device
 * d owns [d·⌈total/D⌉, …) — the same rule for limbs and digits, so
 * the analytic byte formulas in tests can reproduce every shard.
 */
ShardRange shard_range(size_t total, size_t devices, size_t d);

/** The collective schedule of one sharded keyswitch (whole batch). */
struct CommPlan
{
    size_t devices = 1;
    /// Per-device shard payloads in bytes (whole batch, 8 B words).
    double src_shard_bytes = 0;   ///< ⌈(l+1)/D⌉ · N · 8 · batch
    double digit_shard_bytes = 0; ///< ⌈β/D⌉ · α' · N · 8 · batch
    double fix_shard_bytes = 0;   ///< ⌈(l+1)/D⌉ · N · 8 · batch
    gpusim::CollectiveCost ag_src;    ///< collective 1 (all-gather)
    gpusim::CollectiveCost ag_digits; ///< collective 2 (all-gather)
    gpusim::CollectiveCost rs_fix;    ///< collective 3, ×2 components

    double allgather_bytes() const
    {
        return ag_src.total_bytes + ag_digits.total_bytes;
    }
    double reducescatter_bytes() const { return 2 * rs_fix.total_bytes; }
    double total_bytes() const
    {
        return allgather_bytes() + reducescatter_bytes();
    }
    /// Serial (un-overlapped) time of all collectives, whole batch.
    double serial_time_s() const
    {
        return ag_src.time_s + ag_digits.time_s + 2 * rs_fix.time_s;
    }
};

/// The collective schedule for one keyswitch at @p level on @p topo.
CommPlan comm_plan(const ckks::CkksParams &params, size_t level,
                   const gpusim::Topology &topo);

/** Per-link share of a sharded schedule. */
struct LinkAttribution
{
    size_t link = 0;
    double bytes = 0;       ///< bytes this link carried (whole batch)
    double busy_s = 0;      ///< seconds the link was transferring
    double utilization = 0; ///< busy_s / schedule makespan
};

/** Per-device share of a sharded schedule. */
struct DeviceAttribution
{
    size_t device = 0;
    double compute_s = 0; ///< normalized per-ciphertext compute share
    double comm_s = 0;    ///< normalized per-ciphertext collective share
};

/** Modeled cost of one sharded keyswitch. */
struct ShardedCost
{
    size_t devices = 1;
    /// Per-batched-ciphertext makespan of the sharded schedule
    /// (compute and collectives overlapping per event_sim), normalized
    /// like KernelModel::time() so it compares directly.
    double seconds = 0;
    /// KernelModel::time(Op::keyswitch) on one device.
    double single_seconds = 0;
    double compute_s = 0; ///< normalized serial compute share
    double comm_s = 0;    ///< normalized serial collective share
    /// Per-stage rows (kernel stages + comm.* rows); modeled_s sums
    /// to `seconds` exactly — the same invariant run_attributed keeps.
    std::vector<model::KernelModel::KernelAttribution> kernels;
    std::vector<LinkAttribution> links;
    std::vector<DeviceAttribution> per_device;
    CommPlan plan;

    double speedup() const
    {
        return seconds > 0 ? single_seconds / seconds : 0;
    }
};

/**
 * Price one keyswitch at @p level sharded over the topology that
 * @p cfg.policy's devices and interconnect select, each stage on the
 * engine the policy runs it on. devices == 1 degenerates to the
 * single-device schedule with zero comm.
 */
ShardedCost model_sharded_keyswitch(const ckks::CkksParams &params,
                                    size_t level,
                                    const model::ModelConfig &cfg);

} // namespace neo::shard
