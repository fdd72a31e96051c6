#include "neo/shard.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "gpusim/event_sim.h"
#include "neo/stage.h"
#include "rns/partition.h"

namespace neo::shard {

using gpusim::CollectiveModel;
using gpusim::KernelCost;
using gpusim::SimKernel;
using gpusim::Topology;
using model::KernelModel;
using model::Op;

ShardRange
shard_range(size_t total, size_t devices, size_t d)
{
    NEO_CHECK(devices >= 1 && d < devices, "bad shard coordinates");
    // One rule for every shard axis: the rns partition helper the
    // functional pipeline (mod_down) uses too.
    const auto groups = make_even_partition(total, devices);
    return {groups[d].first, groups[d].count};
}

CommPlan
comm_plan(const ckks::CkksParams &params, size_t level,
          const Topology &topo)
{
    CommPlan plan;
    plan.devices = topo.devices;
    if (topo.devices <= 1)
        return plan;
    const double limb_bytes =
        static_cast<double>(params.n) * 8.0 *
        static_cast<double>(params.batch);
    const size_t q_limbs = level + 1;
    const size_t beta = params.beta(level);
    const size_t ap = params.klss_alpha_prime();
    const size_t d = topo.devices;
    // Shard payloads use the same ceil-partition rule as
    // shard_range(), so the busiest device's shard prices the step.
    const auto ceil_shard = [d](size_t total) {
        return static_cast<double>((total + d - 1) / d);
    };
    plan.src_shard_bytes = ceil_shard(q_limbs) * limb_bytes;
    plan.digit_shard_bytes =
        ceil_shard(beta) * static_cast<double>(ap) * limb_bytes;
    plan.fix_shard_bytes = ceil_shard(q_limbs) * limb_bytes;

    CollectiveModel comm(topo);
    plan.ag_src = comm.all_gather(plan.src_shard_bytes,
                                  comm.best_chunks(plan.src_shard_bytes));
    plan.ag_digits = comm.all_gather(
        plan.digit_shard_bytes, comm.best_chunks(plan.digit_shard_bytes));
    plan.rs_fix = comm.reduce_scatter(
        plan.fix_shard_bytes, comm.best_chunks(plan.fix_shard_bytes));
    return plan;
}

namespace {

/// Fraction of a stage's work the busiest device owns when its
/// partition axis of @p total items splits over @p devices.
double
shard_fraction(size_t total, size_t devices)
{
    if (total == 0)
        return 0;
    const size_t shard = (total + devices - 1) / devices;
    return static_cast<double>(shard) / static_cast<double>(total);
}

/// Scale every work field of a cost; launches stay (each device
/// dispatches the full kernel sequence on its own shard).
KernelCost
scale_cost(KernelCost c, double f)
{
    c.cuda_modmul *= f;
    c.cuda_modadd *= f;
    c.cuda_int_ops *= f;
    c.tcu_fp64_macs *= f;
    c.tcu_int8_macs *= f;
    c.bytes_read *= f;
    c.bytes_written *= f;
    return c;
}

} // namespace

ShardedCost
model_sharded_keyswitch(const ckks::CkksParams &params, size_t level,
                        const model::ModelConfig &cfg)
{
    const ExecPolicy &policy = cfg.policy;
    NEO_CHECK(policy.devices >= 1, "devices must be positive");
    ShardedCost out;
    out.devices = policy.devices;

    KernelModel model(params, cfg);
    const auto named = model.kernels(Op::keyswitch, level);
    out.single_seconds = model.time(Op::keyswitch, level);

    const Topology topo =
        policy.devices <= 1
            ? Topology::single(cfg.device)
            : Topology::preset(policy.interconnect, policy.devices,
                               cfg.device);
    out.plan = comm_plan(params, level, topo);

    const size_t q_limbs = level + 1;
    const size_t beta = params.beta(level);
    const size_t beta_tilde = params.beta_tilde(level);
    const size_t d_count = policy.devices;
    // Items a row's work splits over: its kStages shard axis. Rows
    // that name no stage (the unfused moddown_fix) are Q-limb work.
    const auto axis_items = [&](std::string_view name) {
        const size_t rank = stage_rank(name);
        const ShardAxis axis =
            rank < kStages.size() ? kStages[rank].axis : ShardAxis::q_limbs;
        return axis == ShardAxis::digits       ? beta
               : axis == ShardAxis::key_digits ? beta_tilde
                                               : q_limbs;
    };

    // --- Build the sharded schedule for event_sim. --------------------
    // Each device runs the full kernel sequence over its own shard on
    // its own stream; the three collectives are link-resource entries
    // spliced into the chain at their pipeline position. Under
    // multistream the batch is double-buffered in halves (two chains
    // per device), so one half's collective hides behind the other
    // half's compute — the multi-device analogue of §4.6.
    struct Entry
    {
        std::string name;
        double raw_s = 0;  ///< serial-time weight for attribution
        bool comm = false;
    };
    std::vector<SimKernel> sim;
    std::vector<Entry> entries;
    const size_t halves = cfg.multistream && d_count > 1 ? 2 : 1;
    const double hf = 1.0 / static_cast<double>(halves);

    // Graph capture: each device captures its local chain once and
    // replays it with one amortized dispatch — the per-kernel launch
    // latency collapses into equivalent launch units on the chain's
    // first kernel (the same DeviceSpec::graph_launch_s pricing
    // run_schedule applies to the single-device schedule).
    double chain_launches = 0;
    for (const auto &nk : named)
        chain_launches += nk.cost.launches;
    const double graph_units =
        policy.graph && cfg.device.kernel_launch_s > 0
            ? cfg.device.graph_launch_s(chain_launches) /
                  cfg.device.kernel_launch_s
            : -1;

    const auto push_compute = [&](const KernelModel::NamedKernel &nk,
                                  int stream, double frac,
                                  bool chain_head) {
        KernelCost c = scale_cost(nk.cost, frac * hf);
        if (graph_units >= 0)
            c.launches = chain_head ? graph_units : 0;
        sim.push_back({c, stream, {}, 0.0});
        entries.push_back(
            {nk.name, c.breakdown(cfg.device, cfg.multistream).total_s(),
             false});
    };
    const auto push_comm = [&](const char *name, double time_s,
                               int stream) {
        KernelCost c;
        c.launches = 0;
        sim.push_back({c, stream, {}, time_s * hf});
        entries.push_back({name, time_s * hf, true});
    };

    for (size_t dev = 0; dev < d_count; ++dev) {
        for (size_t h = 0; h < halves; ++h) {
            const int stream = static_cast<int>(dev * halves + h);
            bool chain_head = true;
            for (const auto &nk : named) {
                const std::string_view st(nk.name);
                // Collectives precede the stage that consumes them.
                if (d_count > 1) {
                    if (st == stage::modup_bconv &&
                        (entries.empty() ||
                         entries.back().name != stage::modup_bconv))
                        push_comm("comm.allgather.src",
                                  out.plan.ag_src.time_s, stream);
                    if (st == stage::ip)
                        push_comm("comm.allgather.digits",
                                  out.plan.ag_digits.time_s, stream);
                    if (st == stage::ntt_q)
                        push_comm("comm.reducescatter.fix",
                                  2 * out.plan.rs_fix.time_s, stream);
                }
                push_compute(nk, stream,
                             shard_fraction(axis_items(st), d_count),
                             chain_head);
                chain_head = false;
            }
        }
    }

    // Each device owns its own cuda/tcu/mem/link resources, so it is
    // simulated on its own EventSimulator (one shared simulator would
    // make the "devices" contend for one GPU's rates and sharding
    // could never pay). The collectives are synchronous: they appear
    // in every device's chain at the same α–β price, so the fleet
    // makespan is the max of the per-device makespans.
    gpusim::EventSimulator sim_dev(cfg.device);
    double raw_makespan = 0;
    for (size_t dev = 0; dev < d_count; ++dev) {
        std::vector<SimKernel> mine;
        for (const auto &k : sim)
            if (static_cast<size_t>(k.stream) / halves == dev)
                mine.push_back(k);
        raw_makespan =
            std::max(raw_makespan, sim_dev.run(mine).makespan);
    }

    // Normalize like KernelModel::time(): occupancy derate for batched
    // pipelines, then per-batched-ciphertext.
    double norm = 1.0;
    if (cfg.batched_pipeline) {
        const double b = static_cast<double>(params.batch);
        norm *= (b + cfg.device.occupancy_half_batch) / b;
    }
    norm /= static_cast<double>(params.batch);
    // devices == 1 degenerates to the single-device schedule exactly:
    // the serial event-sim chain cannot overlap compute-bound kernels
    // with memory-bound neighbours the way the aggregate multistream
    // model does, so the established time() figure is the one to keep
    // (it is also what every profile reports for unsharded runs).
    out.seconds =
        d_count == 1 ? out.single_seconds : raw_makespan * norm;

    // --- Attribution: distribute the makespan proportionally over the
    // serial-time weights so rows sum to out.seconds exactly (the
    // run_attributed invariant, extended with comm.* rows).
    double raw_sum = 0;
    for (const auto &e : entries)
        raw_sum += e.raw_s;
    const double f =
        raw_sum > 0 ? out.seconds / raw_sum : 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        auto &row = KernelModel::row_named(out.kernels, e.name);
        row.calls += 1;
        row.modeled_s += e.raw_s * f;
        if (e.comm) {
            out.comm_s += e.raw_s * norm;
        } else {
            const auto b =
                sim[i].cost.breakdown(cfg.device, cfg.multistream);
            row.compute_s += b.compute_s * f;
            row.memory_s += b.memory_s * f;
            row.launch_s += b.launch_s * f;
            row.bytes += b.bytes;
            row.macs += b.macs;
            row.mod_ops += b.mod_ops;
            row.int_ops += b.int_ops;
            out.compute_s += e.raw_s * norm;
        }
    }
    for (auto &r : out.kernels)
        r.fraction = out.seconds > 0 ? r.modeled_s / out.seconds : 0;

    // --- Per-device and per-link attribution. -------------------------
    out.per_device.resize(d_count);
    for (size_t dev = 0; dev < d_count; ++dev)
        out.per_device[dev].device = dev;
    for (size_t i = 0; i < entries.size(); ++i) {
        const size_t dev =
            static_cast<size_t>(sim[i].stream) / halves;
        if (entries[i].comm)
            out.per_device[dev].comm_s += entries[i].raw_s * norm;
        else
            out.per_device[dev].compute_s += entries[i].raw_s * norm;
    }
    if (d_count > 1) {
        const size_t links = topo.num_links();
        const double link_bytes =
            links > 0 ? out.plan.total_bytes() / static_cast<double>(links)
                      : 0;
        const double busy =
            topo.link.bandwidth > 0 ? link_bytes / topo.link.bandwidth
                                    : 0;
        out.links.resize(links);
        for (size_t i = 0; i < links; ++i) {
            out.links[i].link = i;
            out.links[i].bytes = link_bytes;
            out.links[i].busy_s = busy;
            out.links[i].utilization =
                raw_makespan > 0 ? busy / raw_makespan : 0;
        }
    }
    return out;
}

} // namespace neo::shard
