#include "neo/kernel_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "neo/stage.h"
#include "poly/matrix_ntt.h"
#include "tensor/bitslice.h"

namespace neo::model {

using gpusim::KernelCost;
using gpusim::TcuModel;

namespace {

/// NTT and INTT rows: the stages over Q and T, and the hybrid's
/// ntt_qp / intt_qp.
bool
is_ntt_row(const char *name)
{
    return std::strncmp(name, "ntt", 3) == 0 ||
           std::strncmp(name, "intt", 4) == 0;
}

} // namespace

KernelModel::KernelModel(const ckks::CkksParams &params,
                         const ModelConfig &cfg)
    : params_(params), cfg_(cfg)
{
    NEO_CHECK(!cfg_.use_klss || params_.klss.enabled(),
              "KLSS model requires KLSS parameters");
}

KernelCost
KernelModel::gemm(size_t m, size_t n, size_t k, int wa, int wb,
                  EngineId engine) const
{
    KernelCost c;
    c.launches = 0; // priced by the owning kernel
    const double mn = static_cast<double>(m) * n;
    switch (engine) {
      case EngineId::scalar:
        c.cuda_modmul += mn * k;
        c.cuda_modadd += mn * k;
        break;
      case EngineId::fp64_tcu: {
        const SplitPlan plan =
            choose_fp64_split(std::max(wa, 1), std::max(wb, 1), k);
        const u64 padded =
            TcuModel::padded_macs(m, n, k, gpusim::kFp64Fragment);
        c.tcu_fp64_macs += static_cast<double>(padded) * plan.products();
        // Split (CUDA cores): produce the operand planes.
        c.cuda_int_ops += 2.0 * (plan.a_planes * static_cast<double>(m) * k +
                                 plan.b_planes * static_cast<double>(k) * n);
        // Merge: combine plan.products() partials with shifts + mod.
        c.cuda_int_ops +=
            cfg_.device.int_ops_per_merge * plan.products() * mn;
        break;
      }
      case EngineId::int8_tcu: {
        const SplitPlan plan =
            choose_int8_split(std::max(wa, 1), std::max(wb, 1), k);
        u64 best = ~0ULL;
        for (const auto &f : gpusim::kInt8Fragments)
            best = std::min(best, TcuModel::padded_macs(m, n, k, f));
        c.tcu_int8_macs += static_cast<double>(best) * plan.products();
        c.cuda_int_ops += 2.0 * (plan.a_planes * static_cast<double>(m) * k +
                                 plan.b_planes * static_cast<double>(k) * n);
        c.cuda_int_ops +=
            cfg_.device.int_ops_per_merge * plan.products() * mn;
        break;
      }
    }
    return c;
}

KernelCost
KernelModel::ntt(size_t limbs, int word_bits) const
{
    return ntt(limbs, word_bits, cfg_.policy.engine);
}

KernelCost
KernelModel::ntt(size_t limbs, int word_bits, EngineId engine) const
{
    const double batch = static_cast<double>(params_.batch);
    const double n = static_cast<double>(params_.n);
    const double lb = static_cast<double>(limbs) * batch;
    KernelCost c;
    // Fused implementations stream the data twice (two matmul/butterfly
    // passes through shared memory), as in 100x / TensorFHE.
    c.bytes_read = 2.0 * lb * n * 8.0;
    c.bytes_written = 2.0 * lb * n * 8.0;
    c.launches = cfg_.kernel_fusion ? 1 : 2;

    if (!cfg_.tcu_ntt) {
        // Butterfly NTT on CUDA cores.
        const double stages = std::log2(n);
        c.cuda_modmul += lb * (n / 2.0) * stages;
        c.cuda_modadd += lb * n * stages;
        return c;
    }

    const size_t radix =
        cfg_.radix16_ntt ? 16 : static_cast<size_t>(std::sqrt(n));
    const auto cx = MatrixNtt::complexity_for(params_.n, radix);
    // Matrix products: one batched GEMM per stage; M is the batched
    // row count (always fragment-aligned at FHE sizes).
    const double per_limb_macs = static_cast<double>(cx.matmul_macs);
    c += gemm(static_cast<size_t>(lb * per_limb_macs / (radix * radix)),
              radix, radix, word_bits, word_bits, engine);
    // Twists and reorders run on CUDA cores.
    c.cuda_modmul += lb * static_cast<double>(cx.twist_muls);
    c.cuda_int_ops += 2.0 * lb * static_cast<double>(cx.reorder_elems);
    if (cfg_.policy.fuse) {
        // The twiddle-scale pass is folded into the GEMM prologue/
        // epilogue (MatrixNtt fused mode): the modmuls stay, but the
        // standalone streaming pass over the limb data disappears.
        c.bytes_read -= lb * n * 8.0;
        c.bytes_written -= lb * n * 8.0;
    }
    if (!cfg_.kernel_fusion) {
        // Unfused stages spill intermediates to DRAM.
        c.bytes_read += (cx.matmul_stages - 1) * lb * n * 8.0;
        c.bytes_written += (cx.matmul_stages - 1) * lb * n * 8.0;
        c.launches += static_cast<double>(cx.matmul_stages) - 1;
    }
    return c;
}

KernelCost
KernelModel::bconv(size_t in_limbs, size_t out_limbs, int word_in,
                   int word_out) const
{
    return bconv(in_limbs, out_limbs, word_in, word_out,
                 cfg_.policy.engine);
}

KernelCost
KernelModel::bconv(size_t in_limbs, size_t out_limbs, int word_in,
                   int word_out, EngineId engine) const
{
    const double batch = static_cast<double>(params_.batch);
    const double n = static_cast<double>(params_.n);
    const double elems_in = static_cast<double>(in_limbs) * batch * n;
    const double elems_out = static_cast<double>(out_limbs) * batch * n;
    KernelCost c;

    if (!cfg_.matmul_dataflow) {
        // Algorithm 1: every input coefficient is fetched once per
        // output level.
        c.bytes_read = elems_in * 8.0 * static_cast<double>(out_limbs);
        c.bytes_written = elems_out * 8.0;
        c.cuda_modmul = 2.0 * elems_in * static_cast<double>(out_limbs);
        c.cuda_modadd = elems_in * static_cast<double>(out_limbs);
        c.launches = 1;
        return c;
    }

    // Algorithm 2: single fetch, reorder, one (BS·N) × α' × α GEMM.
    c.bytes_read = elems_in * 8.0;
    c.bytes_written = elems_out * 8.0;
    c.cuda_modmul = elems_in; // the (B/b_i)^{-1} pre-scaling
    c.cuda_int_ops = 2.0 * (elems_in + elems_out); // fused reorders
    c += gemm(static_cast<size_t>(batch * n), out_limbs, in_limbs,
              word_in, word_out, engine);
    if (cfg_.kernel_fusion) {
        c.launches = 1;
    } else {
        c.launches = 3; // pre, GEMM, post
        c.bytes_read += 2.0 * elems_in * 8.0;
        c.bytes_written += elems_in * 8.0 + elems_out * 8.0;
    }
    return c;
}

EngineId
KernelModel::engine_at(std::string_view stage, size_t level) const
{
    return cfg_.policy.engine_at({stage, level, params_.d_num, params_.n});
}

EngineId
KernelModel::ip_gate(EngineId engine, size_t beta, size_t beta_tilde) const
{
    if (engine != EngineId::fp64_tcu)
        return engine;
    const double valid = TcuModel::valid_proportion_fp64(
        params_.batch, beta_tilde, beta);
    return valid > cfg_.ip_tcu_threshold ? EngineId::fp64_tcu
                                         : EngineId::scalar;
}

EngineId
KernelModel::ip_engine(size_t level) const
{
    if (!cfg_.matmul_dataflow)
        return EngineId::scalar;
    return ip_gate(engine_at(stage::ip, level), params_.beta(level),
                   params_.beta_tilde(level));
}

KernelCost
KernelModel::ip(size_t beta, size_t beta_tilde, size_t limbs,
                int word_bits) const
{
    return ip(beta, beta_tilde, limbs, word_bits, cfg_.policy.engine);
}

KernelCost
KernelModel::ip(size_t beta, size_t beta_tilde, size_t limbs,
                int word_bits, EngineId engine) const
{
    const double batch = static_cast<double>(params_.batch);
    const double n = static_cast<double>(params_.n);
    const double ct_elems =
        static_cast<double>(beta) * limbs * batch * n; // per component
    const double key_elems =
        static_cast<double>(beta_tilde) * beta * limbs * n;
    const double out_elems = static_cast<double>(beta_tilde) * limbs *
                             batch * n;
    KernelCost c;

    if (!cfg_.matmul_dataflow) {
        // Algorithm 3: ciphertext limbs re-read β̃ times; keys once;
        // and the accumulators spill to DRAM between the β
        // independent ModMUL passes.
        c.bytes_read = 2.0 * (ct_elems * beta_tilde + key_elems) * 8.0 +
                       2.0 * out_elems * 8.0 * (beta - 1);
        c.bytes_written = 2.0 * out_elems * 8.0 * beta;
        c.cuda_modmul = 2.0 * beta_tilde * ct_elems;
        c.cuda_modadd = 2.0 * beta_tilde * ct_elems;
        c.launches = beta_tilde * beta; // one ModMUL kernel per pair
        return c;
    }

    // Algorithm 4: single fetch of everything; BS × β̃ × β GEMMs at
    // every (coefficient, limb) site.
    c.bytes_read = 2.0 * (ct_elems + key_elems) * 8.0;
    c.bytes_written = 2.0 * out_elems * 8.0;
    c.cuda_int_ops = 2.0 * 2.0 * (ct_elems + out_elems); // reorders
    KernelCost g = gemm(params_.batch, beta_tilde, beta, word_bits,
                        word_bits, ip_gate(engine, beta, beta_tilde));
    // One such GEMM per coefficient site per limb, both components.
    const double sites = 2.0 * n * static_cast<double>(limbs);
    c.cuda_modmul += g.cuda_modmul * sites;
    c.cuda_modadd += g.cuda_modadd * sites;
    c.cuda_int_ops += g.cuda_int_ops * sites;
    c.tcu_fp64_macs += g.tcu_fp64_macs * sites;
    c.tcu_int8_macs += g.tcu_int8_macs * sites;
    c.launches = cfg_.kernel_fusion ? 1 : 3;
    return c;
}

KernelCost
KernelModel::modmul(size_t limbs) const
{
    const double elems = static_cast<double>(limbs) * params_.batch *
                         params_.n;
    KernelCost c;
    c.bytes_read = 2.0 * elems * 8.0;
    c.bytes_written = elems * 8.0;
    c.cuda_modmul = elems;
    return c;
}

KernelCost
KernelModel::modadd(size_t limbs) const
{
    const double elems = static_cast<double>(limbs) * params_.batch *
                         params_.n;
    KernelCost c;
    c.bytes_read = 2.0 * elems * 8.0;
    c.bytes_written = elems * 8.0;
    c.cuda_modadd = elems;
    return c;
}

KernelCost
KernelModel::auto_kernel(size_t limbs) const
{
    const double elems = static_cast<double>(limbs) * params_.batch *
                         params_.n;
    KernelCost c;
    c.bytes_read = elems * 8.0;
    c.bytes_written = elems * 8.0;
    c.cuda_int_ops = 2.0 * elems;
    return c;
}

std::vector<KernelModel::NamedKernel>
KernelModel::kernels(Op op, size_t level) const
{
    const size_t l = level;
    const int w = params_.word_size;
    // Each named stage is priced with the engine the policy runs it
    // on: the pipeline's own engine_at call.
    const auto eng = [&](const char *st) { return engine_at(st, l); };
    std::vector<NamedKernel> ks;
    switch (op) {
    case Op::keyswitch: {
        const size_t alpha = params_.alpha();
        const size_t k_special = params_.special_primes();
        const size_t ext = l + 1 + k_special;
        const size_t beta = params_.beta(l);

        // INTT of the input (l+1 limbs).
        ks.push_back({stage::intt_q, ntt(l + 1, w, eng(stage::intt_q))});

        if (cfg_.use_klss) {
            const size_t ap = params_.klss_alpha_prime();
            const size_t bt = params_.beta_tilde(l);
            const int wt = params_.klss.word_size_t;
            // Mod Up: β exact BConv(α -> α').
            for (size_t j = 0; j < beta; ++j)
                ks.push_back(
                    {stage::modup_bconv,
                     bconv(alpha, ap, w, wt, eng(stage::modup_bconv))});
            // NTT over T.
            ks.push_back(
                {stage::ntt_t, ntt(beta * ap, wt, eng(stage::ntt_t))});
            // IP over T.
            ks.push_back({stage::ip, ip(beta, bt, ap, wt, eng(stage::ip))});
            // INTT over T (both components).
            ks.push_back(
                {stage::intt_t, ntt(2 * bt * ap, wt, eng(stage::intt_t))});
            // Recover Limbs: exact BConv(α' -> ext), both components.
            for (int comp = 0; comp < 2; ++comp)
                ks.push_back(
                    {stage::recover_bconv,
                     bconv(ap, ext, wt, w, eng(stage::recover_bconv))});
        } else {
            // Hybrid: ModUp per digit (α -> ext-α), NTT, IP over Q·P.
            for (size_t j = 0; j < beta; ++j)
                ks.push_back({stage::modup_bconv,
                              bconv(alpha, ext - alpha, w, w,
                                    eng(stage::modup_bconv))});
            ks.push_back({"ntt_qp", ntt(beta * ext, w, eng("ntt_qp"))});
            ks.push_back({stage::ip, ip(beta, 1, ext, w, eng(stage::ip))});
            // before ModDown
            ks.push_back({"intt_qp", ntt(2 * ext, w, eng("intt_qp"))});
        }

        // ModDown: BConv(P -> Q) + scalar fix, both components.
        const EngineId md = eng(stage::moddown_bconv);
        if (cfg_.policy.fuse) {
            // The scalar fix rides in the BConv epilogue: the
            // conversion result never round-trips through DRAM, and the
            // fix kernel's launch disappears. Only the Q-part source
            // read and the fix modmuls remain on top of the BConv cost.
            const double fix_elems =
                static_cast<double>(l + 1) * params_.batch * params_.n;
            for (int comp = 0; comp < 2; ++comp) {
                KernelCost c = bconv(k_special, l + 1, w, w, md);
                c.cuda_modmul += fix_elems;
                c.cuda_modadd += fix_elems; // the (src - corr) subtraction
                c.bytes_read += fix_elems * 8.0;
                ks.push_back({stage::moddown_bconv, c, 1});
            }
        } else {
            for (int comp = 0; comp < 2; ++comp)
                ks.push_back({stage::moddown_bconv,
                              bconv(k_special, l + 1, w, w, md)});
            ks.push_back({"moddown_fix", modmul(2 * (l + 1))});
        }
        // Final NTT back to eval form.
        ks.push_back({stage::ntt_q, ntt(2 * (l + 1), w, eng(stage::ntt_q))});
        if (cfg_.policy.fuse && cfg_.tcu_ntt) {
            // Mark the NTT kernels whose twiddle-scale pass was folded
            // into the GEMM (the byte fold happens inside ntt()).
            for (auto &nk : ks)
                if (is_ntt_row(nk.name))
                    nk.fused = 1;
        }
        break;
    }
    case Op::hmult:
        // KeySwitch + tensor-product fixups: d0, d1, d2 take four
        // limb-wise multiplies and one add, then the switched d2 folds
        // back with two adds.
        ks = kernels(Op::keyswitch, l);
        ks.push_back({"tensor_modmul", modmul(4 * (l + 1))});
        ks.push_back({"tensor_modadd", modadd(3 * (l + 1))});
        break;
    case Op::hrotate:
        // KeySwitch + automorphism + accumulate.
        ks = kernels(Op::keyswitch, l);
        ks.push_back({"auto", auto_kernel(2 * (l + 1))});
        ks.push_back({"rotate_modadd", modadd(l + 1)});
        break;
    case Op::pmult:
        ks.push_back({"pmult", modmul(2 * (l + 1))});
        break;
    case Op::hadd:
        ks.push_back({"hadd", modadd(2 * (l + 1))});
        break;
    case Op::padd:
        ks.push_back({"padd", modadd(l + 1)});
        break;
    case Op::rescale:
        // INTT + scalar fix + NTT.
        ks.push_back({stage::rescale_intt,
                      ntt(2 * (l + 1), w, eng(stage::rescale_intt))});
        ks.push_back({"rescale_fix", modmul(2 * l)});
        ks.push_back(
            {stage::rescale_ntt, ntt(2 * l, w, eng(stage::rescale_ntt))});
        break;
    case Op::double_rescale:
        // Fused double rescale: one INTT/NTT pair drops two limbs.
        ks.push_back({stage::rescale_intt,
                      ntt(2 * (l + 1), w, eng(stage::rescale_intt))});
        ks.push_back({"rescale_fix", modmul(4 * l - 2)});
        ks.push_back({stage::rescale_ntt,
                      ntt(2 * (l - 1), w, eng(stage::rescale_ntt))});
        break;
    }
    return ks;
}

std::vector<KernelModel::NamedKernel>
KernelModel::keyswitch_kernels_named(size_t level) const
{
    return kernels(Op::keyswitch, level);
}

gpusim::ScheduleResult
KernelModel::schedule(const std::vector<KernelCost> &kernels) const
{
    return gpusim::run_schedule(
        kernels, cfg_.device,
        gpusim::SchedulePolicy{cfg_.multistream, cfg_.policy.graph});
}

double
KernelModel::per_ciphertext(const gpusim::ScheduleResult &s) const
{
    // Kernels process the whole batch; the paper reports the average
    // time per batched ciphertext ("average time per batch", §6), so
    // fixed costs amortize across the BatchSize ciphertexts.
    double seconds = s.seconds;
    if (cfg_.batched_pipeline) {
        // Batched pipelines draw their SM occupancy from the batch
        // dimension (Fig 17): derate at small BatchSize.
        const double b = static_cast<double>(params_.batch);
        seconds /= b / (b + cfg_.device.occupancy_half_batch);
    }
    return seconds / static_cast<double>(params_.batch);
}

double
KernelModel::time(Op op, size_t level) const
{
    std::vector<KernelCost> costs;
    for (const auto &nk : kernels(op, level))
        costs.push_back(nk.cost);
    return per_ciphertext(schedule(costs));
}

KernelModel::KernelAttribution &
KernelModel::row_named(std::vector<KernelAttribution> &rows,
                       std::string_view name)
{
    for (auto &r : rows)
        if (r.name == name)
            return r;
    rows.emplace_back();
    rows.back().name = name;
    return rows.back();
}

KernelModel::AttributedSchedule
KernelModel::run_attributed(const std::vector<NamedKernel> &kernels) const
{
    AttributedSchedule out;
    std::vector<KernelCost> costs;
    costs.reserve(kernels.size());
    for (const auto &nk : kernels)
        costs.push_back(nk.cost);
    out.schedule = schedule(costs);
    out.seconds = per_ciphertext(out.schedule);
    for (const auto &nk : kernels)
        out.fused_kernels += nk.fused;

    // Per-kernel raw times, priced like the schedule prices them
    // (multistream overlaps the CUDA/TCU phases within a kernel).
    // Under graph capture the per-kernel dispatch is replaced by a
    // share of the single replay, so rows are priced against an
    // effective per-launch latency of schedule launch seconds spread
    // over the captured kernel nodes — per-row bounds then reflect
    // the captured schedule, and the sum invariant below still holds.
    gpusim::DeviceSpec rowdev = cfg_.device;
    if (cfg_.policy.graph && out.schedule.captured_launches > 0)
        rowdev.kernel_launch_s =
            out.schedule.launch_s / out.schedule.captured_launches;
    double raw_sum = 0;
    std::vector<gpusim::CostBreakdown> raw;
    raw.reserve(kernels.size());
    for (const auto &nk : kernels) {
        raw.push_back(nk.cost.breakdown(rowdev, cfg_.multistream));
        raw_sum += raw.back().total_s();
    }
    // Distribute the schedule total (which includes cross-kernel
    // overlap gains and the occupancy/batch scaling of
    // per_ciphertext) proportionally over the kernels, so row times
    // sum to out.seconds exactly — the artifact's tested invariant.
    const double f = raw_sum > 0 ? out.seconds / raw_sum : 0;

    for (size_t i = 0; i < kernels.size(); ++i) {
        KernelAttribution &row = row_named(out.kernels, kernels[i].name);
        const auto &b = raw[i];
        row.calls += 1;
        row.fused += kernels[i].fused;
        row.modeled_s += b.total_s() * f;
        row.compute_s += b.compute_s * f;
        row.memory_s += b.memory_s * f;
        row.launch_s += b.launch_s * f;
        row.bytes += b.bytes;
        row.macs += b.macs;
        row.mod_ops += b.mod_ops;
        row.int_ops += b.int_ops;
    }
    for (auto &r : out.kernels)
        r.fraction = out.seconds > 0 ? r.modeled_s / out.seconds : 0;
    return out;
}

double
KernelModel::hrotate_hoisted_time(size_t level, size_t count) const
{
    NEO_CHECK(count >= 1, "need at least one rotation");
    const size_t l = level;
    const size_t alpha = params_.alpha();
    const size_t k_special = params_.special_primes();
    const size_t ext = l + 1 + k_special;
    const size_t beta = params_.beta(l);
    const int w = params_.word_size;

    std::vector<gpusim::KernelCost> ks;
    // Shared half: INTT + ModUp BConv + NTT of the raised digits.
    ks.push_back(ntt(l + 1, w));
    for (size_t j = 0; j < beta; ++j)
        ks.push_back(bconv(alpha, ext - alpha, w, w));
    ks.push_back(ntt(beta * ext, w));
    // Per-rotation half: AUTO on the raised digits + IP + ModDown.
    for (size_t r = 0; r < count; ++r) {
        ks.push_back(auto_kernel(beta * ext + 2 * (l + 1)));
        ks.push_back(ip(beta, 1, ext, w));
        ks.push_back(ntt(2 * ext, w));
        ks.push_back(bconv(k_special, l + 1, w, w));
        ks.push_back(bconv(k_special, l + 1, w, w));
        ks.push_back(modmul(2 * (l + 1)));
        ks.push_back(ntt(2 * (l + 1), w));
        ks.push_back(modadd(l + 1));
    }
    return per_ciphertext(schedule(ks));
}

KernelModel::KeySwitchTraffic
KernelModel::keyswitch_traffic(size_t level) const
{
    // Bytes are integer-valued doubles far below 2^53, so the family
    // sums are exact in any order.
    KeySwitchTraffic t;
    for (const auto &nk : kernels(Op::keyswitch, level)) {
        const std::string_view name = nk.name;
        const double bytes = nk.cost.bytes();
        if (name == stage::ip)
            t.ip += bytes;
        else if (is_ntt_row(nk.name))
            t.ntt += bytes;
        else if (name == stage::modup_bconv ||
                 name == stage::recover_bconv ||
                 name == stage::moddown_bconv)
            t.bconv += bytes;
        else
            t.other += bytes; // the unfused ModDown fix
    }
    return t;
}

} // namespace neo::model
