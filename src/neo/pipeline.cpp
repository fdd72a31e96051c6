#include "neo/pipeline.h"

#include <algorithm>
#include <optional>
#include <string>

#include "ckks/ks_precomp.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "gpusim/tcu_model.h"
#include "neo/engine.h"
#include "neo/kernel_model.h"
#include "neo/kernels.h"
#include "neo/shard.h"
#include "obs/obs.h"
#include "poly/matrix_ntt.h"
#include "tensor/layout.h"

namespace neo {

using ckks::CkksContext;
using ckks::KlssEvalKey;

namespace {

/**
 * The matrix NTTs and BConv kernels one keyswitch at @p level runs:
 * radix-16 matrix NTTs over the α' T limbs and the l+1 Q limbs, one
 * ModUp kernel per ciphertext digit and one Recover kernel per key
 * digit. Built on every call, so the pipeline depends on nothing but
 * its arguments; the build is a small fraction of the keyswitch it
 * serves (EXPERIMENTS.md "Per-call pipeline kernels").
 */
struct LevelKernels
{
    LevelKernels(const CkksContext &ctx, size_t level)
    {
        const size_t radix = std::min<size_t>(16, ctx.n());
        const auto &lv = ctx.precomp().level(level);
        t_ntt.reserve(ctx.alpha_prime());
        for (size_t k = 0; k < ctx.alpha_prime(); ++k)
            t_ntt.emplace_back(ctx.t_tables().for_modulus(ctx.t_basis()[k]),
                               radix);
        q_ntt.reserve(level + 1);
        for (size_t i = 0; i <= level; ++i)
            q_ntt.emplace_back(ctx.tables().for_modulus(ctx.q_basis()[i]),
                               radix);
        modup.reserve(lv.groups.size());
        for (const auto &g : lv.groups)
            modup.emplace_back(ctx.q_basis().slice(g.first, g.count),
                               ctx.t_basis());
        const auto &key_partition = ctx.klss_key_partition();
        const size_t active = level + 1 + ctx.p_basis().size();
        recover.resize(lv.beta_tilde);
        for (size_t i = 0; i < lv.beta_tilde; ++i) {
            const auto &grp = key_partition[i];
            const size_t last = std::min(grp.first + grp.count, active);
            if (grp.first >= last)
                continue;
            std::vector<u64> grp_primes;
            for (size_t t = grp.first; t < last; ++t)
                grp_primes.push_back(ctx.pq_ordered_mod(t).value());
            recover[i].emplace(ctx.t_basis(), RnsBasis(grp_primes));
        }
    }

    std::vector<MatrixNtt> t_ntt;   ///< per T limb
    std::vector<MatrixNtt> q_ntt;   ///< per q limb, q_0..q_level
    std::vector<BConvKernel> modup; ///< one per ciphertext digit
    /// One per key digit; empty when the group is empty at this level.
    std::vector<std::optional<BConvKernel>> recover;
};

/**
 * Resolved per-stage GEMM bindings of one pipeline run. A fixed
 * policy binds every slot to the same PipelineEngines bundle; an
 * autotune policy may bind each dispatched stage to a different
 * engine. All engines are bit-exact, so the bindings only choose
 * *which* correct implementation executes.
 */
struct StageBindings
{
    const ModColMatMulFn *modup;
    const ModMatMulFn *ntt_t;
    const ModSiteMatMulFn *ip;
    const ModMatMulFn *intt_t;
    const ModColMatMulFn *recover;
    const ModMatMulFn *ntt_q;
};

std::pair<RnsPoly, RnsPoly>
pipeline_run(const RnsPoly &d2, const KlssEvalKey &evk,
             const CkksContext &ctx, const StageBindings &eng, bool fuse,
             size_t devices)
{
    NEO_ASSERT(d2.form() == PolyForm::eval, "expects eval form");
    obs::Span pipeline_span("keyswitch_klss_pipeline", obs::cat::stage);
    if (auto *r = obs::current()) {
        r->add("pipeline.keyswitch");
        // Work histogram: limb count per keyswitch — deterministic
        // (depends only on the op mix, never on timing or threads).
        r->observe("work.keyswitch.limbs",
                   static_cast<double>(d2.limbs()));
    }
    const size_t n = d2.n();
    const size_t level = d2.limbs() - 1;
    const size_t k_special = ctx.p_basis().size();
    const size_t alpha_p = ctx.alpha_prime();
    const auto &lv = ctx.precomp().level(level);
    const auto &ext_mods = lv.extended;
    const auto &groups = lv.groups;
    const auto &key_partition = ctx.klss_key_partition();
    const size_t beta = groups.size();
    const size_t beta_tilde = lv.beta_tilde;
    NEO_CHECK(beta <= evk.beta_max && beta_tilde <= evk.beta_tilde_max,
              "evaluation key too small for this level");

    const LevelKernels lk(ctx, level);

    RnsPoly d2c = d2;
    {
        obs::Span intt_span("pipeline_intt_q", obs::cat::stage);
        ctx.tables().to_coeff(d2c);
    }

    // --- Mod Up: exact matrix-form BConv per digit (Alg 2). ----------
    // Digits are independent: each reads its own Q-limb group and
    // fills its own α'×N slice of digits_t, so the β digits fan out
    // across the pool (kernel-internal parallelism runs inline).
    Workspace::Frame frame;
    u64 *digits_t = frame.alloc<u64>(beta * alpha_p * n);
    // One span per pipeline stage; emplace/reset brackets each stage
    // without pushing the stage bodies into nested blocks.
    std::optional<obs::Span> stage_span;
    stage_span.emplace("pipeline_modup", obs::cat::stage);
    // Device-major shard order: each device owns a contiguous digit
    // range (shard::shard_range), runs the same kernels over it and
    // writes its own disjoint slice of digits_t — the sharded
    // schedule is the single-device schedule re-grouped, so results
    // are bit-identical for every device count.
    const size_t dev_count = std::max<size_t>(size_t{1}, devices);
    for (size_t dev = 0; dev < dev_count; ++dev) {
        const auto sr = shard::shard_range(beta, dev_count, dev);
        if (sr.count == 0)
            continue;
        parallel_for(
            sr.first, sr.first + sr.count,
            [&](size_t jb, size_t je) {
                for (size_t j = jb; j < je; ++j) {
                    const auto &g = groups[j];
                    lk.modup[j].run_matmul_exact(
                        d2c.limb(g.first), 1, n,
                        digits_t + j * alpha_p * n, *eng.modup);
                    // --- NTT over T (ten-step on the emulated TCU). --
                    for (size_t k = 0; k < alpha_p; ++k) {
                        lk.t_ntt[k].forward(
                            digits_t + (j * alpha_p + k) * n, *eng.ntt_t,
                            fuse);
                    }
                }
            },
            1);
    }

    // --- IP: matrix form (Alg 4) for both components. -----------------
    stage_span.emplace("pipeline_ip", obs::cat::stage);
    IpKernel ip(ctx.t_basis().mods(), beta, beta_tilde);
    // Key material is static per (key, level): flatten each component
    // to β̃ × β × α' × N and reorder it once into the Fig 8 GEMM layout.
    const auto &key_ops = evk.ip_operands().get(level, [&] {
        KlssEvalKey::IpOperands ops;
        ops.beta = beta;
        ops.beta_tilde = beta_tilde;
        std::vector<u64> keys(beta_tilde * beta * alpha_p * n);
        for (size_t c = 0; c < 2; ++c) {
            for (size_t i = 0; i < beta_tilde; ++i) {
                for (size_t j = 0; j < beta; ++j) {
                    const RnsPoly &part = evk.part(i, j, c);
                    std::copy(part.data(), part.data() + alpha_p * n,
                              keys.begin() + (i * beta + j) * alpha_p * n);
                }
            }
            ops.reordered[c].resize(keys.size());
            reorder_4d_reverse(keys.data(), beta_tilde, beta, alpha_p, n,
                               ops.reordered[c].data());
        }
        return ops;
    });
    NEO_ASSERT(key_ops.beta == beta && key_ops.beta_tilde == beta_tilde,
               "cached IP operands shape mismatch");
    u64 *s_data[2];
    for (size_t c = 0; c < 2; ++c) {
        s_data[c] = frame.alloc<u64>(beta_tilde * alpha_p * n);
        ip.run_matmul_reordered(digits_t, key_ops.reordered[c].data(), 1,
                                n, s_data[c], *eng.ip);
        // --- INTT over T: one independent transform per (i, k) limb,
        // sharded by key digit (each device owns its β̃ rows).
        for (size_t dev = 0; dev < dev_count; ++dev) {
            const auto sr = shard::shard_range(beta_tilde, dev_count, dev);
            if (sr.count == 0)
                continue;
            parallel_for(
                sr.first * alpha_p, (sr.first + sr.count) * alpha_p,
                [&](size_t b, size_t e) {
                    for (size_t s = b; s < e; ++s) {
                        lk.t_ntt[s % alpha_p].inverse(
                            s_data[c] + s * n, *eng.intt_t, fuse);
                    }
                },
                1);
        }
    }

    // --- Recover Limbs: exact matrix-form BConv per key-digit group.
    stage_span.emplace("pipeline_recover", obs::cat::stage);
    RnsPoly acc0(n, ext_mods, PolyForm::coeff);
    RnsPoly acc1(n, ext_mods, PolyForm::coeff);
    const size_t active = level + 1 + k_special;
    // Per-digit fan-out: the key partition's groups are disjoint limb
    // ranges, so each digit writes its own limbs of acc0/acc1 — no
    // inter-device communication (the shard.h determinism argument).
    for (size_t dev = 0; dev < dev_count; ++dev) {
    const auto rsr = shard::shard_range(beta_tilde, dev_count, dev);
    if (rsr.count == 0)
        continue;
    parallel_for(
        rsr.first, rsr.first + rsr.count,
        [&](size_t ib, size_t ie) {
            // Worker-local frame: each digit reuses the same scratch.
            Workspace::Frame wframe;
            for (size_t i = ib; i < ie; ++i) {
                const auto &grp = key_partition[i];
                const size_t last =
                    std::min(grp.first + grp.count, active);
                if (grp.first >= last)
                    continue;
                const BConvKernel &recover = *lk.recover[i];
                u64 *out =
                    wframe.alloc<u64>(recover.out_levels() * n);
                for (size_t c = 0; c < 2; ++c) {
                    recover.run_matmul_exact(s_data[c] + i * alpha_p * n,
                                             1, n, out,
                                             *eng.recover);
                    RnsPoly &acc = c == 0 ? acc0 : acc1;
                    for (size_t t = grp.first; t < last; ++t) {
                        const size_t store_idx = t < k_special
                                                     ? level + 1 + t
                                                     : t - k_special;
                        std::copy(out + (t - grp.first) * n,
                                  out + (t - grp.first + 1) * n,
                                  acc.limb(store_idx));
                    }
                }
            }
        },
        1);
    }

    // --- Mod Down (shared with the reference), NTT back. --------------
    stage_span.emplace("pipeline_moddown", obs::cat::stage);
    RnsPoly k0 = ckks::mod_down(acc0, level, ctx, fuse, dev_count);
    RnsPoly k1 = ckks::mod_down(acc1, level, ctx, fuse, dev_count);
    for (RnsPoly *p : {&k0, &k1}) {
        for (size_t dev = 0; dev < dev_count; ++dev) {
            const auto sr =
                shard::shard_range(level + 1, dev_count, dev);
            if (sr.count == 0)
                continue;
            parallel_for(
                sr.first, sr.first + sr.count,
                [&](size_t ib, size_t ie) {
                    for (size_t i = ib; i < ie; ++i)
                        lk.q_ntt[i].forward(p->limb(i), *eng.ntt_q,
                                            fuse);
                },
                1);
        }
        p->set_form(PolyForm::eval);
    }
    stage_span.reset();
    return {std::move(k0), std::move(k1)};
}

} // namespace

model::ModelConfig
model_config(const ExecPolicy &policy, const ckks::CkksParams &params)
{
    model::ModelConfig cfg;
    cfg.engine = EngineRegistry::model_engine(policy.engine);
    cfg.fuse_elementwise = policy.fuse;
    cfg.graph_capture = policy.graph;
    cfg.devices = policy.devices;
    cfg.interconnect = policy.interconnect;
    if (policy.is_auto() && policy.site_engine) {
        // Per-stage hook: the model prices each named keyswitch stage
        // with the engine the policy would dispatch at that site.
        cfg.stage_engine = [policy, params](std::string_view st,
                                            size_t level) {
            const double valid = gpusim::TcuModel::valid_proportion_fp64(
                params.batch, params.beta_tilde(level),
                params.beta(level));
            return EngineRegistry::model_engine(policy.engine_at(
                {st, level, params.d_num, params.n, valid,
                 policy.devices}));
        };
    }
    return cfg;
}

PipelineKernelCounts
keyswitch_pipeline_kernel_counts(const CkksContext &ctx, size_t level)
{
    const size_t n = ctx.n();
    const size_t k_special = ctx.p_basis().size();
    const size_t alpha_p = ctx.alpha_prime();
    const size_t beta = ctx.digit_partition(level).size();
    const size_t alpha_tilde = ctx.params().klss.alpha_tilde;
    const size_t beta_tilde =
        (level + 1 + k_special + alpha_tilde - 1) / alpha_tilde;

    // MatrixNtt transforms: ModUp forwards over T (β·α'), IP inverses
    // over T (2·β̃·α'), final forwards over Q (2·(l+1)). The input INTT
    // over Q uses the radix-2 tables, not MatrixNtt.
    const u64 mntt = static_cast<u64>(beta * alpha_p +
                                      2 * beta_tilde * alpha_p +
                                      2 * (level + 1));
    const u64 gemms_per_mntt =
        MatrixNtt::complexity_for(n, std::min<size_t>(16, n)).matmul_stages;

    PipelineKernelCounts c;
    c.ntt = static_cast<u64>(level + 1) + mntt;
    // ModUp's per-digit exact BConv, Recover's per-key-digit BConv for
    // both components, plus ModDown's two approximate conversions.
    c.bconv = static_cast<u64>(beta + 2 * beta_tilde + 2);
    c.ip = 2; // one matrix IP per ciphertext component
    // GEMM engine calls: one per MatrixNtt stage, one multiply per BConv
    // factor matrix, and one *batched* site GEMM per IP (all N·α'
    // sites of a component ride in a single engine call).
    c.gemm = mntt * gemms_per_mntt +
             static_cast<u64>(beta + 2 * beta_tilde) + 2;
    return c;
}

std::pair<RnsPoly, RnsPoly>
keyswitch_klss_pipeline(const RnsPoly &d2, const KlssEvalKey &evk,
                        const CkksContext &ctx, const ExecPolicy &policy)
{
    NEO_ASSERT(d2.limbs() >= 1, "empty input");
    const size_t level = d2.limbs() - 1;
    const auto &pp = ctx.params();
    const double valid = gpusim::TcuModel::valid_proportion_fp64(
        pp.batch, pp.beta_tilde(level), pp.beta(level));
    const auto resolve = [&](const char *st) {
        return policy.engine_at(
            {st, level, pp.d_num, pp.n, valid, policy.devices});
    };
    // The six engine-dispatched sites of the KLSS pipeline. A fixed
    // policy resolves them all to policy.engine; an autotune policy
    // consults its tuning table per (stage, level, d_num, N, valid).
    const EngineId e_modup = resolve(stage::modup_bconv);
    const EngineId e_ntt_t = resolve(stage::ntt_t);
    const EngineId e_ip = resolve(stage::ip);
    const EngineId e_intt_t = resolve(stage::intt_t);
    const EngineId e_recover = resolve(stage::recover_bconv);
    const EngineId e_ntt_q = resolve(stage::ntt_q);

    if (policy.is_auto()) {
        if (auto *r = obs::current()) {
            // One counter per site decision: the differential suite
            // asserts the engines that really executed match the
            // tuning table's decisions bit for bit.
            const std::pair<const char *, EngineId> sites[] = {
                {stage::modup_bconv, e_modup}, {stage::ntt_t, e_ntt_t},
                {stage::ip, e_ip},             {stage::intt_t, e_intt_t},
                {stage::recover_bconv, e_recover},
                {stage::ntt_q, e_ntt_q}};
            for (const auto &[st, id] : sites) {
                std::string key = "tune.site.";
                key += st;
                key += '.';
                key += EngineRegistry::name(id);
                r->add(key);
            }
        }
    }

    const StageBindings bindings{
        &EngineRegistry::engines(e_modup).per_column,
        &EngineRegistry::engines(e_ntt_t).same_mod,
        &EngineRegistry::engines(e_ip).per_site,
        &EngineRegistry::engines(e_intt_t).same_mod,
        &EngineRegistry::engines(e_recover).per_column,
        &EngineRegistry::engines(e_ntt_q).same_mod};
    return pipeline_run(d2, evk, ctx, bindings, policy.fuse,
                        policy.devices);
}

std::function<std::pair<RnsPoly, RnsPoly>(
    const RnsPoly &, const ckks::KlssEvalKey &, const ckks::CkksContext &)>
klss_keyswitch_fn(ExecPolicy policy)
{
    return [policy = std::move(policy)](const RnsPoly &d2,
                                        const ckks::KlssEvalKey &evk,
                                        const ckks::CkksContext &ctx) {
        return keyswitch_klss_pipeline(d2, evk, ctx, policy);
    };
}

} // namespace neo
