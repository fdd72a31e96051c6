#include "neo/pipeline.h"

#include <algorithm>
#include <optional>
#include <string>

#include "ckks/ks_precomp.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
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
 * digit. The BConv kernels wrap the context's key-switch plan
 * (ckks::KeySwitchPrecomp) and the NTTs are built on every call, so
 * the pipeline depends on nothing but its arguments; the build is a
 * small fraction of the keyswitch it serves (EXPERIMENTS.md "Per-call
 * pipeline kernels").
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
        modup.reserve(lv.digits.size());
        for (const auto &d : lv.digits)
            modup.emplace_back(*d.to_t);
        recover.reserve(lv.recover.size());
        for (const auto &conv : lv.recover)
            recover.emplace_back(conv);
    }

    std::vector<MatrixNtt> t_ntt;     ///< per T limb
    std::vector<MatrixNtt> q_ntt;     ///< per q limb, q_0..q_level
    std::vector<BConvKernel> modup;   ///< one per ciphertext digit
    std::vector<BConvKernel> recover; ///< one per key digit
};

/**
 * Run @p body(s) for every s in [0, total·inner), device-major:
 * device d owns the items of its shard::shard_range of @p total and
 * fans their inner·count indices out across the pool. The sharded
 * schedule is the single-device schedule re-grouped over disjoint
 * outputs, so results are bit-identical for every device count.
 */
template <class Body>
void
for_each_shard(size_t total, size_t inner, size_t devices,
               const Body &body)
{
    for (size_t dev = 0; dev < devices; ++dev) {
        const auto sr = shard::shard_range(total, devices, dev);
        parallel_for(
            sr.first * inner, (sr.first + sr.count) * inner,
            [&](size_t b, size_t e) {
                for (size_t s = b; s < e; ++s)
                    body(s);
            },
            1);
    }
}

/**
 * The GEMM bundle stage @p st runs on under @p policy at @p site. A
 * fixed policy runs policy.engine everywhere; an autotune policy
 * resolves each stage's engine from its tuning table and records the
 * decision as one `tune.site.<stage>.<engine>` counter, so tests can
 * prove which engine executed.
 */
const PipelineEngines &
engines_at(const ExecPolicy &policy, SiteKey site, const char *st)
{
    site.stage = st;
    const EngineId id = policy.engine_at(site);
    if (policy.is_auto()) {
        if (auto *r = obs::current()) {
            std::string key = "tune.site.";
            key += st;
            key += '.';
            key += EngineRegistry::name(id);
            r->add(key);
        }
    }
    return EngineRegistry::engines(id);
}

} // namespace

model::ModelConfig
model_config(const ExecPolicy &policy, const ckks::CkksParams &)
{
    model::ModelConfig cfg;
    cfg.policy = policy;
    return cfg;
}

PipelineKernelCounts
keyswitch_pipeline_kernel_counts(const CkksContext &ctx, size_t level)
{
    const size_t n = ctx.n();
    const size_t alpha_p = ctx.alpha_prime();
    const size_t beta = ctx.params().beta(level);
    const size_t beta_tilde = ctx.params().beta_tilde(level);

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
    ckks::check_keyswitch_operand(d2, ctx);
    ckks::check_keyswitch_key(evk, ctx);
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
    const size_t alpha_p = ctx.alpha_prime();
    const auto &pp = ctx.params();
    const auto &lv = ctx.precomp().level(level);
    const auto &groups = lv.groups;
    const auto &key_partition = ctx.klss_key_partition();
    const size_t beta = groups.size();
    const size_t beta_tilde = lv.beta_tilde;
    NEO_CHECK(beta <= evk.beta_max && beta_tilde <= evk.beta_tilde_max,
              "evaluation key too small for this level");
    const size_t devices = std::max<size_t>(1, policy.devices);
    const SiteKey site{{}, level, pp.d_num, pp.n};

    const LevelKernels lk(ctx, level);
    Workspace::Frame frame;
    // The eight kStages keyswitch stages, in table order, each under
    // one span named by its stage; emplace closes the previous one.
    std::optional<obs::Span> span;

    span.emplace(stage::intt_q, obs::cat::stage);
    RnsPoly d2c = d2;
    ctx.tables().to_coeff(d2c);

    // Mod Up: exact matrix-form BConv per ciphertext digit (Alg 2),
    // each filling its own α'×N slice of digits_t.
    span.emplace(stage::modup_bconv, obs::cat::stage);
    u64 *digits_t = frame.alloc<u64>(beta * alpha_p * n);
    const auto &modup_mm =
        engines_at(policy, site, stage::modup_bconv).per_column;
    for_each_shard(beta, 1, devices, [&](size_t j) {
        lk.modup[j].run_matmul_exact(d2c.limb(groups[j].first), 1, n,
                                     digits_t + j * alpha_p * n, modup_mm);
    });

    // NTT over T: one ten-step transform per (digit, T limb).
    span.emplace(stage::ntt_t, obs::cat::stage);
    const auto &ntt_t_mm = engines_at(policy, site, stage::ntt_t).same_mod;
    for_each_shard(beta, alpha_p, devices, [&](size_t s) {
        lk.t_ntt[s % alpha_p].forward(digits_t + s * n, ntt_t_mm, policy.fuse);
    });

    // IP: matrix form (Alg 4) for both components. Key material is
    // static per (key, level): flatten each component to β̃ × β × α' × N
    // and reorder it once into the Fig 8 GEMM layout.
    span.emplace(stage::ip, obs::cat::stage);
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
    const IpKernel ip(ctx.t_basis().mods(), beta, beta_tilde);
    const auto &ip_mm = engines_at(policy, site, stage::ip).per_site;
    u64 *s_data[2];
    for (size_t c = 0; c < 2; ++c) {
        s_data[c] = frame.alloc<u64>(beta_tilde * alpha_p * n);
        ip.run_matmul_reordered(digits_t, key_ops.reordered[c].data(), 1,
                                n, s_data[c], ip_mm);
    }

    // INTT over T: one transform per (key digit, T limb).
    span.emplace(stage::intt_t, obs::cat::stage);
    const auto &intt_t_mm =
        engines_at(policy, site, stage::intt_t).same_mod;
    for (u64 *sc : s_data)
        for_each_shard(beta_tilde, alpha_p, devices, [&](size_t s) {
            lk.t_ntt[s % alpha_p].inverse(sc + s * n, intt_t_mm, policy.fuse);
        });

    // Recover Limbs: exact matrix-form BConv per key digit. The key
    // partition's groups are disjoint limb ranges, so each digit
    // writes its own limbs of acc0/acc1 — no inter-device
    // communication (the shard.h determinism argument).
    span.emplace(stage::recover_bconv, obs::cat::stage);
    RnsPoly acc0(n, lv.extended, PolyForm::coeff);
    RnsPoly acc1(n, lv.extended, PolyForm::coeff);
    const auto &recover_mm =
        engines_at(policy, site, stage::recover_bconv).per_column;
    for_each_shard(beta_tilde, 1, devices, [&](size_t i) {
        const BConvKernel &recover = lk.recover[i];
        Workspace::Frame wframe;
        u64 *out = wframe.alloc<u64>(recover.out_levels() * n);
        for (size_t c = 0; c < 2; ++c) {
            recover.run_matmul_exact(s_data[c] + i * alpha_p * n, 1, n, out,
                                     recover_mm);
            RnsPoly &acc = c == 0 ? acc0 : acc1;
            for (size_t t = 0; t < recover.out_levels(); ++t) {
                const size_t store =
                    ctx.pq_limb(key_partition[i].first + t, level);
                std::copy(out + t * n, out + (t + 1) * n, acc.limb(store));
            }
        }
    });

    // Mod Down: shared with the reference (ckks::mod_down).
    span.emplace(stage::moddown_bconv, obs::cat::stage);
    std::pair<RnsPoly, RnsPoly> result{
        ckks::mod_down(acc0, level, ctx, policy.fuse, devices),
        ckks::mod_down(acc1, level, ctx, policy.fuse, devices)};

    // NTT back to eval form over q_0..q_level.
    span.emplace(stage::ntt_q, obs::cat::stage);
    const auto &ntt_q_mm = engines_at(policy, site, stage::ntt_q).same_mod;
    for (RnsPoly *p : {&result.first, &result.second}) {
        for_each_shard(level + 1, 1, devices, [&](size_t i) {
            lk.q_ntt[i].forward(p->limb(i), ntt_q_mm, policy.fuse);
        });
        p->set_form(PolyForm::eval);
    }
    return result;
}

} // namespace neo
