#include "neo/pipeline.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "ckks/ks_precomp.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "gpusim/memory_model.h"
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
 * Kernels and transforms that depend only on (context, level), cached
 * across keyswitch calls. Every one of these used to be rebuilt per
 * call — a MatrixNtt construction fills two twiddle matrices and a
 * BConvKernel construction is O(α·α') modular exponentiations, which
 * together dominated small-ring pipeline runs.
 */
struct LevelKernels
{
    std::vector<BConvKernel> modup; ///< one per ciphertext digit
    /// One per key digit; null when the group is empty at this level.
    std::vector<std::unique_ptr<BConvKernel>> recover;
};

struct PipelineCache
{
    Mutex mu;
    /// Per T limb (level-independent).
    std::vector<MatrixNtt> t_ntt NEO_GUARDED_BY(mu);
    /// Per q limb, lazy.
    std::vector<std::unique_ptr<MatrixNtt>> qntt NEO_GUARDED_BY(mu);
    std::vector<std::unique_ptr<LevelKernels>> levels NEO_GUARDED_BY(mu);
    /// LRU stamp — guarded by the *registry's* lock (reg_mu in
    /// pipeline_cache_for), which neither the attribute grammar nor
    /// the lint symbol table can name from here; never touched under
    /// mu. neo-lint: allow(nonatomic-shared-counter)
    u64 last_use = 0;

    /// Post-ensure_level read access — documented analysis exception:
    /// the vectors are sized once at construction, each slot is
    /// published exactly once under mu by ensure_level, and callers
    /// only read slots their own ensure_level call already built,
    /// which are immutable from then on. The unlocked reads race with
    /// nothing.
    const std::vector<MatrixNtt> &
    t_ntt_built() const NEO_NO_THREAD_SAFETY_ANALYSIS
    {
        return t_ntt;
    }
    const MatrixNtt &
    qntt_built(size_t i) const NEO_NO_THREAD_SAFETY_ANALYSIS
    {
        return *qntt[i];
    }
};

/**
 * Registry of pipeline caches keyed by CkksContext::uid() (never the
 * address — a context reallocated at a freed context's address must
 * not see its predecessor's kernels). Bounded to a small working set;
 * eviction is safe because callers hold a shared_ptr for the duration
 * of the call.
 */
// Magic-static registry guarded by the function-local reg_mu — a
// documented NEO_NO_THREAD_SAFETY_ANALYSIS exception (the attribute
// grammar cannot name a function-local capability; every access to
// tick/reg/last_use below happens under reg_mu).
std::shared_ptr<PipelineCache>
pipeline_cache_for(const CkksContext &ctx) NEO_NO_THREAD_SAFETY_ANALYSIS
{
    static Mutex reg_mu;
    // tick and reg are only ever touched under reg_mu.
    // neo-lint: allow(thread-unsafe-static)
    static u64 tick = 0;
    // neo-lint: allow(thread-unsafe-static)
    static std::map<u64, std::shared_ptr<PipelineCache>> reg;
    constexpr size_t kMaxContexts = 4;

    LockGuard lock(reg_mu);
    auto &slot = reg[ctx.uid()];
    if (slot == nullptr) {
        slot = std::make_shared<PipelineCache>();
        slot->qntt.resize(ctx.max_level() + 1);
        slot->levels.resize(ctx.max_level() + 1);
    }
    slot->last_use = ++tick;
    auto out = slot;
    while (reg.size() > kMaxContexts) {
        auto victim = reg.begin();
        for (auto it = reg.begin(); it != reg.end(); ++it)
            if (it->second->last_use < victim->second->last_use)
                victim = it;
        reg.erase(victim);
        obs::add_gauge("ks.cache.evictions", 1.0);
    }
    obs::set_gauge("ks.cache.contexts", static_cast<double>(reg.size()));
    return out;
}

/// Build (on first use) everything this keyswitch level needs.
LevelKernels &
ensure_level(PipelineCache &pc, const CkksContext &ctx, size_t level)
{
    const size_t n = ctx.n();
    const size_t k_special = ctx.p_basis().size();
    const size_t alpha_p = ctx.alpha_prime();
    const auto &lv = ctx.precomp().level(level);

    LockGuard lock(pc.mu);
    if (pc.t_ntt.empty()) {
        pc.t_ntt.reserve(alpha_p);
        for (size_t k = 0; k < alpha_p; ++k) {
            pc.t_ntt.emplace_back(
                ctx.t_tables().for_modulus(ctx.t_basis()[k]),
                std::min<size_t>(16, n));
        }
    }
    for (size_t i = 0; i <= level; ++i) {
        if (pc.qntt[i] == nullptr)
            pc.qntt[i] = std::make_unique<MatrixNtt>(
                ctx.tables().for_modulus(ctx.q_basis()[i]),
                std::min<size_t>(16, n));
    }
    if (pc.levels[level] == nullptr) {
        auto lk = std::make_unique<LevelKernels>();
        lk->modup.reserve(lv.groups.size());
        for (const auto &g : lv.groups)
            lk->modup.emplace_back(ctx.q_basis().slice(g.first, g.count),
                                   ctx.t_basis());
        const auto &key_partition = ctx.klss_key_partition();
        const size_t active = level + 1 + k_special;
        lk->recover.resize(lv.beta_tilde);
        for (size_t i = 0; i < lv.beta_tilde; ++i) {
            const auto &grp = key_partition[i];
            const size_t last = std::min(grp.first + grp.count, active);
            if (grp.first >= last)
                continue;
            std::vector<u64> grp_primes;
            for (size_t t = grp.first; t < last; ++t)
                grp_primes.push_back(ctx.pq_ordered_mod(t).value());
            lk->recover[i] = std::make_unique<BConvKernel>(
                ctx.t_basis(), RnsBasis(grp_primes));
        }
        pc.levels[level] = std::move(lk);
    }
    return *pc.levels[level];
}

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
             const model::ModelConfig &mcfg)
{
    NEO_ASSERT(d2.form() == PolyForm::eval, "expects eval form");
    obs::Span pipeline_span("keyswitch_klss_pipeline", obs::cat::stage);
    if (auto *r = obs::current()) {
        r->add("pipeline.keyswitch");
        // Modeled device time of the same KeySwitch on the simulated
        // A100, accumulated next to the wall-clock span so exporters
        // can report modeled-vs-measured side by side — total plus the
        // per-kernel roofline attribution (modeled.kernel.*). The
        // config mirrors the run's ExecPolicy, so an autotuned run's
        // modeled cost prices the per-stage engines it dispatched.
        model::KernelModel model(ctx.params(), mcfg);
        const auto att = model.run_attributed(
            model.keyswitch_kernels_named(d2.limbs() - 1));
        if (mcfg.devices > 1) {
            // Sharded run: the modeled cost is the multi-device
            // makespan (compute + collectives overlapping), with
            // comm.* rows and counters recorded next to the kernels
            // so exporters and --diff see communication the same way
            // they see kernels.
            const auto sc = shard::model_sharded_keyswitch(
                ctx.params(), d2.limbs() - 1, mcfg);
            r->add_value("modeled.keyswitch.s", sc.seconds);
            r->add_value("modeled.keyswitch.single_device.s",
                         sc.single_seconds);
            for (const auto &row : sc.kernels)
                r->add_modeled_cost(row.name, row.modeled_s,
                                    row.compute_s, row.memory_s,
                                    row.launch_s, row.bytes, row.calls);
            r->add_value("comm.bytes.allgather",
                         sc.plan.allgather_bytes());
            r->add_value("comm.bytes.reducescatter",
                         sc.plan.reducescatter_bytes());
            r->add_value("comm.bytes.total", sc.plan.total_bytes());
            r->add_value("comm.modeled.s", sc.comm_s);
            for (const auto &lk : sc.links) {
                std::string key = "comm.link.";
                key += std::to_string(lk.link);
                r->set_gauge(key + ".utilization", lk.utilization);
                r->set_gauge(key + ".bytes", lk.bytes);
            }
            r->set_gauge("shard.devices",
                         static_cast<double>(mcfg.devices));
        } else {
            r->add_value("modeled.keyswitch.s", att.seconds);
            for (const auto &row : att.kernels)
                r->add_modeled_cost(row.name, row.modeled_s,
                                    row.compute_s, row.memory_s,
                                    row.launch_s, row.bytes, row.calls);
        }
        // Modeled HBM telemetry: per-run DRAM traffic distribution
        // plus the footprint gauges (working set, keys, ciphertext).
        r->observe("work.keyswitch.hbm_bytes", att.schedule.bytes);
        r->set_gauge("hbm.modeled.traffic_bytes", att.schedule.bytes);
        gpusim::MemoryModel(ctx.params()).record_gauges(d2.limbs() - 1);
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

    // Cached kernels for this (context, level): radix-16 matrix NTTs
    // over T and Q, ModUp and Recover BConv kernels. Holding the
    // shared_ptr keeps the cache alive even if another thread evicts
    // this context from the registry mid-call.
    auto cache = pipeline_cache_for(ctx);
    LevelKernels &lk = ensure_level(*cache, ctx, level);
    const std::vector<MatrixNtt> &t_ntt = cache->t_ntt_built();

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
    const size_t dev_count = std::max<size_t>(size_t{1}, mcfg.devices);
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
                        t_ntt[k].forward(digits_t + (j * alpha_p + k) * n,
                                         *eng.ntt_t, fuse);
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
                        t_ntt[s % alpha_p].inverse(s_data[c] + s * n,
                                                   *eng.intt_t, fuse);
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
                        cache->qntt_built(i).forward(p->limb(i),
                                                     *eng.ntt_q, fuse);
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
                        model_config(policy, pp));
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
