#include "boot/bootstrapper.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "boot/factored_transform.h"
#include "common/check.h"
#include "obs/obs.h"

namespace neo::boot {

namespace {

/// Parameters of the base cosine g(u) = cos((2πK·u - π/2) / 2^r).
struct CosArg
{
    double k;
    int r;
};

double
base_cos(double u, void *arg)
{
    const auto *a = static_cast<const CosArg *>(arg);
    return std::cos((2.0 * M_PI * a->k * u - M_PI / 2.0) /
                    std::pow(2.0, a->r));
}

} // namespace

Bootstrapper::Bootstrapper(const CkksContext &ctx, const Evaluator &ev,
                           const EvalKeyBundle &keys,
                           const BootstrapOptions &opts)
    : ctx_(ctx), ev_(ev), keys_(keys), opts_(opts),
      poly_(ctx, ev, keys)
{
    const size_t n = ctx.n();
    const size_t s = n / 2;
    NEO_CHECK(opts_.sin_degree >= 1, "sin_degree must be at least 1");
    NEO_CHECK(opts_.k_range > 0, "k_range must be positive");
    NEO_CHECK(opts_.double_angles >= 0, "double_angles must be >= 0");
    NEO_CHECK(opts_.input_level == 0, "ModRaise implemented from level 0");

    // Base-cosine Chebyshev fit for EvalMod.
    CosArg arg{opts_.k_range, opts_.double_angles};
    cos_coeffs_ =
        PolyEvaluator::chebyshev_fit(base_cos, &arg, opts_.sin_degree);
    NEO_CHECK(depth() <= ctx.max_level(),
              "the modulus chain is shorter than the bootstrap's depth");

    if (opts_.factored_groups > 0) {
        factored_ = std::make_unique<FactoredEmbedding>(
            n, opts_.factored_groups);
        return;
    }

    // Dense path: precompute e_k powers once; build the four transform
    // matrices (bootstrap_dense is their only reader).
    std::vector<u64> exps(s);
    u64 e = 1;
    for (size_t k = 0; k < s; ++k) {
        exps[k] = e;
        e = (e * 5) % (2 * n);
    }
    auto zeta = [&](u64 expo) {
        const double theta = M_PI * static_cast<double>(expo % (2 * n)) /
                             static_cast<double>(n);
        return Complex(std::cos(theta), std::sin(theta));
    };

    // CtS: u_half[i] = Σ_k (1/N)·conj(A[k][i(+S)])·z[k]; c = u+conj(u).
    std::vector<Complex> m_lo(s * s), m_hi(s * s);
    // StC: z[k] = Σ_i A[k][i]·c_lo[i] + A[k][i+S]·c_hi[i].
    std::vector<Complex> a_lo(s * s), a_hi(s * s);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t k = 0; k < s; ++k) {
        for (size_t i = 0; i < s; ++i) {
            Complex lo = zeta(exps[k] * i);
            Complex hi = zeta(exps[k] * (i + s));
            a_lo[k * s + i] = lo;
            a_hi[k * s + i] = hi;
            m_lo[i * s + k] = std::conj(lo) * inv_n;
            m_hi[i * s + k] = std::conj(hi) * inv_n;
        }
    }
    cts_lo_ = std::make_unique<LinearTransform>(std::move(m_lo), s);
    cts_hi_ = std::make_unique<LinearTransform>(std::move(m_hi), s);
    stc_lo_ = std::make_unique<LinearTransform>(std::move(a_lo), s);
    stc_hi_ = std::make_unique<LinearTransform>(std::move(a_hi), s);
}

Bootstrapper::~Bootstrapper() = default;

std::vector<i64>
Bootstrapper::required_rotations(const CkksContext &ctx,
                                 const BootstrapOptions &opts)
{
    const size_t s = ctx.n() / 2;
    if (opts.factored_groups == 0) {
        // The dense transforms keep every diagonal.
        std::vector<size_t> every(s);
        std::iota(every.begin(), every.end(), size_t{0});
        return LinearTransform::rotations(every, s);
    }
    const FactoredEmbedding fe(ctx.n(), opts.factored_groups);
    std::vector<i64> rots;
    for (const auto *stages : {&fe.forward(), &fe.inverse()})
        for (const LinearTransform &stage : *stages)
            for (i64 r : stage.required_rotations())
                rots.push_back(r);
    std::sort(rots.begin(), rots.end());
    rots.erase(std::unique(rots.begin(), rots.end()), rots.end());
    return rots;
}

size_t
Bootstrapper::depth() const
{
    // Normalise, the Chebyshev cosine, then r double angles.
    const size_t eval_mod_depth = 1 +
                                  PolyEvaluator::chebyshev_depth(cos_coeffs_) +
                                  static_cast<size_t>(opts_.double_angles);
    if (opts_.factored_groups == 0) {
        // dense CtS + EvalMod + dense StC.
        return 1 + eval_mod_depth + 1;
    }
    // G inverse groups + EvalMod + i-recombine + G forward groups.
    return opts_.factored_groups + eval_mod_depth + 1 +
           opts_.factored_groups;
}

Ciphertext
Bootstrapper::mod_raise(const Ciphertext &ct) const
{
    NEO_CHECK(ct.level == opts_.input_level,
              "input must sit at the configured input level");
    const size_t n = ctx_.n();
    const u64 q0 = ctx_.q_basis()[0].value();
    const auto top_mods = ctx_.active_mods(ctx_.max_level());

    Ciphertext out;
    out.level = ctx_.max_level();
    // The raised ciphertext decrypts to m + q0·I; declaring scale = q0
    // makes its logical value t = (m + q0·I)/q0, |t| ≤ K.
    out.scale = static_cast<double>(q0);
    std::vector<i64> lifted(n);
    for (int comp = 0; comp < 2; ++comp) {
        RnsPoly src = comp == 0 ? ct.c0 : ct.c1;
        ctx_.tables().to_coeff(src);
        // Centered lift of the level-0 residue, then its residues over
        // the full chain.
        const u64 *limb0 = src.limb(0);
        for (size_t l = 0; l < n; ++l) {
            const i64 v = static_cast<i64>(limb0[l]);
            lifted[l] = limb0[l] > q0 / 2 ? v - static_cast<i64>(q0) : v;
        }
        RnsPoly dst = ctx_.poly_from_signed(lifted, top_mods);
        ctx_.tables().to_eval(dst);
        (comp == 0 ? out.c0 : out.c1) = std::move(dst);
    }
    return out;
}

Ciphertext
Bootstrapper::eval_mod(const Ciphertext &ct, Complex prefactor) const
{
    const size_t slots = ctx_.encoder().slot_count();
    const double nominal =
        static_cast<double>(ctx_.q_basis()[1].value());

    // Normalise: value t -> prefactor·t/K at exactly the nominal
    // scale (one plaintext multiplication with an engineered
    // constant; the factored path passes prefactor = -i to turn its
    // i·b-valued slots real).
    const double q_drop =
        static_cast<double>(ctx_.q_basis()[ct.level].value());
    const double enc_scale =
        (1.0 / opts_.k_range) * nominal * q_drop / ct.scale;
    std::vector<Complex> pre(slots, prefactor);
    Ciphertext x = ev_.rescale(
        ev_.mul_plain(ct, ctx_.encode(pre, ct.level, enc_scale)));
    x.scale = nominal;

    // Base cosine, then r double-angle steps: cos(2θ) = 2cos²θ - 1.
    // Each square keeps the scale its rescale leaves: 2c² and 1 nearly
    // cancel, so a snapped scale would show in the result.
    Ciphertext c = poly_.evaluate_chebyshev(x, cos_coeffs_);
    for (int r = 0; r < opts_.double_angles; ++r) {
        Ciphertext sq = ev_.rescale(ev_.mul(c, c, keys_));
        c = ev_.add_constant(ev_.add(sq, sq), -1.0);
    }
    // c's value is sin(2πt) ≈ 2π(t - I); re-declare the scale so the
    // interpreted value becomes (t - I)·q0 at the *input message's*
    // scale — i.e. the refreshed message itself.
    return c;
}

Ciphertext
Bootstrapper::bootstrap_dense(const Ciphertext &raised) const
{
    // 2. CoeffToSlot: two transforms + conjugations give the two
    //    coefficient halves as real slot vectors.
    std::optional<obs::Span> stage_span;
    stage_span.emplace("boot_cts", obs::cat::stage);
    Ciphertext w0 = cts_lo_->apply(ev_, ctx_, raised, keys_);
    Ciphertext w1 = cts_hi_->apply(ev_, ctx_, raised, keys_);
    Ciphertext u0 = ev_.add(w0, ev_.conjugate(w0, keys_));
    Ciphertext u1 = ev_.add(w1, ev_.conjugate(w1, keys_));

    // 3. EvalMod on both halves.
    stage_span.emplace("boot_evalmod", obs::cat::stage);
    Ciphertext v0 = eval_mod(u0, Complex(1, 0));
    Ciphertext v1 = eval_mod(u1, Complex(1, 0));

    // 4. SlotToCoeff.
    stage_span.emplace("boot_stc", obs::cat::stage);
    Ciphertext z0 = stc_lo_->apply(ev_, ctx_, v0, keys_);
    Ciphertext z1 = stc_hi_->apply(ev_, ctx_, v1, keys_);
    return ev_.add(z0, z1);
}

Ciphertext
Bootstrapper::bootstrap_factored(const Ciphertext &raised) const
{
    const size_t slots = ctx_.encoder().slot_count();

    // 2. CoeffToSlot: inverse butterfly groups take the slot values z
    //    back to the base vector a + i·b (a, b = coefficient halves
    //    in σ order), then conjugation splits the two real parts.
    std::optional<obs::Span> stage_span;
    stage_span.emplace("boot_cts", obs::cat::stage);
    Ciphertext x = raised;
    for (const auto &stage : factored_->inverse())
        x = stage.apply(ev_, ctx_, x, keys_);
    Ciphertext xc = ev_.conjugate(x, keys_);
    Ciphertext u0 = ev_.add(x, xc);      // value 2a
    Ciphertext w1 = ev_.sub(x, xc);      // value 2i·b

    // 3. EvalMod; the ±i and 1/2 factors fold into the prefactor.
    stage_span.emplace("boot_evalmod", obs::cat::stage);
    Ciphertext v0 = eval_mod(u0, Complex(0.5, 0));
    Ciphertext v1 = eval_mod(w1, Complex(0, -0.5));

    // 4. SlotToCoeff: recombine base' = v0 + i·v1 (one plaintext
    //    multiplication), then the forward butterfly groups. Encoding
    //    the constant at exactly the dropped prime's value keeps the
    //    rescaled v1i on v0's scale, so the add needs no fudging.
    stage_span.emplace("boot_stc", obs::cat::stage);
    std::vector<Complex> eye(slots, Complex(0, 1));
    const double q_drop =
        static_cast<double>(ctx_.q_basis()[v1.level].value());
    Ciphertext v1i = ev_.rescale(
        ev_.mul_plain(v1, ctx_.encode(eye, v1.level, q_drop)));
    Ciphertext v0m = ev_.mod_switch_to(v0, v1i.level);
    v0m.scale = v1i.scale; // equal up to FP bookkeeping
    Ciphertext base = ev_.add(v0m, v1i);
    for (const auto &stage : factored_->forward())
        base = stage.apply(ev_, ctx_, base, keys_);
    return base;
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct) const
{
    obs::Span span("bootstrap", obs::cat::stage);
    if (auto *r = obs::current()) {
        r->add("op.bootstrap");
        // Work histogram: input level per bootstrap invocation
        // (deterministic across thread counts, like the op counters).
        r->observe("work.boot.input_limbs",
                   static_cast<double>(ct.level + 1));
    }
    const double delta_in = ct.scale;
    const u64 q0 = ctx_.q_basis()[0].value();

    // 1. ModRaise.
    Ciphertext raised = mod_raise(ct);

    Ciphertext out = opts_.factored_groups > 0
                         ? bootstrap_factored(raised)
                         : bootstrap_dense(raised);

    // Scale bookkeeping: the slot values now equal sin(2πt) ≈
    // 2π·(m̂/q0) times the transforms' scale factors; declaring
    //   scale' = scale · 2π · Δ_in / q0
    // makes the interpreted value the original message again.
    out.scale = out.scale * 2.0 * M_PI * delta_in /
                static_cast<double>(q0);
    return out;
}

} // namespace neo::boot
