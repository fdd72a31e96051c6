#include "boot/bootstrapper.h"

#include <algorithm>
#include <cmath>
#include <optional>

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
      poly_(ctx, ev, keys), factored_(ctx.n(), opts.factored_groups)
{
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
}

std::vector<i64>
Bootstrapper::required_rotations(const CkksContext &ctx,
                                 const BootstrapOptions &opts)
{
    const FactoredEmbedding fe(ctx.n(), opts.factored_groups);
    std::vector<i64> rots;
    for (const auto *stages : {&fe.forward(), &fe.inverse()})
        for (const ckks::LinearTransform &stage : *stages)
            for (i64 r : stage.required_rotations())
                rots.push_back(r);
    std::sort(rots.begin(), rots.end());
    rots.erase(std::unique(rots.begin(), rots.end()), rots.end());
    return rots;
}

size_t
Bootstrapper::depth() const
{
    // Inverse groups, then EvalMod (normalise, the Chebyshev cosine, r
    // double angles), then forward groups; multiplying by i is free.
    return 2 * factored_.groups() + 1 +
           PolyEvaluator::chebyshev_depth(cos_coeffs_) +
           static_cast<size_t>(opts_.double_angles);
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
Bootstrapper::eval_mod(const Ciphertext &ct, double factor) const
{
    const double nominal =
        static_cast<double>(ctx_.q_basis()[1].value());

    // Normalise: value t -> factor·t/K at the nominal scale, one
    // integer multiplication and a rescale.
    const double q_drop =
        static_cast<double>(ctx_.q_basis()[ct.level].value());
    const double enc_scale =
        (1.0 / opts_.k_range) * nominal * q_drop / ct.scale;
    const double k = std::round(factor * enc_scale);
    NEO_CHECK(std::abs(k) < 0x1p63,
              "normalisation constant does not fit an i64");
    Ciphertext x = ev_.rescale(ev_.mul_integer(ct, static_cast<i64>(k)));
    x.scale = nominal;

    // Base cosine, then r double-angle steps: cos(2θ) = 2cos²θ - 1.
    // Each square keeps the scale its rescale leaves: 2c² and 1 nearly
    // cancel, so a snapped scale would show in the result.
    Ciphertext c = poly_.evaluate_chebyshev(x, cos_coeffs_);
    for (int r = 0; r < opts_.double_angles; ++r) {
        Ciphertext sq = ev_.rescale(ev_.mul(c, c, keys_));
        c = ev_.add_constant(ev_.add(sq, sq), -1.0);
    }
    // c's value is sin(2πt) ≈ 2π(t - I); bootstrap() re-declares the
    // scale.
    return c;
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
    Ciphertext x = mod_raise(ct);

    // 2. CoeffToSlot: inverse butterfly groups take the slot values z
    //    back to the base vector a + i·b (a, b = coefficient halves
    //    in σ order), then conjugation splits the two real parts.
    std::optional<obs::Span> stage_span;
    stage_span.emplace("boot_cts", obs::cat::stage);
    for (const auto &stage : factored_.inverse())
        x = stage.apply(ev_, ctx_, x, keys_);
    Ciphertext xc = ev_.conjugate(x, keys_);
    Ciphertext u0 = ev_.add(x, xc); // value 2a
    Ciphertext w1 = ev_.sub(x, xc); // value 2i·b

    // 3. EvalMod on a and on −i·(2i·b)/2 = b.
    stage_span.emplace("boot_evalmod", obs::cat::stage);
    Ciphertext v0 = eval_mod(u0, 0.5);
    Ciphertext v1 = eval_mod(ev_.mul_by_i(w1), -0.5);

    // 4. SlotToCoeff: base' = v0 + i·v1, then the forward groups.
    stage_span.emplace("boot_stc", obs::cat::stage);
    Ciphertext out = ev_.add(v0, ev_.mul_by_i(v1));
    for (const auto &stage : factored_.forward())
        out = stage.apply(ev_, ctx_, out, keys_);

    // Scale bookkeeping: the slot values now equal sin(2πt) ≈
    // 2π·(m̂/q0) times the transforms' scale factors; declaring
    //   scale' = scale · 2π · Δ_in / q0
    // makes the interpreted value the original message again.
    out.scale = out.scale * 2.0 * M_PI * delta_in /
                static_cast<double>(q0);
    return out;
}

} // namespace neo::boot
