#include "ckks/context.h"

#include <algorithm>

#include "ckks/ks_precomp.h"
#include "common/check.h"
#include "rns/primes.h"

namespace neo::ckks {

namespace {

/// Non-NTT primes for the exact decode lift (just below 2^60).
std::vector<u64>
generate_decode_primes(int count, const std::vector<u64> &avoid)
{
    std::vector<u64> out;
    u64 candidate = (1ULL << 60) - 1;
    while (static_cast<int>(out.size()) < count) {
        if (is_prime(candidate) &&
            std::find(avoid.begin(), avoid.end(), candidate) ==
                avoid.end()) {
            out.push_back(candidate);
        }
        candidate -= 2;
    }
    return out;
}

} // namespace

CkksContext::CkksContext(const CkksParams &params)
    : params_(params), encoder_(params.n)
{
    params_.validate();
    const size_t n = params_.n;
    const size_t levels = params_.max_level + 1;
    const size_t k_special = params_.special_primes();

    auto q_primes = generate_ntt_primes(params_.word_size,
                                        static_cast<int>(levels), n);
    auto p_primes = generate_ntt_primes(
        params_.word_size, static_cast<int>(k_special), n, q_primes);
    q_basis_ = RnsBasis(q_primes);
    p_basis_ = RnsBasis(p_primes);

    std::vector<Modulus> all_mods = q_basis_.mods();
    for (const auto &m : p_basis_.mods())
        all_mods.push_back(m);
    tables_ = NttTableSet(n, all_mods);

    std::vector<u64> avoid = q_primes;
    avoid.insert(avoid.end(), p_primes.begin(), p_primes.end());

    if (params_.klss.enabled()) {
        alpha_prime_ = params_.klss_alpha_prime();
        auto t_primes = generate_ntt_primes(params_.klss.word_size_t,
                                            static_cast<int>(alpha_prime_),
                                            n, avoid);
        t_basis_ = RnsBasis(t_primes);
        t_tables_ = NttTableSet(n, t_basis_.mods());
        avoid.insert(avoid.end(), t_primes.begin(), t_primes.end());
        klss_key_partition_ =
            make_partition(pq_ordered_size(), params_.klss.alpha_tilde);
    }

    decode_basis_ = RnsBasis(generate_decode_primes(2, avoid));

    precomp_ = std::make_unique<KeySwitchPrecomp>(*this);
}

CkksContext::~CkksContext() = default;

const RnsBasis &
CkksContext::t_basis() const
{
    NEO_CHECK(params_.klss.enabled(), "KLSS not configured");
    return t_basis_;
}

const NttTableSet &
CkksContext::t_tables() const
{
    NEO_CHECK(params_.klss.enabled(), "KLSS not configured");
    return t_tables_;
}

std::vector<Modulus>
CkksContext::active_mods(size_t level) const
{
    NEO_CHECK(level <= params_.max_level, "level out of range");
    std::vector<Modulus> mods;
    mods.reserve(level + 1);
    for (size_t i = 0; i <= level; ++i)
        mods.push_back(q_basis_[i]);
    return mods;
}

std::vector<Modulus>
CkksContext::extended_mods(size_t level) const
{
    auto mods = active_mods(level);
    for (const auto &m : p_basis_.mods())
        mods.push_back(m);
    return mods;
}

std::vector<DigitGroup>
CkksContext::digit_partition(size_t level) const
{
    return make_partition(level + 1, params_.alpha());
}

const std::vector<DigitGroup> &
CkksContext::klss_key_partition() const
{
    NEO_CHECK(params_.klss.enabled(), "KLSS not configured");
    return klss_key_partition_;
}

const Modulus &
CkksContext::pq_ordered_mod(size_t idx) const
{
    const size_t k_special = p_basis_.size();
    NEO_ASSERT(idx < pq_ordered_size(), "index out of range");
    return idx < k_special ? p_basis_[idx] : q_basis_[idx - k_special];
}

Plaintext
CkksContext::encode(const std::vector<Complex> &slots, size_t level,
                    double scale) const
{
    const double s = scale > 0 ? scale : params_.delta();
    auto coeffs = encoder_.encode(slots, s);
    Plaintext pt{poly_from_signed(coeffs, active_mods(level)), s};
    tables_.to_eval(pt.poly);
    return pt;
}

std::vector<Complex>
CkksContext::decode(const Plaintext &pt) const
{
    RnsPoly poly = pt.poly;
    tables_.to_coeff(poly);
    return encoder_.decode(lift_centered(poly), pt.scale);
}

std::vector<double>
CkksContext::lift_centered(const RnsPoly &poly) const
{
    NEO_CHECK(poly.form() == PolyForm::coeff,
              "lift_centered requires coefficient form");
    const size_t n = poly.n();
    RnsBasis src(
        [&] {
            std::vector<u64> v(poly.limbs());
            for (size_t i = 0; i < poly.limbs(); ++i)
                v[i] = poly.modulus(i).value();
            return v;
        }());
    BaseConverter conv(src, decode_basis_);
    std::vector<u64> out(2 * n);
    conv.convert_exact(poly.data(), n, out.data());

    // CRT-combine the two 60-bit residues into a centered i128.
    const u64 d0 = decode_basis_[0].value();
    const u64 d1 = decode_basis_[1].value();
    const u128 prod = static_cast<u128>(d0) * d1;
    const u64 d0_inv_mod_d1 = decode_basis_[1].inv(d0 % d1);
    std::vector<double> vals(n);
    for (size_t l = 0; l < n; ++l) {
        u64 r0 = out[l];
        u64 r1 = out[n + l];
        // x = r0 + d0 * ((r1 - r0) * d0^{-1} mod d1)
        u64 diff = sub_mod(r1 % d1, r0 % d1, d1);
        u64 m = mul_mod(diff, d0_inv_mod_d1, d1);
        u128 x = static_cast<u128>(r0) + static_cast<u128>(d0) * m;
        i128 centered = x > prod / 2
                            ? static_cast<i128>(x) - static_cast<i128>(prod)
                            : static_cast<i128>(x);
        vals[l] = static_cast<double>(centered);
    }
    return vals;
}

RnsPoly
CkksContext::poly_from_signed(const std::vector<i64> &coeffs,
                              const std::vector<Modulus> &mods) const
{
    NEO_CHECK(coeffs.size() == params_.n, "coefficient count mismatch");
    RnsPoly poly(params_.n, mods, PolyForm::coeff);
    for (size_t i = 0; i < mods.size(); ++i) {
        // |x| mod q is a Shoup product by 1, exact for any u64, and a
        // negative x negates it: the residue from_centered returns,
        // without a division. |x| is formed unsigned, so INT64_MIN is
        // safe.
        const u64 q = mods[i].value();
        const u64 one_shoup = shoup_precompute(1, q);
        u64 *dst = poly.limb(i);
        for (size_t l = 0; l < coeffs.size(); ++l) {
            const i64 x = coeffs[l];
            const u64 mag = x < 0 ? 0 - static_cast<u64>(x)
                                  : static_cast<u64>(x);
            const u64 r = mul_shoup(mag, 1, one_shoup, q);
            dst[l] = x < 0 ? sub_mod(0, r, q) : r;
        }
    }
    return poly;
}

} // namespace neo::ckks
