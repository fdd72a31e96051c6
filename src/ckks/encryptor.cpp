#include "ckks/encryptor.h"

#include "common/check.h"

namespace neo::ckks {

Encryptor::Encryptor(const CkksContext &ctx, u64 seed)
    : ctx_(ctx), rng_(seed)
{
}

Ciphertext
Encryptor::encrypt(const Plaintext &pt, const PublicKey &pk)
{
    NEO_CHECK(pt.poly.form() == PolyForm::eval, "plaintext must be eval");
    const size_t level = pt.poly.limbs() - 1;
    const auto mods = ctx_.active_mods(level);

    RnsPoly u = ctx_.poly_from_signed(sample_ternary(ctx_.n(), rng_), mods);
    ctx_.tables().to_eval(u);
    RnsPoly e0 = sample_error(ctx_, mods, rng_);
    RnsPoly e1 = sample_error(ctx_, mods, rng_);

    // pk is at the top level; slice to the plaintext's level.
    auto slice = [&](const RnsPoly &full) {
        RnsPoly out(ctx_.n(), mods, PolyForm::eval);
        for (size_t i = 0; i <= level; ++i)
            std::copy(full.limb(i), full.limb(i) + ctx_.n(), out.limb(i));
        return out;
    };
    RnsPoly c0 = slice(pk.b);
    c0.mul_inplace(u);
    c0.add_inplace(e0);
    c0.add_inplace(pt.poly);
    RnsPoly c1 = slice(pk.a);
    c1.mul_inplace(u);
    c1.add_inplace(e1);
    return Ciphertext{std::move(c0), std::move(c1), level, pt.scale};
}

Ciphertext
Encryptor::encrypt_symmetric(const Plaintext &pt, const SecretKey &sk,
                             const KeyGenerator &keygen)
{
    NEO_CHECK(pt.poly.form() == PolyForm::eval, "plaintext must be eval");
    const size_t level = pt.poly.limbs() - 1;
    const auto mods = ctx_.active_mods(level);
    RnsPoly s = keygen.expand_secret(sk, mods);

    RnsPoly a = sample_uniform(ctx_, mods, rng_);
    RnsPoly c0 = a;
    c0.mul_inplace(s);
    c0.negate_inplace();
    c0.add_inplace(sample_error(ctx_, mods, rng_));
    c0.add_inplace(pt.poly);
    return Ciphertext{std::move(c0), std::move(a), level, pt.scale};
}

SeededCiphertext
Encryptor::encrypt_symmetric_seeded(const Plaintext &pt, const SecretKey &sk,
                                    const KeyGenerator &keygen, u64 a_seed)
{
    NEO_CHECK(pt.poly.form() == PolyForm::eval, "plaintext must be eval");
    const size_t level = pt.poly.limbs() - 1;
    const auto mods = ctx_.active_mods(level);
    RnsPoly s = keygen.expand_secret(sk, mods);
    Rng a_rng(a_seed);
    RnsPoly c0 = sample_uniform(ctx_, mods, a_rng);
    c0.mul_inplace(s);
    c0.negate_inplace();
    c0.add_inplace(sample_error(ctx_, mods, rng_));
    c0.add_inplace(pt.poly);
    return SeededCiphertext{std::move(c0), a_seed, level, pt.scale};
}

Ciphertext
Encryptor::expand(const SeededCiphertext &sct) const
{
    Rng a_rng(sct.seed);
    return Ciphertext{sct.c0, sample_uniform(ctx_, sct.c0.mods(), a_rng),
                      sct.level, sct.scale};
}

Decryptor::Decryptor(const CkksContext &ctx, const SecretKey &sk,
                     const KeyGenerator &keygen)
    : ctx_(ctx), sk_(sk), keygen_(keygen)
{
}

Plaintext
Decryptor::decrypt(const Ciphertext &ct) const
{
    const auto mods = ctx_.active_mods(ct.level);
    RnsPoly s = keygen_.expand_secret(sk_, mods);
    RnsPoly m = ct.c1;
    m.mul_inplace(s);
    m.add_inplace(ct.c0);
    return Plaintext{std::move(m), ct.scale};
}

std::vector<Complex>
Decryptor::decrypt_decode(const Ciphertext &ct) const
{
    return ctx_.decode(decrypt(ct));
}

} // namespace neo::ckks
