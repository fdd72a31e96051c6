#include "ckks/serialize.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"

namespace neo::ckks {

namespace {

constexpr u32 kPolyMagic = 0x4e504f4c;   // "NPOL"
constexpr u32 kCtMagic = 0x4e435458;     // "NCTX"
constexpr u32 kSkMagic = 0x4e53454b;     // "NSEK"
constexpr u32 kEvkMagic = 0x4e45564b;    // "NEVK"
constexpr u32 kVersion = 1;

template <typename T>
void
write_pod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
read_pod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    NEO_CHECK(is.good(), "truncated stream");
    return v;
}

void
expect_header(std::istream &is, u32 magic)
{
    NEO_CHECK(read_pod<u32>(is) == magic, "bad magic");
    NEO_CHECK(read_pod<u32>(is) == kVersion, "unsupported version");
}

} // namespace

void
save(std::ostream &os, const RnsPoly &poly)
{
    write_pod(os, kPolyMagic);
    write_pod(os, kVersion);
    write_pod<u64>(os, poly.n());
    write_pod<u64>(os, poly.limbs());
    write_pod<u8>(os, poly.form() == PolyForm::eval ? 1 : 0);
    for (size_t i = 0; i < poly.limbs(); ++i)
        write_pod<u64>(os, poly.modulus(i).value());
    os.write(reinterpret_cast<const char *>(poly.data()),
             static_cast<std::streamsize>(poly.limbs() * poly.n() *
                                          sizeof(u64)));
}

RnsPoly
load_poly(std::istream &is)
{
    expect_header(is, kPolyMagic);
    const u64 n = read_pod<u64>(is);
    const u64 limbs = read_pod<u64>(is);
    NEO_CHECK(n >= 4 && n <= (1ULL << 20) && is_pow2(n), "bad degree");
    NEO_CHECK(limbs >= 1 && limbs <= 4096, "bad limb count");
    const u8 form = read_pod<u8>(is);
    NEO_CHECK(form <= 1, "bad form");
    std::vector<Modulus> mods;
    mods.reserve(limbs);
    for (u64 i = 0; i < limbs; ++i)
        mods.emplace_back(read_pod<u64>(is));
    // The header may promise far more words than the stream holds (up
    // to 2^32 of them). Read the payload in bounded chunks, growing the
    // buffer only as data arrives, so a forged header fails "truncated"
    // after at most one chunk instead of allocating its full size.
    constexpr size_t kChunkWords = size_t{1} << 16;
    const size_t total = n * limbs;
    std::vector<u64> payload;
    for (size_t done = 0; done < total;) {
        const size_t take = std::min(kChunkWords, total - done);
        payload.resize(done + take);
        is.read(reinterpret_cast<char *>(payload.data() + done),
                static_cast<std::streamsize>(take * sizeof(u64)));
        NEO_CHECK(is.good(), "truncated polynomial data");
        done += take;
    }
    RnsPoly poly(n, mods,
                 form ? PolyForm::eval : PolyForm::coeff);
    std::copy(payload.begin(), payload.end(), poly.data());
    for (size_t i = 0; i < poly.limbs(); ++i) {
        const u64 q = poly.modulus(i).value();
        const u64 *limb = poly.limb(i);
        for (size_t l = 0; l < n; ++l)
            NEO_CHECK(limb[l] < q, "residue out of range");
    }
    return poly;
}

void
save(std::ostream &os, const Ciphertext &ct)
{
    write_pod(os, kCtMagic);
    write_pod(os, kVersion);
    write_pod<u64>(os, ct.level);
    write_pod<double>(os, ct.scale);
    save(os, ct.c0);
    save(os, ct.c1);
}

Ciphertext
load_ciphertext(std::istream &is)
{
    expect_header(is, kCtMagic);
    Ciphertext ct;
    ct.level = read_pod<u64>(is);
    ct.scale = read_pod<double>(is);
    NEO_CHECK(std::isfinite(ct.scale) && ct.scale > 0, "bad scale");
    ct.c0 = load_poly(is);
    ct.c1 = load_poly(is);
    NEO_CHECK(ct.c0.same_shape(ct.c1), "component shape mismatch");
    NEO_CHECK(ct.c0.form() == PolyForm::eval &&
                  ct.c1.form() == PolyForm::eval,
              "ciphertext components must be in eval form");
    NEO_CHECK(ct.c0.limbs() == ct.level + 1, "level/limb mismatch");
    return ct;
}

void
save(std::ostream &os, const SecretKey &sk)
{
    write_pod(os, kSkMagic);
    write_pod(os, kVersion);
    write_pod<u64>(os, sk.coeffs.size());
    os.write(reinterpret_cast<const char *>(sk.coeffs.data()),
             static_cast<std::streamsize>(sk.coeffs.size() *
                                          sizeof(i64)));
}

SecretKey
load_secret_key(std::istream &is)
{
    expect_header(is, kSkMagic);
    const u64 n = read_pod<u64>(is);
    NEO_CHECK(n >= 4 && n <= (1ULL << 20) && is_pow2(n), "bad degree");
    SecretKey sk;
    sk.coeffs.resize(n);
    is.read(reinterpret_cast<char *>(sk.coeffs.data()),
            static_cast<std::streamsize>(n * sizeof(i64)));
    NEO_CHECK(is.good(), "truncated key data");
    for (i64 c : sk.coeffs)
        NEO_CHECK(c >= -1 && c <= 1, "non-ternary secret");
    return sk;
}

void
save(std::ostream &os, const EvalKey &evk)
{
    write_pod(os, kEvkMagic);
    write_pod(os, kVersion);
    write_pod<u64>(os, evk.parts.size());
    for (const auto &part : evk.parts) {
        save(os, part[0]);
        save(os, part[1]);
    }
}

EvalKey
load_eval_key(std::istream &is)
{
    expect_header(is, kEvkMagic);
    const u64 digits = read_pod<u64>(is);
    NEO_CHECK(digits >= 1 && digits <= 256, "bad digit count");
    EvalKey evk;
    evk.parts.reserve(digits);
    for (u64 j = 0; j < digits; ++j) {
        RnsPoly b = load_poly(is);
        RnsPoly a = load_poly(is);
        NEO_CHECK(b.same_shape(a), "key component mismatch");
        NEO_CHECK(b.form() == PolyForm::eval && a.form() == PolyForm::eval,
                  "key parts must be in eval form");
        evk.parts.push_back({std::move(b), std::move(a)});
    }
    return evk;
}

void
validate_against(const CkksContext &ctx, const RnsPoly &poly)
{
    NEO_CHECK(poly.n() == ctx.n(), "ring degree mismatch");
    const size_t q_count = ctx.q_basis().size();
    for (size_t i = 0; i < poly.limbs(); ++i) {
        const u64 v = poly.modulus(i).value();
        u64 expect;
        if (i < q_count) {
            expect = ctx.q_basis()[i].value();
        } else {
            NEO_CHECK(i - q_count < ctx.p_basis().size(),
                      "too many limbs for this context");
            expect = ctx.p_basis()[i - q_count].value();
        }
        NEO_CHECK(v == expect, "modulus chain mismatch");
    }
}

} // namespace neo::ckks
