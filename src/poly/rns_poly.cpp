#include "poly/rns_poly.h"

#include "common/check.h"
#include "common/thread_pool.h"

namespace neo {

RnsPoly::RnsPoly(size_t n, std::vector<Modulus> mods, PolyForm form)
    : n_(n), mods_(std::move(mods)), data_(n * mods_.size(), 0), form_(form)
{
    NEO_CHECK(is_pow2(n), "degree must be a power of two");
}

bool
RnsPoly::same_shape(const RnsPoly &o) const
{
    if (n_ != o.n_ || mods_.size() != o.mods_.size())
        return false;
    for (size_t i = 0; i < mods_.size(); ++i) {
        if (mods_[i].value() != o.mods_[i].value())
            return false;
    }
    return true;
}

void
RnsPoly::add_inplace(const RnsPoly &o)
{
    NEO_ASSERT(same_shape(o) && form_ == o.form_, "shape/form mismatch");
    for (size_t i = 0; i < mods_.size(); ++i) {
        const u64 q = mods_[i].value();
        u64 *a = limb(i);
        const u64 *b = o.limb(i);
        for (size_t l = 0; l < n_; ++l)
            a[l] = add_mod(a[l], b[l], q);
    }
}

void
RnsPoly::sub_inplace(const RnsPoly &o)
{
    NEO_ASSERT(same_shape(o) && form_ == o.form_, "shape/form mismatch");
    for (size_t i = 0; i < mods_.size(); ++i) {
        const u64 q = mods_[i].value();
        u64 *a = limb(i);
        const u64 *b = o.limb(i);
        for (size_t l = 0; l < n_; ++l)
            a[l] = sub_mod(a[l], b[l], q);
    }
}

void
RnsPoly::negate_inplace()
{
    for (size_t i = 0; i < mods_.size(); ++i) {
        const u64 q = mods_[i].value();
        u64 *a = limb(i);
        for (size_t l = 0; l < n_; ++l)
            a[l] = a[l] == 0 ? 0 : q - a[l];
    }
}

void
RnsPoly::mul_inplace(const RnsPoly &o)
{
    NEO_ASSERT(same_shape(o), "shape mismatch");
    NEO_ASSERT(form_ == PolyForm::eval && o.form_ == PolyForm::eval,
               "point-wise multiply requires eval form");
    for (size_t i = 0; i < mods_.size(); ++i) {
        const Modulus &m = mods_[i];
        u64 *a = limb(i);
        const u64 *b = o.limb(i);
        for (size_t l = 0; l < n_; ++l)
            a[l] = m.mul(a[l], b[l]);
    }
}

void
add_product_limb(u64 *acc, const u64 *x, const u64 *y, size_t n,
                 const Modulus &q)
{
    for (size_t l = 0; l < n; ++l)
        acc[l] = q.add(acc[l], q.mul(x[l], y[l]));
}

void
RnsPoly::add_product(const RnsPoly &b, const RnsPoly &c)
{
    NEO_ASSERT(same_shape(b) && same_shape(c), "shape mismatch");
    NEO_ASSERT(form_ == PolyForm::eval && b.form_ == PolyForm::eval &&
                   c.form_ == PolyForm::eval,
               "add_product requires eval form");
    for (size_t i = 0; i < mods_.size(); ++i)
        add_product_limb(limb(i), b.limb(i), c.limb(i), n_, mods_[i]);
}

void
RnsPoly::drop_limbs_to(size_t count)
{
    NEO_ASSERT(count <= mods_.size(), "cannot grow via drop_limbs_to");
    mods_.resize(count);
    data_.resize(count * n_);
}

NttTableSet::NttTableSet(size_t n, const std::vector<Modulus> &mods)
{
    tables_.reserve(mods.size());
    for (const auto &m : mods)
        tables_.emplace_back(n, m);
}

const NttTables &
NttTableSet::for_modulus(const Modulus &q) const
{
    for (const auto &t : tables_) {
        if (t.modulus().value() == q.value())
            return t;
    }
    NEO_CHECK(false, "no NTT tables for modulus");
    return tables_.front();
}

void
NttTableSet::transform(u64 *rows, size_t n, std::span<const Modulus> mods,
                       PolyForm to) const
{
    std::vector<const NttTables *> tables(mods.size());
    for (size_t i = 0; i < mods.size(); ++i) {
        tables[i] = &for_modulus(mods[i]);
        NEO_CHECK(tables[i]->n() == n, "NTT tables for another degree");
    }
    const auto fn =
        to == PolyForm::eval ? &NttTables::forward : &NttTables::inverse;
    parallel_for(
        0, mods.size(),
        [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i)
                (tables[i]->*fn)(rows + i * n);
        },
        1);
}

namespace {

/// Transform every limb of @p p into form @p to: the whole-poly case of
/// NttTableSet::transform.
void
transform_limbs(const NttTableSet &set, RnsPoly &p, PolyForm to)
{
    if (p.form() == to)
        return;
    set.transform(p.data(), p.n(), p.mods(), to);
    p.set_form(to);
}

} // namespace

void
NttTableSet::to_eval(RnsPoly &p) const
{
    transform_limbs(*this, p, PolyForm::eval);
}

void
NttTableSet::to_coeff(RnsPoly &p) const
{
    transform_limbs(*this, p, PolyForm::coeff);
}

void
automorphism_coeff(const u64 *in, u64 *out, size_t n, u64 g,
                   const Modulus &q)
{
    NEO_CHECK(g % 2 == 1, "Galois element must be odd");
    // 2n divides 2^64, so the wrapped product reduces by a mask.
    const u64 mask = 2 * n - 1;
    for (size_t i = 0; i < n; ++i) {
        const u64 j = (i * g) & mask;
        if (j < n) {
            out[j] = in[i];
        } else {
            out[j - n] = in[i] == 0 ? 0 : q.value() - in[i];
        }
    }
}

namespace {

/**
 * Eval-form slot map of X -> X^g: out[k] = in[map[k]]. Slot k holds
 * the evaluation at ψ^{2k+1}; the automorphism sends it to the
 * evaluation at ψ^{(2k+1)g mod 2n}, slot ((2k+1)g mod 2n − 1)/2.
 */
std::vector<size_t>
eval_slot_map(size_t n, u64 g)
{
    NEO_CHECK(g % 2 == 1, "Galois element must be odd");
    const u64 mask = 2 * n - 1;
    std::vector<size_t> map(n);
    for (size_t k = 0; k < n; ++k) {
        const u64 e = ((2 * k + 1) * g) & mask;
        map[k] = static_cast<size_t>((e - 1) / 2);
    }
    return map;
}

void
gather(const u64 *in, u64 *out, const std::vector<size_t> &map)
{
    for (size_t k = 0; k < map.size(); ++k)
        out[k] = in[map[k]];
}

} // namespace

void
automorphism_eval(const u64 *in, u64 *out, size_t n, u64 g,
                  const Modulus &)
{
    gather(in, out, eval_slot_map(n, g));
}

RnsPoly
automorphism(const RnsPoly &p, u64 g)
{
    RnsPoly out(p.n(), p.mods(), p.form());
    if (p.form() == PolyForm::coeff) {
        for (size_t i = 0; i < p.limbs(); ++i)
            automorphism_coeff(p.limb(i), out.limb(i), p.n(), g,
                               p.modulus(i));
        return out;
    }
    const std::vector<size_t> map = eval_slot_map(p.n(), g);
    for (size_t i = 0; i < p.limbs(); ++i)
        gather(p.limb(i), out.limb(i), map);
    return out;
}

} // namespace neo
