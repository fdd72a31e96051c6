#include "ckks/linear_transform.h"

#include "ckks/hoisting.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace neo::ckks {

LinearTransform::LinearTransform(std::vector<Complex> matrix, size_t slots)
    : m_(std::move(matrix)), slots_(slots)
{
    NEO_CHECK(m_.size() == slots * slots, "matrix shape mismatch");
    giant_ = 1;
    while (giant_ * giant_ < slots_)
        giant_ <<= 1;
    for (size_t d = 0; d < slots_; ++d) {
        for (size_t i = 0; i < slots_; ++i) {
            if (std::abs(m_[i * slots_ + (i + d) % slots_]) > 1e-12) {
                diagonals_.push_back(d);
                break;
            }
        }
    }
}

std::vector<Complex>
LinearTransform::diagonal(size_t d) const
{
    std::vector<Complex> v(slots_);
    for (size_t i = 0; i < slots_; ++i)
        v[i] = m_[i * slots_ + (i + d) % slots_];
    return v;
}

std::vector<i64>
LinearTransform::required_rotations() const
{
    std::vector<i64> rots;
    for (size_t d : diagonals_) {
        if (d != 0)
            rots.push_back(static_cast<i64>(d));
    }
    return rots;
}

std::vector<i64>
LinearTransform::required_rotations_bsgs() const
{
    std::vector<i64> rots;
    for (size_t j = 1; j < giant_; ++j)
        rots.push_back(static_cast<i64>(j));
    for (size_t i = 1; i * giant_ < slots_; ++i)
        rots.push_back(static_cast<i64>(i * giant_));
    return rots;
}

Ciphertext
LinearTransform::apply(const Evaluator &ev, const CkksContext &ctx,
                       const Ciphertext &ct, const EvalKeyBundle &keys) const
{
    NEO_CHECK(slots_ == ctx.encoder().slot_count(), "slot count mismatch");
    Ciphertext acc;
    bool first = true;
    for (size_t d : diagonals_) {
        Ciphertext rotated =
            d == 0 ? ct : ev.rotate(ct, static_cast<i64>(d), keys);
        Plaintext diag = ctx.encode(diagonal(d), ct.level);
        Ciphertext term = ev.mul_plain(rotated, diag);
        if (first) {
            acc = std::move(term);
            first = false;
        } else {
            acc = ev.add(acc, term);
        }
    }
    NEO_CHECK(!first, "zero matrix");
    return ev.rescale(acc);
}

Ciphertext
LinearTransform::apply_bsgs(const Evaluator &ev, const CkksContext &ctx,
                            const Ciphertext &ct, const EvalKeyBundle &keys,
                            bool hoist) const
{
    NEO_CHECK(slots_ == ctx.encoder().slot_count(), "slot count mismatch");
    const size_t g = giant_;
    const size_t n1 = ceil_div(slots_, g);

    // Baby rotations, computed once — optionally with a single shared
    // ModUp (Halevi-Shoup hoisting).
    std::vector<Ciphertext> baby(g);
    baby[0] = ct;
    if (hoist && g > 1) {
        std::vector<i64> steps;
        for (size_t j = 1; j < g; ++j)
            steps.push_back(static_cast<i64>(j));
        auto rotated = rotate_hoisted(ct, steps, keys.galois, ctx);
        for (size_t j = 1; j < g; ++j)
            baby[j] = std::move(rotated[j - 1]);
    } else {
        for (size_t j = 1; j < g; ++j)
            baby[j] = ev.rotate(ct, static_cast<i64>(j), keys);
    }

    Ciphertext acc;
    bool first = true;
    auto next = diagonals_.begin();
    for (size_t i = 0; i < n1; ++i) {
        // Inner sum over baby steps with pre-rotated diagonals: the
        // non-zero offsets in [i·g, (i+1)·g).
        Ciphertext inner;
        bool inner_first = true;
        for (; next != diagonals_.end() && *next < (i + 1) * g; ++next) {
            const size_t d = *next;
            const size_t j = d - i * g;
            auto diag = diagonal(d);
            // rot_{-i*g}: diag'[m] = diag[(m - i*g) mod slots].
            std::vector<Complex> shifted(slots_);
            for (size_t mpos = 0; mpos < slots_; ++mpos)
                shifted[mpos] =
                    diag[(mpos + slots_ - (i * g) % slots_) % slots_];
            Ciphertext term = ev.mul_plain(
                baby[j], ctx.encode(shifted, ct.level));
            if (inner_first) {
                inner = std::move(term);
                inner_first = false;
            } else {
                inner = ev.add(inner, term);
            }
        }
        if (inner_first)
            continue;
        if (i != 0)
            inner = ev.rotate(inner, static_cast<i64>(i * g), keys);
        if (first) {
            acc = std::move(inner);
            first = false;
        } else {
            acc = ev.add(acc, inner);
        }
    }
    NEO_CHECK(!first, "zero matrix");
    return ev.rescale(acc);
}

std::vector<Complex>
LinearTransform::apply_plain(const std::vector<Complex> &z) const
{
    NEO_CHECK(z.size() == slots_, "vector size mismatch");
    std::vector<Complex> y(slots_, Complex(0, 0));
    for (size_t i = 0; i < slots_; ++i)
        for (size_t j = 0; j < slots_; ++j)
            y[i] += m_[i * slots_ + j] * z[j];
    return y;
}

} // namespace neo::ckks
