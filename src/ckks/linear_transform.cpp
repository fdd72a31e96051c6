#include "ckks/linear_transform.h"

#include "ckks/hoisting.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace neo::ckks {

LinearTransform::LinearTransform(std::vector<Complex> matrix, size_t slots)
    : slots_(slots)
{
    NEO_CHECK(matrix.size() == slots * slots, "matrix shape mismatch");
    giant_ = 1;
    while (giant_ * giant_ < slots_)
        giant_ <<= 1;
    // Entry (i, j) lies on diagonal (j − i) mod slots. An exact zero
    // cannot pass the magnitude test, so it skips std::abs.
    std::vector<char> nonzero(slots_, 0);
    for (size_t i = 0; i < slots_; ++i) {
        for (size_t j = 0; j < slots_; ++j) {
            const Complex x = matrix[i * slots_ + j];
            const size_t d = j >= i ? j - i : j + slots_ - i;
            if (!nonzero[d] && x != Complex(0, 0) && std::abs(x) > 1e-12)
                nonzero[d] = 1;
        }
    }
    for (size_t d = 0; d < slots_; ++d) {
        if (!nonzero[d])
            continue;
        std::vector<Complex> v(slots_);
        for (size_t i = 0; i < slots_; ++i)
            v[i] = matrix[i * slots_ + (i + d) % slots_];
        diagonals_.push_back({d, std::move(v)});
    }
}

std::vector<Complex>
LinearTransform::diagonal(size_t d) const
{
    for (const Diagonal &diag : diagonals_)
        if (diag.offset == d)
            return diag.values;
    return std::vector<Complex>(slots_);
}

std::vector<i64>
LinearTransform::required_rotations() const
{
    std::vector<i64> rots;
    for (const Diagonal &diag : diagonals_) {
        if (diag.offset != 0)
            rots.push_back(static_cast<i64>(diag.offset));
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
    for (const Diagonal &diag : diagonals_) {
        const size_t d = diag.offset;
        Ciphertext rotated =
            d == 0 ? ct : ev.rotate(ct, static_cast<i64>(d), keys);
        Ciphertext term =
            ev.mul_plain(rotated, ctx.encode(diag.values, ct.level));
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
        for (; next != diagonals_.end() && next->offset < (i + 1) * g;
             ++next) {
            const size_t j = next->offset - i * g;
            const std::vector<Complex> &diag = next->values;
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
    for (const Diagonal &diag : diagonals_)
        for (size_t i = 0; i < slots_; ++i)
            y[i] += diag.values[i] * z[(i + diag.offset) % slots_];
    return y;
}

} // namespace neo::ckks
