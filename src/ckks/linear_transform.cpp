#include "ckks/linear_transform.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/math_util.h"

namespace neo::ckks {

namespace {

using Diagonal = LinearTransform::Diagonal;

/// The diagonals of a row-major slots×slots matrix that hold an entry
/// of magnitude above 1e-12, found in one row-major pass.
std::vector<Diagonal>
dense_diagonals(const std::vector<Complex> &matrix, size_t slots)
{
    NEO_CHECK(matrix.size() == slots * slots, "matrix shape mismatch");
    // Entry (i, j) lies on diagonal (j − i) mod slots. An exact zero
    // cannot pass the magnitude test, so it skips std::abs.
    std::vector<char> nonzero(slots, 0);
    for (size_t i = 0; i < slots; ++i) {
        for (size_t j = 0; j < slots; ++j) {
            const Complex x = matrix[i * slots + j];
            const size_t d = j >= i ? j - i : j + slots - i;
            if (!nonzero[d] && x != Complex(0, 0) && std::abs(x) > 1e-12)
                nonzero[d] = 1;
        }
    }
    std::vector<Diagonal> diagonals;
    for (size_t d = 0; d < slots; ++d) {
        if (!nonzero[d])
            continue;
        std::vector<Complex> v(slots);
        for (size_t i = 0; i < slots; ++i)
            v[i] = matrix[i * slots + (i + d) % slots];
        diagonals.push_back({d, std::move(v)});
    }
    return diagonals;
}

/**
 * The giant step g apply() takes for kept diagonals at @p offsets, and
 * the non-zero steps it rotates by: the baby steps d mod g and the
 * giant steps d − d mod g, ascending. g is the power of two ≤ slots
 * with the fewest steps; ties go to the larger g. A full matrix gets
 * the smallest g with g² ≥ slots; a transform that no split makes
 * cheaper gets g = slots, one baby rotation per diagonal.
 */
std::pair<size_t, std::vector<i64>>
bsgs_split(const std::vector<size_t> &offsets, size_t slots)
{
    NEO_CHECK(is_pow2(slots), "slot count must be a power of two");
    for (size_t d : offsets)
        NEO_CHECK(d < slots, "diagonal offset range");
    std::pair<size_t, std::vector<i64>> best;
    for (size_t g = 1; g <= slots; g *= 2) {
        std::vector<char> used(slots, 0);
        for (size_t d : offsets) {
            used[d % g] = 1;
            used[d - d % g] = 1;
        }
        std::vector<i64> steps;
        for (size_t s = 1; s < slots; ++s)
            if (used[s])
                steps.push_back(static_cast<i64>(s));
        if (g == 1 || steps.size() <= best.second.size())
            best = {g, std::move(steps)};
    }
    return best;
}

std::vector<size_t>
offsets_of(const std::vector<Diagonal> &diagonals)
{
    std::vector<size_t> offsets;
    for (const Diagonal &diag : diagonals)
        offsets.push_back(diag.offset);
    return offsets;
}

} // namespace

LinearTransform::LinearTransform(std::vector<Diagonal> diagonals,
                                 size_t slots)
    : slots_(slots), diagonals_(std::move(diagonals))
{
    for (size_t k = 0; k < diagonals_.size(); ++k) {
        NEO_CHECK(k == 0 || diagonals_[k - 1].offset < diagonals_[k].offset,
                  "diagonal offsets must ascend");
        NEO_CHECK(diagonals_[k].values.size() == slots_,
                  "diagonal length mismatch");
    }
    giant_ = bsgs_split(offsets_of(diagonals_), slots_).first;
}

LinearTransform::LinearTransform(std::vector<Complex> matrix, size_t slots)
    : LinearTransform(dense_diagonals(matrix, slots), slots)
{
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
    return bsgs_split(offsets_of(diagonals_), slots_).second;
}

Ciphertext
LinearTransform::apply(const Evaluator &ev, const CkksContext &ctx,
                       const Ciphertext &ct, const EvalKeyBundle &keys) const
{
    NEO_CHECK(slots_ == ctx.encoder().slot_count(), "slot count mismatch");
    const size_t g = giant_;

    // Baby rotations, each taken once, when a kept offset first needs
    // it.
    std::vector<std::optional<Ciphertext>> baby(g);
    auto baby_step = [&](size_t j) -> const Ciphertext & {
        if (j == 0)
            return ct;
        if (!baby[j])
            baby[j] = ev.rotate(ct, static_cast<i64>(j), keys);
        return *baby[j];
    };

    Ciphertext acc;
    bool first = true;
    auto next = diagonals_.begin();
    for (size_t giant = 0; giant < slots_; giant += g) {
        // Inner sum over baby steps with pre-rotated diagonals: the
        // kept offsets in [giant, giant + g).
        Ciphertext inner;
        bool inner_first = true;
        for (; next != diagonals_.end() && next->offset < giant + g;
             ++next) {
            // rot_{-giant}: diag'[m] = diag[(m - giant) mod slots].
            std::vector<Complex> shifted(slots_);
            for (size_t m = 0; m < slots_; ++m)
                shifted[m] = next->values[(m + slots_ - giant) % slots_];
            Ciphertext term = ev.mul_plain(baby_step(next->offset - giant),
                                           ctx.encode(shifted, ct.level));
            if (inner_first) {
                inner = std::move(term);
                inner_first = false;
            } else {
                inner = ev.add(inner, term);
            }
        }
        if (inner_first)
            continue;
        if (giant != 0)
            inner = ev.rotate(inner, static_cast<i64>(giant), keys);
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
