#include "ckks/poly_eval.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace neo::ckks {

namespace {

/// Coefficients below this magnitude are dropped.
constexpr double kZero = 1e-13;

/// Index of the last coefficient of magnitude ≥ kZero, or 0.
size_t
effective_degree(std::span<const double> p)
{
    size_t d = p.empty() ? 0 : p.size() - 1;
    while (d > 0 && std::abs(p[d]) < kZero)
        --d;
    return d;
}

/// Levels T_k stands below x under the product recurrence: ⌈log2 k⌉.
size_t
basis_depth(size_t k)
{
    return static_cast<size_t>(std::bit_width(k - 1));
}

/// Leaves hold T_j for j below 2^l, l = max(1, ⌊m/2⌋), m = ⌈log2(d+1)⌉;
/// the giant steps are the powers of two from 2^l to 2^(m−1).
size_t
baby_bound(size_t d)
{
    return size_t{1} << std::max(1, static_cast<int>(std::bit_width(d)) / 2);
}

/// p = q·T_n + r for deg p = p.size() − 1 in [n, 2n): q_0 = c_n,
/// q_j = 2c_{n+j}, and r = c_0…c_{n−1} with r_{n−j} −= c_{n+j}, since
/// T_n·T_j = (T_{n+j} + T_{n−j})/2.
std::pair<std::vector<double>, std::vector<double>>
divide(std::span<const double> p, size_t n)
{
    const size_t d = p.size() - 1;
    const auto low = p.first(n);
    std::vector<double> q(d - n + 1);
    std::vector<double> r(low.begin(), low.end());
    q[0] = p[n];
    for (size_t j = 1; j <= d - n; ++j) {
        q[j] = 2 * p[n + j];
        r[n - j] -= p[n + j];
    }
    return {std::move(q), std::move(r)};
}

/// Levels evaluating Σ p_k T_k (deg p ≥ 1) consumes, with leaves below
/// @p baby: PolyEvaluator::chebyshev_node's recursion, dry.
size_t
node_depth(std::span<const double> p, size_t baby)
{
    const size_t d = effective_degree(p);
    if (d < baby) {
        // A leaf: one rescale below its deepest term.
        size_t deepest = 0;
        for (size_t j = 1; j <= d; ++j)
            if (std::abs(p[j]) >= kZero)
                deepest = std::max(deepest, basis_depth(j));
        return deepest + 1;
    }
    const size_t n = std::bit_floor(d);
    const auto [q, r] = divide(p.first(d + 1), n);
    // A constant q multiplies T_n in a leaf of its own.
    const size_t q_depth = effective_degree(q) > 0 ? node_depth(q, baby) : 0;
    size_t depth = std::max(q_depth, basis_depth(n)) + 1;
    if (effective_degree(r) > 0)
        depth = std::max(depth, node_depth(r, baby));
    return depth;
}

} // namespace

Ciphertext
PolyEvaluator::leaf(std::span<const Term> terms, double constant,
                    double scale, size_t level) const
{
    NEO_CHECK(!terms.empty(), "polynomial has no non-constant terms");
    // Each term's integer puts it at scale·q_level, so the one rescale
    // leaves exactly `scale`.
    const double target =
        scale * static_cast<double>(ctx_.q_basis()[level].value());
    Ciphertext acc;
    for (size_t i = 0; i < terms.size(); ++i) {
        const auto &[c, t] = terms[i];
        const double k = std::round(c * target / t->scale);
        NEO_CHECK(std::abs(k) < 0x1p63, "leaf constant does not fit an i64");
        Ciphertext term = ev_.mul_integer(ev_.mod_switch_to(*t, level),
                                          static_cast<i64>(k));
        term.scale = target;
        acc = i == 0 ? std::move(term) : ev_.add(acc, term);
    }
    Ciphertext out = ev_.rescale(acc);
    return std::abs(constant) >= kZero ? ev_.add_constant(out, constant)
                                       : out;
}

const Ciphertext &
PolyEvaluator::chebyshev_basis(size_t k, Basis &t) const
{
    if (auto it = t.find(k); it != t.end())
        return it->second;
    // T_{a+b} = 2·T_a·T_b − T_{a−b} with a − b ∈ {0, 1}.
    const size_t a = (k + 1) / 2;
    const size_t b = k / 2;
    const Ciphertext &ta = chebyshev_basis(a, t);
    const Ciphertext &tb = chebyshev_basis(b, t);
    const size_t level = std::min(ta.level, tb.level);
    Ciphertext p = ev_.mul(ev_.mod_switch_to(ta, level),
                           ev_.mod_switch_to(tb, level), keys_);
    p = ev_.add(p, p);
    if (a != b) {
        // T_1, brought to the product's scale by an integer, shares
        // the product's rescale.
        const Ciphertext &t1 = t.at(1);
        Ciphertext x = ev_.mul_integer(ev_.mod_switch_to(t1, level),
                                       std::llround(p.scale / t1.scale));
        x.scale = p.scale;
        p = ev_.sub(p, x);
    }
    p = ev_.rescale(p);
    if (a == b)
        p = ev_.add_constant(p, -1.0); // T_0 = 1
    return t.emplace(k, std::move(p)).first->second;
}

Ciphertext
PolyEvaluator::chebyshev_node(std::span<const double> p, size_t baby,
                              double scale, size_t level, Basis &t) const
{
    const size_t d = effective_degree(p);
    if (d < baby) {
        std::vector<Term> terms;
        for (size_t j = 1; j <= d; ++j)
            if (std::abs(p[j]) >= kZero)
                terms.emplace_back(p[j], &chebyshev_basis(j, t));
        return leaf(terms, p[0], scale, level + 1);
    }
    const size_t n = std::bit_floor(d);
    const auto [q, r] = divide(p.first(d + 1), n);
    const Ciphertext &tn = chebyshev_basis(n, t);
    Ciphertext out;
    if (effective_degree(q) == 0) {
        const Term term{q[0], &tn};
        out = leaf({&term, 1}, 0, scale, level + 1);
    } else {
        // q one level up, on the scale the product's rescale takes
        // exactly onto `scale`.
        const size_t up = level + 1;
        const double q_up = static_cast<double>(ctx_.q_basis()[up].value());
        const Ciphertext qc =
            chebyshev_node(q, baby, scale * q_up / tn.scale, up, t);
        out = ev_.rescale(ev_.mul(qc, ev_.mod_switch_to(tn, up), keys_));
    }
    if (effective_degree(r) > 0)
        return ev_.add(out, chebyshev_node(r, baby, scale, level, t));
    return std::abs(r[0]) >= kZero ? ev_.add_constant(out, r[0]) : out;
}

size_t
PolyEvaluator::chebyshev_depth(const std::vector<double> &coeffs)
{
    const size_t d = effective_degree(coeffs);
    NEO_CHECK(d >= 1, "need degree >= 1");
    return node_depth(coeffs, baby_bound(d));
}

Ciphertext
PolyEvaluator::evaluate_chebyshev(const Ciphertext &x,
                                  const std::vector<double> &coeffs) const
{
    const size_t depth = chebyshev_depth(coeffs);
    NEO_CHECK(x.level >= depth, "not enough levels for the polynomial");
    Basis t;
    t.emplace(1, x);
    return chebyshev_node(coeffs, baby_bound(effective_degree(coeffs)),
                          x.scale, x.level - depth, t);
}

std::vector<double>
PolyEvaluator::chebyshev_fit(double (*f)(double, void *), void *arg,
                             int degree)
{
    const int m = degree + 1;
    std::vector<double> fx(m);
    for (int k = 0; k < m; ++k) {
        double theta = M_PI * (k + 0.5) / m;
        fx[k] = f(std::cos(theta), arg);
    }
    std::vector<double> c(m);
    for (int j = 0; j < m; ++j) {
        double s = 0;
        for (int k = 0; k < m; ++k)
            s += fx[k] * std::cos(M_PI * j * (k + 0.5) / m);
        c[j] = (j == 0 ? 1.0 : 2.0) * s / m;
    }
    return c;
}

} // namespace neo::ckks
