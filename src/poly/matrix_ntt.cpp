#include "poly/matrix_ntt.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "obs/obs.h"

namespace neo {

MatrixNtt::MatrixNtt(const NttTables &tables, size_t radix)
    : tables_(tables), radix_(radix)
{
    NEO_CHECK(is_pow2(radix) && radix >= 2, "radix must be a power of two");
    NEO_CHECK(radix <= tables.n(), "radix exceeds transform length");
    const int log_radix = log2_exact(radix);
    w_fwd_.resize(log_radix + 1);
    w_inv_.resize(log_radix + 1);
    const size_t nfull = tables_.n();
    for (int lg = 1; lg <= log_radix; ++lg) {
        const size_t len = 1ULL << lg;
        const size_t step = nfull / len;
        auto &wf = w_fwd_[lg];
        auto &wi = w_inv_[lg];
        wf.resize(len * len);
        wi.resize(len * len);
        for (size_t c = 0; c < len; ++c) {
            for (size_t k = 0; k < len; ++k) {
                size_t e = (c * k % len) * step;
                wf[c * len + k] = tables_.omega_pow(e);
                wi[c * len + k] = tables_.omega_inv_pow(e);
            }
        }
    }
}

const std::vector<u64> &
MatrixNtt::twiddle_matrix(size_t len, bool inverse) const
{
    const int lg = log2_exact(len);
    return inverse ? w_inv_[lg] : w_fwd_[lg];
}

void
MatrixNtt::cyclic_batch(u64 *a, size_t rows, size_t len, bool inverse,
                        const ModMatMulFn &mm, TopTwist top) const
{
    const Modulus &q = tables_.modulus();
    NEO_ASSERT(top == TopTwist::none || (rows == 1 && len > radix_),
               "fused twists apply to the top-level call only");
    Workspace::Frame frame;
    if (len <= radix_) {
        // Base case: one (rows × len) · (len × len) matrix product.
        const auto &w = twiddle_matrix(len, inverse);
        u64 *out = frame.alloc<u64>(rows * len);
        mm(a, w.data(), out, rows, len, len, q);
        std::copy(out, out + rows * len, a);
        return;
    }

    // One stage over all rows at once: the rows' n1 × n2 matrices sit
    // side by side in one n1 × (rows·n2) operand, so the stage is a
    // single engine call — the batched per-stage schedule the model
    // prices (complexity().matmul_stages calls per transform).
    const size_t n1 = radix_;
    const size_t n2 = len / n1;
    const size_t cols = rows * n2;
    const size_t step = tables_.n() / len; // ω_len = ω_full^step
    const u64 qv = q.value();
    const auto &w1 = twiddle_matrix(n1, inverse);
    const size_t grain = row_chunk_grain(n1, cols);
    u64 *at = frame.alloc<u64>(rows * len);

    // Step 1: gather AT[r][row·n2 + c] = x_row[r + n1·c]. At the fused
    // top level the ψ pre-twist rides in the gather: element x[i] is
    // multiplied by ψ^i exactly as the standalone pass would, just at
    // its new address.
    parallel_for(
        0, n1,
        [&](size_t rb, size_t re) {
            for (size_t r = rb; r < re; ++r) {
                for (size_t row = 0; row < rows; ++row) {
                    const u64 *x = a + row * len + r;
                    u64 *dst = at + r * cols + row * n2;
                    if (top == TopTwist::psi_fwd) {
                        for (size_t c = 0; c < n2; ++c) {
                            const size_t i = r + n1 * c;
                            dst[c] = mul_shoup(x[n1 * c], tables_.psi_pow(i),
                                               tables_.psi_pow_shoup(i), qv);
                        }
                    } else {
                        for (size_t c = 0; c < n2; ++c)
                            dst[c] = x[n1 * c];
                    }
                }
            }
        },
        grain);

    // Step 2: length-n2 transforms of the rows·n1 contiguous AT rows.
    cyclic_batch(at, rows * n1, n2, inverse, mm);

    // Step 3: twisting factors ω_len^{r·k2}, the same for every row
    // (row r = 0 twists by ω^0 = 1). len is a power of two, so the
    // exponent wraps with a mask.
    const auto twist = [&](u64 v, size_t e) {
        return inverse ? mul_shoup(v, tables_.omega_inv_pow(e),
                                   tables_.omega_inv_pow_shoup(e), qv)
                       : mul_shoup(v, tables_.omega_pow(e),
                                   tables_.omega_pow_shoup(e), qv);
    };
    parallel_for(
        1, n1,
        [&](size_t rb, size_t re) {
            for (size_t r = rb; r < re; ++r) {
                for (size_t row = 0; row < rows; ++row) {
                    u64 *v = at + r * cols + row * n2;
                    for (size_t k2 = 0; k2 < n2; ++k2)
                        v[k2] = twist(v[k2], ((r * k2) & (len - 1)) * step);
                }
            }
        },
        grain);

    // Step 4: left-multiply by the n1×n1 twiddle matrix — one GEMM of
    // shape n1 × (rows·n2) × n1 for the whole stage. With one row the
    // product is already X in natural order, so it lands in place.
    u64 *out = rows == 1 ? a : frame.alloc<u64>(rows * len);
    mm(w1.data(), at, out, n1, cols, n1, q);
    if (out == a && top != TopTwist::psi_inv)
        return;

    // Rows land in natural order: X_row[k1·n2 + k2] =
    // OUT[k1][row·n2 + k2]. At the fused inverse top level the
    // n⁻¹·ψ⁻¹ scaling rides in the writeback — same two
    // multiplications per element, same order, as the standalone pass.
    const u64 ninv = tables_.n_inv();
    const u64 ninv_shoup =
        top == TopTwist::psi_inv ? shoup_precompute(ninv, qv) : 0;
    parallel_for(
        0, n1,
        [&](size_t kb, size_t ke) {
            for (size_t k1 = kb; k1 < ke; ++k1) {
                for (size_t row = 0; row < rows; ++row) {
                    const u64 *src = out + k1 * cols + row * n2;
                    u64 *x = a + row * len + k1 * n2;
                    if (top == TopTwist::psi_inv) {
                        for (size_t k2 = 0; k2 < n2; ++k2) {
                            const size_t i = k1 * n2 + k2;
                            const u64 v =
                                mul_shoup(src[k2], ninv, ninv_shoup, qv);
                            x[k2] = mul_shoup(v, tables_.psi_inv_pow(i),
                                              tables_.psi_inv_pow_shoup(i), qv);
                        }
                    } else {
                        std::copy(src, src + n2, x);
                    }
                }
            }
        },
        grain);
}

namespace {

/// Fusion accounting: one tick per standalone twist pass executed
/// ("pass.*") or folded into a neighbour ("fuse.*") — the counters
/// tests/fusion_test.cpp uses to prove fused runs issue fewer
/// element-wise kernels.
void
twist_count(const char *name)
{
    if (auto *r = obs::current())
        r->add(name);
}

} // namespace

void
MatrixNtt::forward(u64 *a, const ModMatMulFn &mm, bool fuse) const
{
    obs::Span span("mntt_fwd", obs::cat::ntt);
    const size_t n = tables_.n();
    const u64 qv = tables_.modulus().value();
    if (fuse && n > radix_) {
        twist_count("fuse.ntt_twist");
        cyclic_batch(a, 1, n, false, mm, TopTwist::psi_fwd);
        return;
    }
    {
        obs::Span twist("ntt_twist", obs::cat::stage);
        twist_count("pass.ntt_twist");
        parallel_for(
            0, n,
            [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i)
                    a[i] = mul_shoup(a[i], tables_.psi_pow(i),
                                     tables_.psi_pow_shoup(i), qv);
            },
            4096);
    }
    cyclic_batch(a, 1, n, false, mm);
}

void
MatrixNtt::inverse(u64 *a, const ModMatMulFn &mm, bool fuse) const
{
    obs::Span span("mntt_inv", obs::cat::ntt);
    const size_t n = tables_.n();
    const u64 qv = tables_.modulus().value();
    if (fuse && n > radix_) {
        twist_count("fuse.ntt_twist");
        cyclic_batch(a, 1, n, true, mm, TopTwist::psi_inv);
        return;
    }
    cyclic_batch(a, 1, n, true, mm);
    obs::Span twist("ntt_twist", obs::cat::stage);
    twist_count("pass.ntt_twist");
    const u64 ninv = tables_.n_inv();
    const u64 ninv_shoup = shoup_precompute(ninv, qv);
    parallel_for(
        0, n,
        [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
                u64 x = mul_shoup(a[i], ninv, ninv_shoup, qv);
                a[i] = mul_shoup(x, tables_.psi_inv_pow(i),
                                 tables_.psi_inv_pow_shoup(i), qv);
            }
        },
        4096);
}

void
MatrixNtt::accumulate(Complexity &c, size_t rows, size_t len, size_t radix)
{
    if (len <= radix) {
        c.matmul_macs += rows * len * len;
        c.matmul_stages += 1;
        return;
    }
    const size_t n1 = radix;
    const size_t n2 = len / n1;
    // Gather + writeback.
    c.reorder_elems += rows * 2 * len;
    // Recursive row transforms (batched across rows of all calls).
    accumulate(c, rows * n1, n2, radix);
    // Twists.
    c.twist_muls += rows * (n1 - 1) * n2;
    // Left matmul.
    c.matmul_macs += rows * n1 * n2 * n1;
    c.matmul_stages += 1;
}

MatrixNtt::Complexity
MatrixNtt::complexity() const
{
    return complexity_for(tables_.n(), radix_);
}

MatrixNtt::Complexity
MatrixNtt::complexity_for(size_t n, size_t radix)
{
    Complexity c;
    accumulate(c, 1, n, radix);
    // ψ twist at entry.
    c.twist_muls += n;
    return c;
}

} // namespace neo
