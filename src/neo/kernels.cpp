#include "neo/kernels.h"

#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "obs/obs.h"
#include "tensor/layout.h"

namespace neo {

namespace {

/// Per-kernel accounting shared by both BConv algorithms: one kernel
/// launch, α·α'·BS limb products, and the limb traffic (inputs read
/// once, outputs written once — the matrix form's whole point; the
/// element-wise form re-reads inputs α' times but we charge the
/// algorithmic minimum so the two variants compare on work done).
void
note_bconv(size_t a, size_t ap, size_t batch, size_t n)
{
    if (auto *r = obs::current()) {
        r->add("bconv.kernels");
        r->add("bconv.products", static_cast<u64>(a) * ap * batch);
        r->add_value("bconv.bytes",
                     static_cast<double>((a + ap) * batch * n) *
                         sizeof(u64));
    }
}

/// IP accounting: one kernel launch, β̃·β·α'·BS limb multiplications
/// (Table 2's ββ̃α' per ciphertext component), and the traffic of the
/// matrix form — limbs and keys read once, β̃·α'·BS limbs written.
void
note_ip(size_t beta, size_t beta_tilde, size_t ap, size_t batch, size_t n)
{
    if (auto *r = obs::current()) {
        r->add("ip.kernels");
        r->add("ip.mul_limbs",
               static_cast<u64>(beta_tilde) * beta * ap * batch);
        const double rd =
            static_cast<double>(beta * ap * batch * n) +      // limbs
            static_cast<double>(beta_tilde * beta * ap * n);  // keys
        const double wr = static_cast<double>(beta_tilde * ap * batch * n);
        r->add_value("ip.bytes", (rd + wr) * sizeof(u64));
    }
}

} // namespace

BConvKernel::BConvKernel(const RnsBasis &from, const RnsBasis &to)
    : conv_(from, to)
{
    const size_t a = from.size();
    const size_t ap = to.size();
    factor_matrix_.resize(a * ap);
    for (size_t i = 0; i < a; ++i)
        for (size_t j = 0; j < ap; ++j)
            factor_matrix_[i * ap + j] = conv_.factor(i, j);
}

void
BConvKernel::run_elementwise(const u64 *in, size_t batch, size_t n,
                             u64 *out) const
{
    obs::Span span("bconv_ew", obs::cat::bconv);
    const size_t a = in_levels();
    const size_t ap = out_levels();
    note_bconv(a, ap, batch, n);
    // Algorithm 1: each coefficient of every input limb is re-read for
    // every output level.
    for (size_t j = 0; j < ap; ++j) {
        const Modulus &tj = conv_.to()[j];
        for (size_t b = 0; b < batch; ++b) {
            u64 *dst = out + (j * batch + b) * n;
            std::fill(dst, dst + n, 0);
            for (size_t i = 0; i < a; ++i) {
                const Modulus &bi = conv_.from()[i];
                const u64 inv = conv_.from().punc_inv(i);
                const u64 f = factor_matrix_[i * ap + j];
                const u64 *src = in + (i * batch + b) * n;
                for (size_t l = 0; l < n; ++l) {
                    u64 scaled = bi.mul(src[l], inv);
                    dst[l] = tj.add(dst[l], tj.mul(tj.reduce(scaled), f));
                }
            }
        }
    }
}

void
BConvKernel::run_matmul(const u64 *in, size_t batch, size_t n, u64 *out,
                        const ModColMatMulFn &mm) const
{
    matmul_common(in, batch, n, out, mm, /*exact=*/false);
}

void
BConvKernel::run_matmul_exact(const u64 *in, size_t batch, size_t n,
                              u64 *out, const ModColMatMulFn &mm) const
{
    matmul_common(in, batch, n, out, mm, /*exact=*/true);
}

void
BConvKernel::matmul_common(const u64 *in, size_t batch, size_t n, u64 *out,
                           const ModColMatMulFn &mm, bool exact) const
{
    obs::Span span("bconv_mm", obs::cat::bconv);
    const size_t a = in_levels();
    const size_t ap = out_levels();
    note_bconv(a, ap, batch, n);
    // Step 1 (preprocessing): scalar multiply by (B/b_i)^{-1} and
    // reorder α×BS×N -> N×BS×α so α is the GEMM K dimension.
    Workspace::Frame frame;
    u64 *scaled = frame.alloc<u64>(a * batch * n);
    for (size_t i = 0; i < a; ++i) {
        const Modulus &bi = conv_.from()[i];
        const u64 inv = conv_.from().punc_inv(i);
        const u64 ws = shoup_precompute(inv, bi.value());
        const u64 *src = in + i * batch * n;
        u64 *dst = scaled + i * batch * n;
        parallel_for(
            0, batch * n,
            [&](size_t b, size_t e) {
                for (size_t x = b; x < e; ++x)
                    dst[x] = mul_shoup(src[x], inv, ws, bi.value());
            },
            8192);
    }
    // Exact mode: overflow counts r = round(Σ_i y_i / b_i), one per
    // coefficient site (matches BaseConverter::convert_exact).
    u64 *overflow = nullptr;
    if (exact) {
        overflow = frame.alloc<u64>(batch * n);
        // double reciprocals with long-double accumulation — the same
        // precision recipe as BaseConverter::convert_exact, so the two
        // paths round identically (bit-exactness tests rely on it).
        double *inv_b = frame.alloc<double>(a);
        for (size_t i = 0; i < a; ++i)
            // Shenoy–Kumaresan overflow estimation is float-assisted
            // by design (§4.5.2). neo-lint: allow(float-on-limb)
            inv_b[i] = 1.0 / static_cast<double>(conv_.from()[i].value());
        // Per-site accumulation over i is fully inside one index x,
        // so chunking over x preserves the rounding bit-for-bit.
        parallel_for(
            0, batch * n,
            [&](size_t b, size_t e) {
                for (size_t x = b; x < e; ++x) {
                    long double v = 0.0L;
                    for (size_t i = 0; i < a; ++i)
                        // neo-lint: allow(float-on-limb) — see above.
                        v += static_cast<long double>(
                                 scaled[i * batch * n + x]) *
                             inv_b[i];
                    overflow[x] = static_cast<u64>(std::llroundl(v));
                }
            },
            4096);
    }
    u64 *reordered = frame.alloc<u64>(a * batch * n);
    reorder_3d_swap02(scaled, a, batch, n, reordered);

    // Step 2: one (N·BS) × α' × α GEMM against the factor matrix,
    // reduced per output column's modulus.
    u64 *prod = frame.alloc<u64>(n * batch * ap);
    mm(reordered, factor_matrix_.data(), prod, n * batch, ap, a,
       conv_.to().mods());

    // Exact epilogue: subtract r·B mod t_j per row (rank-1 update);
    // rows are disjoint.
    if (exact) {
        parallel_for(
            0, n,
            [&](size_t lb, size_t le) {
                for (size_t l = lb; l < le; ++l) {
                    for (size_t b = 0; b < batch; ++b) {
                        const u64 r = overflow[b * n + l];
                        u64 *row = prod + (l * batch + b) * ap;
                        for (size_t j = 0; j < ap; ++j) {
                            const Modulus &tj = conv_.to()[j];
                            u64 corr = tj.mul(tj.reduce(r),
                                              conv_.product_mod_to(j));
                            row[j] = tj.sub(row[j], corr);
                        }
                    }
                }
            },
            1024);
    }

    // Step 3 (postprocessing): reorder N×BS×α' -> α'×BS×N.
    reorder_3d_swap02(prod, n, batch, ap, out);
}

IpKernel::IpKernel(std::vector<Modulus> t_mods, size_t beta,
                   size_t beta_tilde)
    : t_mods_(std::move(t_mods)), beta_(beta), beta_tilde_(beta_tilde)
{
    NEO_CHECK(!t_mods_.empty() && beta_ > 0 && beta_tilde_ > 0,
              "bad IP dimensions");
}

void
IpKernel::run_elementwise(const u64 *limbs, const u64 *keys, size_t batch,
                          size_t n, u64 *out) const
{
    obs::Span span("ip_ew", obs::cat::ip);
    const size_t ap = t_mods_.size();
    note_ip(beta_, beta_tilde_, ap, batch, n);
    std::fill(out, out + beta_tilde_ * ap * batch * n, 0);
    // Algorithm 3: β̃·β element-wise passes; every limb is re-read β̃
    // times.
    for (size_t i = 0; i < beta_tilde_; ++i) {
        for (size_t j = 0; j < beta_; ++j) {
            for (size_t k = 0; k < ap; ++k) {
                const Modulus &t = t_mods_[k];
                const u64 *key = keys + ((i * beta_ + j) * ap + k) * n;
                for (size_t b = 0; b < batch; ++b) {
                    const u64 *src =
                        limbs + ((j * ap + k) * batch + b) * n;
                    u64 *dst = out + ((i * ap + k) * batch + b) * n;
                    for (size_t l = 0; l < n; ++l)
                        dst[l] = t.add(dst[l], t.mul(src[l], key[l]));
                }
            }
        }
    }
}

void
IpKernel::run_matmul(const u64 *limbs, const u64 *keys, size_t batch,
                     size_t n, u64 *out, const ModSiteMatMulFn &mm) const
{
    obs::Span span("ip_mm", obs::cat::ip);
    const size_t ap = t_mods_.size();
    note_ip(beta_, beta_tilde_, ap, batch, n);
    // Preprocessing: reorder the key tensor per Fig 8, then share the
    // rest with the cached-key path.
    Workspace::Frame frame;
    u64 *keys_r = frame.alloc<u64>(beta_tilde_ * beta_ * ap * n);
    reorder_4d_reverse(keys, beta_tilde_, beta_, ap, n, keys_r);
    matmul_impl(limbs, keys_r, batch, n, out, mm);
}

void
IpKernel::run_matmul_reordered(const u64 *limbs, const u64 *keys_r,
                               size_t batch, size_t n, u64 *out,
                               const ModSiteMatMulFn &mm) const
{
    obs::Span span("ip_mm", obs::cat::ip);
    note_ip(beta_, beta_tilde_, t_mods_.size(), batch, n);
    matmul_impl(limbs, keys_r, batch, n, out, mm);
}

void
IpKernel::matmul_impl(const u64 *limbs, const u64 *keys_r, size_t batch,
                      size_t n, u64 *out, const ModSiteMatMulFn &mm) const
{
    const size_t ap = t_mods_.size();
    // Preprocessing: reorder the limb tensor per Fig 8.
    Workspace::Frame frame;
    u64 *limbs_r = frame.alloc<u64>(beta_ * ap * batch * n);
    reorder_4d_swap03(limbs, beta_, ap, batch, n, limbs_r);

    // One BS × β̃ × β product per (coefficient, T-limb) site, issued as
    // a single batched engine call; site l·α'+k reduces mod t_k, which
    // is exactly the mods-cycle contract of ModSiteMatMulFn.
    u64 *prod = frame.alloc<u64>(n * ap * batch * beta_tilde_);
    mm(limbs_r, keys_r, prod, n * ap, batch, beta_tilde_, beta_, t_mods_);

    // Postprocessing: N×α'×BS×β̃ -> β̃×α'×BS×N.
    reorder_4d_swap03(prod, n, ap, batch, beta_tilde_, out);
}

} // namespace neo
