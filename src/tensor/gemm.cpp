#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "obs/obs.h"

namespace neo {

/*
 * Compile-time bit-budget proofs — the static_assert mirror of the
 * neo-lint bit-budget prover (src/lint/bit_budget.h). Every (word
 * size, WordSize_T, K depth) plan reachable from the paper parameter
 * sets A–H and the test presets must keep its worst-case plane
 * accumulation below the FP64 mantissa (2^53) / INT32 accumulator
 * (2^31) bound, independently re-derived by split_plan_exact in
 * 128-bit integer arithmetic. If a planner change ever produces an
 * out-of-budget plan, this block turns it into a *build* failure.
 *
 * Word sizes: 36/60-bit q primes, {36, 48, 64}-bit WordSize_T, 30-bit
 * test primes. K depths: 16 (radix-16 NTT twiddle matmul), 256
 * (four-step NTT at N = 2^16), 46 (widest BConv source basis, Set H's
 * L+1+α), and the small IP/gadget dimensions.
 */
namespace {

constexpr bool
fp64_budget_table_holds()
{
    constexpr int words[] = {30, 36, 48, 60, 64};
    constexpr size_t ks[] = {1, 2, 4, 5, 16, 40, 46, 64, 256};
    for (int w : words)
        for (size_t k : ks)
            if (!fp64_plan_exact(w, w, k))
                return false;
    return true;
}

constexpr bool
int8_budget_table_holds()
{
    constexpr int words[] = {30, 36, 48, 60, 64};
    constexpr size_t ks[] = {1, 2, 4, 5, 16, 40, 46, 64, 256};
    for (int w : words)
        for (size_t k : ks)
            if (!int8_plan_exact(w, w, k))
                return false;
    return true;
}

static_assert(fp64_budget_table_holds(),
              "FP64 plane plan exceeds the 2^53 mantissa budget for a "
              "reachable (word size, K) configuration");
static_assert(int8_budget_table_holds(),
              "INT8 plane plan exceeds the INT32 accumulator budget for "
              "a reachable (word size, K) configuration");

// The paper's flagship examples, spelled out (§3.4): a 36-bit word
// kept whole against 12-bit planes over K = 16 sums to 2^52 < 2^53;
// 48-bit words split 2×24b each leave 53 − 48 = 5 bits of headroom
// at K ≤ 32.
static_assert(choose_fp64_split(36, 36, 16).products() == 3 &&
                  fp64_plan_exact(36, 36, 16),
              "paper Fig 3 36-bit plan regressed");
static_assert(choose_fp64_split(48, 48, 16).products() == 4 &&
                  fp64_plan_exact(48, 48, 16),
              "paper Fig 3 48-bit plan regressed");

} // namespace

namespace {

/// One probe per public GEMM entry point: a timed span plus the call /
/// flop / shape accounting. Plane sub-GEMMs inside an entry are part
/// of the same logical modular matmul and are not counted separately.
void
note_gemm(size_t m, size_t n, size_t k)
{
    if (auto *r = obs::current())
        r->add_gemm(m, n, k);
}

/**
 * Row-chunk grain for the parallel GEMM loops. Two goals: every chunk
 * carries at least ~16k MAC operations (so submission overhead stays
 * negligible), and the chunk count stays within a few chunks per pool
 * thread — in particular a 1-thread pool gets exactly one chunk and
 * pays zero chunking overhead. Invariance: chunking splits *output
 * rows* only; every output element's k-accumulation (and its plane
 * recombination) happens entirely inside one chunk in a fixed order,
 * so the grain changes scheduling, never values — results are
 * bit-identical for any grain and any thread count.
 */
size_t
row_grain(size_t m, size_t n, size_t k)
{
    return row_chunk_grain(m, n * k);
}

// Cache-tile sizes for the plane GEMM. MC is the parallel row chunk
// (row_grain); NC × KC below tile the j / t loops so the B panel in
// use stays L1/L2-resident; MR × NR is the register tile.
constexpr size_t kNC = 128;
constexpr size_t kKC = 256;
constexpr size_t kMR = 4;
constexpr size_t kNR = 8;

/**
 * One MR×NR-register-tiled block of the plane GEMM:
 *   prod[i0..i1, j0..j1] (+)= am[i0..i1, t0..t1] · bm[t0..t1, j0..j1]
 * ("=" when first, "+=" otherwise, i.e. on later KC slabs).
 *
 * Determinism: each output element accumulates its t-products in
 * strictly ascending t order — the same order as the naive triple
 * loop — so the blocked kernel is bit-identical to it (and, for the
 * FP64 path, exact anyway: every intermediate stays below 2^53 by
 * construction of the SplitPlan).
 */
template <class T>
void
plane_gemm_block(const T *am, const T *bm, T *prod, size_t i0, size_t i1,
                 size_t j0, size_t j1, size_t t0, size_t t1, size_t n,
                 size_t k, bool first)
{
    size_t i = i0;
    for (; i + kMR <= i1; i += kMR) {
        size_t j = j0;
        for (; j + kNR <= j1; j += kNR) {
            T acc[kMR][kNR] = {};
            for (size_t t = t0; t < t1; ++t) {
                T bv[kNR];
                for (size_t jj = 0; jj < kNR; ++jj)
                    bv[jj] = bm[t * n + j + jj];
                for (size_t ii = 0; ii < kMR; ++ii) {
                    const T av = am[(i + ii) * k + t];
                    for (size_t jj = 0; jj < kNR; ++jj)
                        acc[ii][jj] += av * bv[jj];
                }
            }
            for (size_t ii = 0; ii < kMR; ++ii)
                for (size_t jj = 0; jj < kNR; ++jj) {
                    T &out = prod[(i + ii) * n + j + jj];
                    out = first ? acc[ii][jj] : out + acc[ii][jj];
                }
        }
        for (; j < j1; ++j) {
            T acc[kMR] = {};
            for (size_t t = t0; t < t1; ++t) {
                const T bv = bm[t * n + j];
                for (size_t ii = 0; ii < kMR; ++ii)
                    acc[ii] += am[(i + ii) * k + t] * bv;
            }
            for (size_t ii = 0; ii < kMR; ++ii) {
                T &out = prod[(i + ii) * n + j];
                out = first ? acc[ii] : out + acc[ii];
            }
        }
    }
    for (; i < i1; ++i) {
        size_t j = j0;
        for (; j + kNR <= j1; j += kNR) {
            T acc[kNR] = {};
            for (size_t t = t0; t < t1; ++t) {
                const T av = am[i * k + t];
                for (size_t jj = 0; jj < kNR; ++jj)
                    acc[jj] += av * bm[t * n + j + jj];
            }
            for (size_t jj = 0; jj < kNR; ++jj) {
                T &out = prod[i * n + j + jj];
                out = first ? acc[jj] : out + acc[jj];
            }
        }
        for (; j < j1; ++j) {
            T acc = 0;
            for (size_t t = t0; t < t1; ++t)
                acc += am[i * k + t] * bm[t * n + j];
            T &out = prod[i * n + j];
            out = first ? acc : out + acc;
        }
    }
}

using F64BlockFn = void (*)(const double *, const double *, double *, size_t,
                            size_t, size_t, size_t, size_t, size_t, size_t,
                            size_t, bool);

#if defined(__x86_64__) || defined(__i386__)

/*
 * FMA microkernel. Written once over a vector type V of `lanes` doubles
 * (GCC/clang vector extensions) and compiled per ISA level through the
 * target-attributed entry points below, into which the always_inline
 * templates inline. `acc += av * bv` contracts to one FMA per lane.
 *
 * Exactness: every plane value, product and partial sum is an integer
 * below 2^53 (SplitPlan construction), so a fused multiply-add rounds
 * nothing — each lane computes exactly what the portable loop does, in
 * the same ascending t order, and the planes are bit-identical at every
 * ISA level.
 */
typedef double f64x8 __attribute__((vector_size(64)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef double f64x2 __attribute__((vector_size(16)));

/// One MR × (NV·lanes) register tile at (i, j) over t ∈ [t0, t1).
template <class V, size_t MR, size_t NV>
[[gnu::always_inline]] inline void
f64_tile(const double *am, const double *bm, double *prod, size_t i,
         size_t j, size_t t0, size_t t1, size_t n, size_t k, bool first)
{
    constexpr size_t lanes = sizeof(V) / sizeof(double);
    // Fully unrolled tile loops keep the accumulators in registers.
    V acc[MR][NV] = {};
    for (size_t t = t0; t < t1; ++t) {
        V bv[NV];
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v)
            std::memcpy(&bv[v], bm + t * n + j + v * lanes, sizeof(V));
#pragma GCC unroll 8
        for (size_t ii = 0; ii < MR; ++ii) {
            const double av = am[(i + ii) * k + t];
#pragma GCC unroll 4
            for (size_t v = 0; v < NV; ++v)
                acc[ii][v] += av * bv[v];
        }
    }
#pragma GCC unroll 8
    for (size_t ii = 0; ii < MR; ++ii)
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v) {
            double *out = prod + (i + ii) * n + j + v * lanes;
            if (!first) {
                V old;
                std::memcpy(&old, out, sizeof(V));
                acc[ii][v] += old;
            }
            std::memcpy(out, &acc[ii][v], sizeof(V));
        }
}

/// One strip of MR rows: two-vector tiles, then one half-width vector,
/// then single columns for the ragged edge.
template <class V, class H, size_t MR>
[[gnu::always_inline]] inline void
f64_strip(const double *am, const double *bm, double *prod, size_t i,
          size_t j0, size_t j1, size_t t0, size_t t1, size_t n, size_t k,
          bool first)
{
    constexpr size_t wide = 2 * sizeof(V) / sizeof(double);
    constexpr size_t half = sizeof(H) / sizeof(double);
    size_t j = j0;
    for (; j + wide <= j1; j += wide)
        f64_tile<V, MR, 2>(am, bm, prod, i, j, t0, t1, n, k, first);
    for (; j + half <= j1; j += half)
        f64_tile<H, MR, 1>(am, bm, prod, i, j, t0, t1, n, k, first);
    for (; j < j1; ++j)
        f64_tile<double, MR, 1>(am, bm, prod, i, j, t0, t1, n, k, first);
}

/// plane_gemm_block's contract on vector type V (half width H).
template <class V, class H>
[[gnu::always_inline]] inline void
f64_block_simd(const double *am, const double *bm, double *prod, size_t i0,
               size_t i1, size_t j0, size_t j1, size_t t0, size_t t1,
               size_t n, size_t k, bool first)
{
    size_t i = i0;
    for (; i + kMR <= i1; i += kMR)
        f64_strip<V, H, kMR>(am, bm, prod, i, j0, j1, t0, t1, n, k, first);
    for (; i < i1; ++i)
        f64_strip<V, H, 1>(am, bm, prod, i, j0, j1, t0, t1, n, k, first);
}

[[gnu::target("avx512f,avx2,fma")]] void
f64_block_avx512(const double *am, const double *bm, double *prod, size_t i0,
                 size_t i1, size_t j0, size_t j1, size_t t0, size_t t1,
                 size_t n, size_t k, bool first)
{
    f64_block_simd<f64x8, f64x4>(am, bm, prod, i0, i1, j0, j1, t0, t1, n, k,
                                 first);
}

[[gnu::target("avx2,fma")]] void
f64_block_avx2(const double *am, const double *bm, double *prod, size_t i0,
               size_t i1, size_t j0, size_t j1, size_t t0, size_t t1,
               size_t n, size_t k, bool first)
{
    f64_block_simd<f64x4, f64x2>(am, bm, prod, i0, i1, j0, j1, t0, t1, n, k,
                                 first);
}

GemmIsa
detect_isa()
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma"))
        return GemmIsa::avx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return GemmIsa::avx2;
    return GemmIsa::portable;
}

#else

GemmIsa
detect_isa()
{
    return GemmIsa::portable;
}

#endif

/// The level plane_gemm dispatches on: CPUID's pick unless a test
/// forced a lower one.
std::atomic<GemmIsa> &
active_isa()
{
    static std::atomic<GemmIsa> isa{gemm_isa_supported()};
    return isa;
}

F64BlockFn
f64_block_fn(GemmIsa isa)
{
#if defined(__x86_64__) || defined(__i386__)
    if (isa == GemmIsa::avx512)
        return f64_block_avx512;
    if (isa == GemmIsa::avx2)
        return f64_block_avx2;
#endif
    (void)isa;
    return plane_gemm_block<double>;
}

/// prod = am(m×k) · bm(k×n), blocked and parallel over row chunks.
/// FP64 planes run the microkernel of the active ISA level; INT8
/// planes (INT32 accumulation) always run the portable loop.
template <class T>
void
plane_gemm(const T *am, const T *bm, T *prod, size_t m, size_t n, size_t k)
{
    const auto block = [] {
        if constexpr (std::is_same_v<T, double>)
            return f64_block_fn(active_isa().load(std::memory_order_relaxed));
        else
            return plane_gemm_block<T>;
    }();
    parallel_for(
        0, m,
        [&](size_t rb, size_t re) {
            for (size_t jc = 0; jc < n; jc += kNC) {
                const size_t je = std::min(n, jc + kNC);
                for (size_t tc = 0; tc < k; tc += kKC)
                    block(am, bm, prod, rb, re, jc, je, tc,
                          std::min(k, tc + kKC), n, k, tc == 0);
            }
        },
        row_grain(m, n, k));
}

/// Largest bit width over an operand's words, at least 1 (the
/// planners reject zero-width operands).
int
operand_bits(const u64 *v, size_t count)
{
    u64 m = 0;
    for (size_t i = 0; i < count; ++i)
        m |= v[i];
    return std::max(bit_size(m), 1);
}

/// A plane-GEMM output element as the exact integer it holds.
u64
plane_value(double v)
{
    return static_cast<u64>(v);
}

u64
plane_value(i32 v)
{
    return static_cast<u64>(static_cast<u32>(v));
}

/// FP64 planes (2^53 mantissa budget) or INT8 planes held in i32
/// (INT32 accumulation).
template <class Plane>
SplitPlan
choose_split(int wa, int wb, size_t k)
{
    if constexpr (std::is_same_v<Plane, double>)
        return choose_fp64_split(wa, wb, k);
    else
        return choose_int8_split(wa, wb, k);
}

/**
 * Which modulus reduces each output element of a sliced GEMM: one
 * modulus for the whole product, mods[j] for output column j, or
 * mods[s % count] for site s.
 */
struct ModulusMap
{
    enum class Kind { one, per_column, per_site };
    Kind kind;
    const Modulus *mods;
    size_t count;

    static ModulusMap of(const Modulus &q) { return {Kind::one, &q, 1}; }
    static ModulusMap columns(const std::vector<Modulus> &mods)
    {
        return {Kind::per_column, mods.data(), mods.size()};
    }
    static ModulusMap sites(const std::vector<Modulus> &mods)
    {
        return {Kind::per_site, mods.data(), mods.size()};
    }
};

/// `sites` independent m×n×k products laid out contiguously: A is
/// sites×m×k, B sites×k×n, C sites×m×n. sites is 1 unless the modulus
/// map is per site.
struct GemmShape
{
    size_t sites, m, n, k;
};

/**
 * One plane pair's recombine, C (+)= w · P (mod q), with the pair's
 * fixed weight w = 2^shift mod q and its Shoup constant ws: one mulhi
 * and one correction per element. mul_shoup is exact for any u64
 * input when w < q, so the plane sum P (< 2^53, or < 2^31 for INT32)
 * needs no reduction first and the result equals q.mul(q.reduce(P), w)
 * bit for bit.
 */
template <class T>
void
recombine_pair(u64 *c, const T *prod, size_t count, u64 w, u64 ws, u64 qv)
{
    parallel_for(
        0, count,
        [&](size_t b0, size_t e0) {
            for (size_t i = b0; i < e0; ++i)
                c[i] = add_mod(c[i],
                               mul_shoup(plane_value(prod[i]), w, ws, qv),
                               qv);
        },
        8192);
}

/// Per-column recombine: column j of C (m × n) uses col_mods[j] and
/// its own weight w[j] (Shoup constant ws[j]).
template <class T>
void
recombine_pair_cols(u64 *c, const T *prod, size_t m, size_t n,
                    const Modulus *col_mods, const u64 *w, const u64 *ws)
{
    parallel_for(
        0, m,
        [&](size_t rb, size_t re) {
            for (size_t i = rb; i < re; ++i) {
                for (size_t j = 0; j < n; ++j) {
                    const u64 qv = col_mods[j].value();
                    c[i * n + j] = add_mod(
                        c[i * n + j],
                        mul_shoup(plane_value(prod[i * n + j]), w[j], ws[j],
                                  qv),
                        qv);
                }
            }
        },
        row_grain(m, n, 1));
}

/**
 * One-modulus and per-column body: slice both operands into the call's
 * workspace frame, then run the blocked plane GEMM and recombine once
 * per plane pair. The plane loops stay sequential, so each c[i]
 * accumulates its planes in the fixed (pa, pb) order.
 */
template <class Plane>
void
block_planes_gemm(const u64 *a, const u64 *b, u64 *c, const GemmShape &s,
                  const ModulusMap &map, const SplitPlan &plan, const u64 *w,
                  const u64 *ws, Workspace::Frame &frame)
{
    const size_t m = s.m, n = s.n, k = s.k;
    Plane *ap = frame.alloc<Plane>(static_cast<size_t>(plan.a_planes) * m * k);
    Plane *bp = frame.alloc<Plane>(static_cast<size_t>(plan.b_planes) * k * n);
    slice_planes(a, m * k, plan.a_planes, plan.a_plane_bits, ap);
    slice_planes(b, k * n, plan.b_planes, plan.b_plane_bits, bp);
    Plane *prod = frame.alloc<Plane>(m * n);
    std::fill(c, c + m * n, 0);
    for (int pa = 0; pa < plan.a_planes; ++pa) {
        for (int pb = 0; pb < plan.b_planes; ++pb) {
            const size_t pair = static_cast<size_t>(pa) * plan.b_planes + pb;
            // The per-plane GEMM the TCU executes, exact because every
            // accumulation stays inside the plan's budget.
            plane_gemm(ap + static_cast<size_t>(pa) * m * k,
                       bp + static_cast<size_t>(pb) * k * n, prod, m, n, k);
            if (map.kind == ModulusMap::Kind::one)
                recombine_pair(c, prod, m * n, w[pair], ws[pair],
                               map.mods->value());
            else
                recombine_pair_cols(c, prod, m, n, map.mods, w + pair * n,
                                    ws + pair * n);
        }
    }
}

/**
 * Per-site body over sites [sb, se). Each site's A and B are sliced
 * here, inside the parallel site loop, so a site's planes are still in
 * L1 when its plane pairs multiply; a site is a handful of words (the
 * IP's BS×β̃×β), too small for the blocked kernel, so each plane pair
 * runs a scalar triple loop and recombines with the site's modulus.
 * Every element accumulates its k-products in ascending order and its
 * planes in (pa, pb) order, so the result equals one single-site call
 * per site bit for bit. Shape, map and plan come by value: the u64
 * stores into C then cannot alias the loop bounds.
 */
template <class Plane>
void
site_range(const u64 *a, const u64 *b, u64 *c, size_t sb, size_t se,
           GemmShape s, ModulusMap map, SplitPlan plan, const u64 *w,
           const u64 *ws)
{
    const size_t m = s.m, n = s.n, k = s.k;
    const size_t pairs = static_cast<size_t>(plan.products());
    Workspace::Frame frame;
    Plane *ap = frame.alloc<Plane>(static_cast<size_t>(plan.a_planes) * m * k);
    Plane *bp = frame.alloc<Plane>(static_cast<size_t>(plan.b_planes) * k * n);
    Plane *prod = frame.alloc<Plane>(m * n);
    for (size_t site = sb; site < se; ++site) {
        slice_planes(a + site * m * k, m * k, plan.a_planes, plan.a_plane_bits,
                     ap);
        slice_planes(b + site * k * n, k * n, plan.b_planes, plan.b_plane_bits,
                     bp);
        const size_t r = site % map.count;
        const u64 qv = map.mods[r].value();
        u64 *cs = c + site * m * n;
        std::fill(cs, cs + m * n, 0);
        for (size_t pair = 0; pair < pairs; ++pair) {
            const Plane *am = ap + pair / plan.b_planes * m * k;
            const Plane *bm = bp + pair % plan.b_planes * k * n;
            for (size_t i = 0; i < m; ++i)
                for (size_t j = 0; j < n; ++j) {
                    Plane acc = 0;
                    for (size_t t = 0; t < k; ++t)
                        acc += am[i * k + t] * bm[t * n + j];
                    prod[i * n + j] = acc;
                }
            // Recombine in its own pass: fused into the k-loop above, it
            // doubled this engine's time at the N = 2^14 IP shape.
            const u64 wp = w[pair * map.count + r];
            const u64 wsp = ws[pair * map.count + r];
            for (size_t i = 0; i < m * n; ++i)
                cs[i] = add_mod(cs[i],
                                mul_shoup(plane_value(prod[i]), wp, wsp, qv),
                                qv);
        }
    }
}

/**
 * The sliced-GEMM core behind all six fp64/int8 engines. It plans the
 * split, derives each plane pair's recombine weight 2^shift mod q (and
 * its Shoup constant) for every modulus of the map, then slices,
 * multiplies and recombines. Operands are sliced on every call, as the
 * tensor cores split and merge inside every GEMM (§3.4); nothing about
 * an operand outlives the call.
 */
template <class Plane>
void
sliced_gemm(const char *name, const u64 *a, const u64 *b, u64 *c,
            const GemmShape &s, const ModulusMap &map)
{
    obs::Span span(name, obs::cat::gemm);
    note_gemm(s.sites * s.m, s.n, s.k);
    NEO_CHECK(map.kind != ModulusMap::Kind::per_column || map.count == s.n,
              "column modulus count mismatch");
    NEO_CHECK(map.kind != ModulusMap::Kind::per_site || map.count > 0,
              "site modulus list empty");
    // One-modulus and per-site operands are residues, so the planes are
    // sized to the widest modulus. A per-column A operand is in the
    // BConv source basis, so those planes are sized to the widest word
    // present.
    int wa = 0;
    for (size_t r = 0; r < map.count; ++r)
        wa = std::max(wa, map.mods[r].bits());
    int wb = wa;
    if (map.kind == ModulusMap::Kind::per_column) {
        wa = operand_bits(a, s.m * s.k);
        wb = operand_bits(b, s.k * s.n);
    }
    const SplitPlan plan = choose_split<Plane>(wa, wb, s.k);
    Workspace::Frame frame;
    const size_t pairs = static_cast<size_t>(plan.products());
    u64 *w = frame.alloc<u64>(pairs * map.count);
    u64 *ws = frame.alloc<u64>(pairs * map.count);
    for (size_t pair = 0; pair < pairs; ++pair) {
        const int shift =
            static_cast<int>(pair / plan.b_planes) * plan.a_plane_bits +
            static_cast<int>(pair % plan.b_planes) * plan.b_plane_bits;
        for (size_t r = 0; r < map.count; ++r) {
            const u64 qv = map.mods[r].value();
            w[pair * map.count + r] = pow_mod(2, shift, qv);
            ws[pair * map.count + r] =
                shoup_precompute(w[pair * map.count + r], qv);
        }
    }
    if (map.kind == ModulusMap::Kind::per_site)
        parallel_for(
            0, s.sites,
            [&](size_t sb, size_t se) {
                site_range<Plane>(a, b, c, sb, se, s, map, plan, w, ws);
            },
            row_chunk_grain(s.sites, pairs * s.m * s.n * s.k));
    else
        block_planes_gemm<Plane>(a, b, c, s, map, plan, w, ws, frame);
}

} // namespace

void
fp64_sliced_matmul(const u64 *a, const u64 *b, u64 *c, size_t m, size_t n,
                   size_t k, const Modulus &q)
{
    sliced_gemm<double>("fp64_gemm", a, b, c, {1, m, n, k}, ModulusMap::of(q));
}

void
int8_sliced_matmul(const u64 *a, const u64 *b, u64 *c, size_t m, size_t n,
                   size_t k, const Modulus &q)
{
    sliced_gemm<i32>("int8_gemm", a, b, c, {1, m, n, k}, ModulusMap::of(q));
}

void
scalar_matmul_cols(const u64 *a, const u64 *b, u64 *c, size_t m, size_t n,
                   size_t k, const std::vector<Modulus> &col_mods)
{
    obs::Span span("scalar_gemm_cols", obs::cat::gemm);
    note_gemm(m, n, k);
    NEO_CHECK(col_mods.size() == n, "column modulus count mismatch");
    // Exact integer accumulation: operands are < 2^63 and K is small
    // (gadget dimensions), so the u128 accumulator cannot overflow for
    // K ≤ 64 at 60-bit words.
    NEO_CHECK(k <= 64, "K too large for exact u128 accumulation");
    parallel_for(
        0, m,
        [&](size_t rb, size_t re) {
            for (size_t i = rb; i < re; ++i) {
                for (size_t j = 0; j < n; ++j) {
                    u128 acc = 0;
                    for (size_t t = 0; t < k; ++t)
                        acc += static_cast<u128>(a[i * k + t]) *
                               b[t * n + j];
                    c[i * n + j] = col_mods[j].reduce128(acc);
                }
            }
        },
        row_grain(m, n, k));
}

void
fp64_sliced_matmul_cols(const u64 *a, const u64 *b, u64 *c, size_t m,
                        size_t n, size_t k,
                        const std::vector<Modulus> &col_mods)
{
    sliced_gemm<double>("fp64_gemm_cols", a, b, c, {1, m, n, k},
                        ModulusMap::columns(col_mods));
}

void
int8_sliced_matmul_cols(const u64 *a, const u64 *b, u64 *c, size_t m,
                        size_t n, size_t k,
                        const std::vector<Modulus> &col_mods)
{
    sliced_gemm<i32>("int8_gemm_cols", a, b, c, {1, m, n, k},
                     ModulusMap::columns(col_mods));
}

void
scalar_matmul_sites(const u64 *a, const u64 *b, u64 *c, size_t sites,
                    size_t m, size_t n, size_t k,
                    const std::vector<Modulus> &mods)
{
    obs::Span span("scalar_gemm_sites", obs::cat::gemm);
    note_gemm(sites * m, n, k);
    NEO_CHECK(!mods.empty(), "site modulus list empty");
    const size_t nmods = mods.size();
    parallel_for(
        0, sites,
        [&](size_t sb, size_t se) {
            for (size_t s = sb; s < se; ++s) {
                const Modulus &qm = mods[s % nmods];
                const u64 *as = a + s * m * k;
                const u64 *bs = b + s * k * n;
                u64 *cs = c + s * m * n;
                for (size_t i = 0; i < m; ++i) {
                    for (size_t j = 0; j < n; ++j) {
                        u128 acc = 0;
                        // Fold every other iteration: products are
                        // < 2^126, so the accumulator stays < 2^128.
                        for (size_t t = 0; t < k; ++t) {
                            acc += static_cast<u128>(as[i * k + t]) *
                                   bs[t * n + j];
                            if (t & 1)
                                acc = qm.reduce128(acc);
                        }
                        cs[i * n + j] = qm.reduce128(acc);
                    }
                }
            }
        },
        row_chunk_grain(sites, m * n * k));
}

void
fp64_sliced_matmul_sites(const u64 *a, const u64 *b, u64 *c, size_t sites,
                         size_t m, size_t n, size_t k,
                         const std::vector<Modulus> &mods)
{
    sliced_gemm<double>("fp64_gemm_sites", a, b, c, {sites, m, n, k},
                        ModulusMap::sites(mods));
}

void
int8_sliced_matmul_sites(const u64 *a, const u64 *b, u64 *c, size_t sites,
                         size_t m, size_t n, size_t k,
                         const std::vector<Modulus> &mods)
{
    sliced_gemm<i32>("int8_gemm_sites", a, b, c, {sites, m, n, k},
                     ModulusMap::sites(mods));
}

const ModSiteMatMulFn &
scalar_site_matmul()
{
    static const ModSiteMatMulFn fn = scalar_matmul_sites;
    return fn;
}

const ModSiteMatMulFn &
fp64_tcu_site_matmul()
{
    static const ModSiteMatMulFn fn = fp64_sliced_matmul_sites;
    return fn;
}

const ModSiteMatMulFn &
int8_tcu_site_matmul()
{
    static const ModSiteMatMulFn fn = int8_sliced_matmul_sites;
    return fn;
}

const ModColMatMulFn &
scalar_col_matmul()
{
    static const ModColMatMulFn fn = scalar_matmul_cols;
    return fn;
}

const ModColMatMulFn &
fp64_tcu_col_matmul()
{
    static const ModColMatMulFn fn = fp64_sliced_matmul_cols;
    return fn;
}

const ModColMatMulFn &
int8_tcu_col_matmul()
{
    static const ModColMatMulFn fn = int8_sliced_matmul_cols;
    return fn;
}

const ModMatMulFn &
fp64_tcu_matmul()
{
    static const ModMatMulFn fn = fp64_sliced_matmul;
    return fn;
}

const ModMatMulFn &
int8_tcu_matmul()
{
    static const ModMatMulFn fn = int8_sliced_matmul;
    return fn;
}

GemmIsa
gemm_isa_supported()
{
    static const GemmIsa isa = detect_isa();
    return isa;
}

const char *
gemm_isa_name(GemmIsa isa)
{
    switch (isa) {
    case GemmIsa::avx512:
        return "avx512";
    case GemmIsa::avx2:
        return "avx2";
    case GemmIsa::portable:
        break;
    }
    return "portable";
}

GemmIsa
force_gemm_isa_for_testing(GemmIsa isa)
{
    NEO_CHECK(isa <= gemm_isa_supported(),
              "GEMM ISA level not supported by this host");
    return active_isa().exchange(isa, std::memory_order_relaxed);
}

} // namespace neo
