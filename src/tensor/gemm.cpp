#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/isa.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "obs/obs.h"
#include "tensor/bitslice.h"

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

/// The FP64 recombine lanes over the same table, against moduli up to
/// 49 bits: residue operands of the modulus width, and BConv source
/// words up to 64 bits at BConv depths (K ≤ 64). The widest lane width
/// holds even at its plan's deepest K (2^(53 − a − b) = 2048), where
/// 50- and 51-bit moduli break the bound.
constexpr bool
fp64_lane_table_holds()
{
    constexpr int words[] = {30, 36, 48, 49, 60, 64};
    constexpr int moduli[] = {30, 36, 48, 49};
    constexpr size_t ks[] = {1, 2, 4, 5, 16, 40, 46, 64, 256};
    for (int q : moduli)
        for (size_t k : ks)
            for (int w : words)
                if ((k <= 64 || w == q) &&
                    !fp64_lanes_exact(choose_fp64_split(w, q, k), k, q))
                    return false;
    return fp64_lanes_exact(choose_fp64_split(49, 49, 2048), 2048, 49) &&
           !fp64_lanes_exact(choose_fp64_split(50, 50, 2048), 2048, 50) &&
           !fp64_lanes_exact(choose_fp64_split(51, 51, 1024), 1024, 51);
}

static_assert(fp64_budget_table_holds(),
              "FP64 plane plan exceeds the 2^53 mantissa budget for a "
              "reachable (word size, K) configuration");
static_assert(fp64_lane_table_holds(),
              "FP64 recombine lanes exceed the 2^53 bound for a reachable "
              "(word size, modulus width, K) configuration");
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

/// The call / flop / shape accounting of one gemm() call. Plane
/// sub-GEMMs inside a call are part of the same logical modular matmul
/// and are not counted separately.
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

// Cache-tile sizes. A parallel row chunk is cut into output tiles of
// at most kTile elements and kNC columns; every plane pair of a tile
// is multiplied, in KC-deep slabs so the B panel in use stays
// L1/L2-resident, before the tile is recombined. MR × NR is the
// register tile.
constexpr size_t kNC = 128;
constexpr size_t kKC = 256;
constexpr size_t kMR = 4;
constexpr size_t kNR = 8;
constexpr size_t kTile = 1024;
/// Widest FP64 lane vector (AVX-512F); per-site scratch is sized by it.
constexpr size_t kMaxLanes = 8;

/**
 * One MR×NR-register-tiled block of the plane GEMM:
 *   prod[i·ldp + j] (+)= Σ_{t0 ≤ t < t1} am[i·lda + t] · bm[t·ldb + j]
 * for i < rows and j < cols ("=" when first, "+=" on later KC slabs).
 *
 * Determinism: each output element accumulates its t-products in
 * strictly ascending t order — the same order as the naive triple
 * loop — so the blocked kernel is bit-identical to it (and, for the
 * FP64 path, exact anyway: every intermediate stays below 2^53 by
 * construction of the SplitPlan).
 */
template <class T>
void
plane_gemm_block(const T *am, const T *bm, T *prod, size_t rows, size_t cols,
                 size_t t0, size_t t1, size_t lda, size_t ldb, size_t ldp,
                 bool first)
{
    size_t i = 0;
    for (; i + kMR <= rows; i += kMR) {
        size_t j = 0;
        for (; j + kNR <= cols; j += kNR) {
            T acc[kMR][kNR] = {};
            for (size_t t = t0; t < t1; ++t) {
                T bv[kNR];
                for (size_t jj = 0; jj < kNR; ++jj)
                    bv[jj] = bm[t * ldb + j + jj];
                for (size_t ii = 0; ii < kMR; ++ii) {
                    const T av = am[(i + ii) * lda + t];
                    for (size_t jj = 0; jj < kNR; ++jj)
                        acc[ii][jj] += av * bv[jj];
                }
            }
            for (size_t ii = 0; ii < kMR; ++ii)
                for (size_t jj = 0; jj < kNR; ++jj) {
                    T &out = prod[(i + ii) * ldp + j + jj];
                    out = first ? acc[ii][jj] : out + acc[ii][jj];
                }
        }
        for (; j < cols; ++j) {
            T acc[kMR] = {};
            for (size_t t = t0; t < t1; ++t) {
                const T bv = bm[t * ldb + j];
                for (size_t ii = 0; ii < kMR; ++ii)
                    acc[ii] += am[(i + ii) * lda + t] * bv;
            }
            for (size_t ii = 0; ii < kMR; ++ii) {
                T &out = prod[(i + ii) * ldp + j];
                out = first ? acc[ii] : out + acc[ii];
            }
        }
    }
    for (; i < rows; ++i) {
        size_t j = 0;
        for (; j + kNR <= cols; j += kNR) {
            T acc[kNR] = {};
            for (size_t t = t0; t < t1; ++t) {
                const T av = am[i * lda + t];
                for (size_t jj = 0; jj < kNR; ++jj)
                    acc[jj] += av * bm[t * ldb + j + jj];
            }
            for (size_t jj = 0; jj < kNR; ++jj) {
                T &out = prod[i * ldp + j + jj];
                out = first ? acc[jj] : out + acc[jj];
            }
        }
        for (; j < cols; ++j) {
            T acc = 0;
            for (size_t t = t0; t < t1; ++t)
                acc += am[i * lda + t] * bm[t * ldb + j];
            T &out = prod[i * ldp + j];
            out = first ? acc : out + acc;
        }
    }
}

template <class T>
using BlockFn = void (*)(const T *, const T *, T *, size_t, size_t, size_t,
                         size_t, size_t, size_t, size_t, bool);

/**
 * The recombine constants of one modulus q as FP64 lane operands: pair
 * p's weight w_p = 2^shift mod q as a double (w) and its quotient
 * factor fl(w_p / q) (wq), plus q and fl(1/q).
 */
struct LaneWeights
{
    const double *w, *wq;
    size_t pairs;
    double q, qinv;
};

/// Fills w / wq for the pair weights w64[p·stride] of modulus @p q.
LaneWeights
lane_weights(const u64 *w64, size_t stride, size_t pairs, u64 q, double *w,
             double *wq)
{
    const double qd = static_cast<double>(q);
    for (size_t p = 0; p < pairs; ++p) {
        w[p] = static_cast<double>(w64[p * stride]);
        wq[p] = w[p] / qd;
    }
    return {w, wq, pairs, qd, 1.0 / qd};
}

/// A per-site GEMM handed to the lane kernels: site s reduces modulo
/// mods[s % count], whose pair weights are w[p·count + s % count].
struct SiteGemm
{
    const u64 *a, *b;
    u64 *c;
    GemmShape s;
    SplitPlan plan;
    const Modulus *mods;
    size_t count;
    const u64 *w;
};

/**
 * Slices a rows × cols operand into transposed planes: plane p of
 * in[r·cols + c] goes to out[(p·cols + c)·rows + r].
 */
template <class Plane>
void
slice_transposed(const u64 *in, size_t rows, size_t cols, int planes,
                 int bits, Plane *out)
{
    const u64 mask = (1ULL << bits) - 1;
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            for (int p = 0; p < planes; ++p) {
                const int shift = p * bits;
                const u64 chunk =
                    shift >= 64 ? 0 : (in[r * cols + c] >> shift) & mask;
                out[(static_cast<size_t>(p) * cols + c) * rows + r] =
                    static_cast<Plane>(chunk);
            }
}

template <class Plane>
using SliceFn = void (*)(const u64 *, size_t, int, int, Plane *);
template <class Plane>
using SliceTFn = void (*)(const u64 *, size_t, size_t, int, int, Plane *);
using RecombineFn = void (*)(const double *, size_t, size_t, u64 *, size_t,
                             const LaneWeights &);
using SitesFn = void (*)(const SiteGemm &, size_t, size_t, double *);

#if defined(__x86_64__) || defined(__i386__)

/*
 * FP64 lane kernels. Slicing, the plane GEMM, the recombine and the
 * per-site GEMM are written once over a vector type V of `lanes`
 * doubles (GCC/clang vector extensions) in fp64_lanes.inc, which is
 * compiled once per ISA level below. Its templates carry the level's
 * [[gnu::target]] and inline into that level's entry points; ragged
 * edges run the same templates on plain doubles.
 *
 * Exactness: every plane value, product and partial sum is an integer
 * below 2^53 (SplitPlan construction), so the plane FMAs round
 * nothing and match the portable loop bit for bit. The recombine is
 * exact whenever fp64_lanes_exact holds for the call, which
 * sliced_gemm checks before it picks the lanes.
 */
typedef double f64x8 __attribute__((vector_size(64)));
typedef double f64x4 __attribute__((vector_size(32)));
typedef double f64x2 __attribute__((vector_size(16)));
typedef u64 u64x8 __attribute__((vector_size(64)));
typedef u64 u64x4 __attribute__((vector_size(32)));

/// One MR × (NV·lanes) register tile at (i, j) over t ∈ [t0, t1).
template <class V, size_t MR, size_t NV>
[[gnu::always_inline]] inline void
f64_tile(const double *am, const double *bm, double *prod, size_t i,
         size_t j, size_t t0, size_t t1, size_t lda, size_t ldb, size_t ldp,
         bool first)
{
    constexpr size_t lanes = sizeof(V) / sizeof(double);
    // Fully unrolled tile loops keep the accumulators in registers.
    V acc[MR][NV] = {};
    for (size_t t = t0; t < t1; ++t) {
        V bv[NV];
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v)
            std::memcpy(&bv[v], bm + t * ldb + j + v * lanes, sizeof(V));
#pragma GCC unroll 8
        for (size_t ii = 0; ii < MR; ++ii) {
            const double av = am[(i + ii) * lda + t];
#pragma GCC unroll 4
            for (size_t v = 0; v < NV; ++v)
                acc[ii][v] += av * bv[v];
        }
    }
#pragma GCC unroll 8
    for (size_t ii = 0; ii < MR; ++ii)
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v) {
            double *out = prod + (i + ii) * ldp + j + v * lanes;
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
          size_t cols, size_t t0, size_t t1, size_t lda, size_t ldb,
          size_t ldp, bool first)
{
    constexpr size_t wide = 2 * sizeof(V) / sizeof(double);
    constexpr size_t half = sizeof(H) / sizeof(double);
    size_t j = 0;
    for (; j + wide <= cols; j += wide)
        f64_tile<V, MR, 2>(am, bm, prod, i, j, t0, t1, lda, ldb, ldp, first);
    for (; j + half <= cols; j += half)
        f64_tile<H, MR, 1>(am, bm, prod, i, j, t0, t1, lda, ldb, ldp, first);
    for (; j < cols; ++j)
        f64_tile<double, MR, 1>(am, bm, prod, i, j, t0, t1, lda, ldb, ldp,
                                first);
}

/// plane_gemm_block's contract on vector type V (half width H).
template <class V, class H>
[[gnu::always_inline]] inline void
f64_block_simd(const double *am, const double *bm, double *prod, size_t rows,
               size_t cols, size_t t0, size_t t1, size_t lda, size_t ldb,
               size_t ldp, bool first)
{
    size_t i = 0;
    for (; i + kMR <= rows; i += kMR)
        f64_strip<V, H, kMR>(am, bm, prod, i, cols, t0, t1, lda, ldb, ldp,
                             first);
    for (; i < rows; ++i)
        f64_strip<V, H, 1>(am, bm, prod, i, cols, t0, t1, lda, ldb, ldp,
                           first);
}

/*
 * What the lanes take from the ISA: a fused multiply-add (the
 * error-free product), round-to-nearest (the quotient), and strided
 * gathers and scatters (lane l loads or stores p[idx[l]]; AVX2 has no
 * scatter). The AVX-512 round and gather use the all-lanes mask forms,
 * because GCC 12's unmasked ones pass an "undefined" source that
 * -Wmaybe-uninitialized flags.
 */
[[gnu::target("avx512f"), gnu::always_inline]] inline f64x8
lane_fma(f64x8 a, f64x8 b, f64x8 c)
{
    return (f64x8)_mm512_fmadd_pd((__m512d)a, (__m512d)b, (__m512d)c);
}

[[gnu::target("avx512f"), gnu::always_inline]] inline f64x8
lane_round(f64x8 v)
{
    return (f64x8)_mm512_mask_roundscale_pd(
        (__m512d)v, 0xff, (__m512d)v,
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}

[[gnu::target("avx512f"), gnu::always_inline]] inline u64x8
lane_gather(const u64 *p, u64x8 idx)
{
    return (u64x8)_mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xff,
                                              (__m512i)idx, p, 8);
}

[[gnu::target("avx512f"), gnu::always_inline]] inline void
lane_scatter(u64 *p, u64x8 idx, u64x8 v)
{
    _mm512_i64scatter_epi64(p, (__m512i)idx, (__m512i)v, 8);
}

[[gnu::target("avx,fma"), gnu::always_inline]] inline f64x4
lane_fma(f64x4 a, f64x4 b, f64x4 c)
{
    return (f64x4)_mm256_fmadd_pd((__m256d)a, (__m256d)b, (__m256d)c);
}

[[gnu::target("avx"), gnu::always_inline]] inline f64x4
lane_round(f64x4 v)
{
    return (f64x4)_mm256_round_pd(
        (__m256d)v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}

[[gnu::target("avx2"), gnu::always_inline]] inline u64x4
lane_gather(const u64 *p, u64x4 idx)
{
    return (u64x4)_mm256_i64gather_epi64(
        reinterpret_cast<const long long *>(p), (__m256i)idx, 8);
}

[[gnu::target("avx2"), gnu::always_inline]] inline void
lane_scatter(u64 *p, u64x4 idx, u64x4 v)
{
    for (int l = 0; l < 4; ++l)
        p[idx[l]] = v[l];
}

[[gnu::target("fma"), gnu::always_inline]] inline double
lane_fma(double a, double b, double c)
{
    return __builtin_fma(a, b, c);
}

[[gnu::target("sse4.1"), gnu::always_inline]] inline double
lane_round(double v)
{
    return __builtin_rint(v);
}

namespace avx512 {
using Vec = f64x8;
using Half = f64x4;
using Words = u64x8;
#define NEO_LANE_TARGET "avx512f,avx2,fma"
#include "tensor/fp64_lanes.inc"
#undef NEO_LANE_TARGET
} // namespace avx512

namespace avx2 {
using Vec = f64x4;
using Half = f64x2;
using Words = u64x4;
#define NEO_LANE_TARGET "avx2,fma"
#include "tensor/fp64_lanes.inc"
#undef NEO_LANE_TARGET
} // namespace avx2

#endif

/// One ISA level's FP64 kernels. The portable level slices and
/// multiplies with the scalar loops and recombines with the scalar
/// Shoup sum.
struct LaneKernels
{
    SliceFn<double> slice;
    SliceTFn<double> slice_t;
    BlockFn<double> block;
    RecombineFn recombine;
    SitesFn sites;
};

LaneKernels
lane_kernels(Isa isa)
{
#if defined(__x86_64__) || defined(__i386__)
    if (isa == Isa::avx512)
        return {avx512::slice, avx512::slice_t, avx512::block,
                avx512::recombine, avx512::sites};
    if (isa == Isa::avx2)
        return {avx2::slice, avx2::slice_t, avx2::block, avx2::recombine,
                avx2::sites};
#endif
    (void)isa;
    return {slice_planes<double>, slice_transposed<double>,
            plane_gemm_block<double>, nullptr, nullptr};
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
 * How plane-pair products become residues of C: pair p of modulus r
 * carries the weight w[p·count + r] = 2^shift mod q_r. With lane_fn
 * set, the active level's FP64 lanes recombine; otherwise the scalar
 * Shoup sum runs with the Shoup constants ws.
 */
struct Recombine
{
    ModulusMap map;
    size_t pairs;
    const u64 *w, *ws;
    RecombineFn lane_fn;
};

/**
 * Scalar recombine of one run of modulus r: c[e·cs] = Σ_p w_p·x[p·ps +
 * e] mod q_r, one mulhi and one correction per pair. mul_shoup is exact
 * for any u64 input when w < q, so the plane sum (< 2^53, or < 2^31
 * for INT32) needs no reduction first.
 */
template <class Plane>
void
shoup_sum(const Plane *x, size_t ps, size_t len, u64 *c, size_t cs,
          const Recombine &rc, size_t r)
{
    const u64 qv = rc.map.mods[r].value();
    for (size_t e = 0; e < len; ++e) {
        u64 acc = 0;
        for (size_t p = 0; p < rc.pairs; ++p) {
            const size_t at = p * rc.map.count + r;
            acc = add_mod(acc,
                          mul_shoup(plane_value(x[p * ps + e]), rc.w[at],
                                    rc.ws[at], qv),
                          qv);
        }
        c[e * cs] = acc;
    }
}

/// One recombine run of modulus r (see shoup_sum), in lanes when the
/// call has them. w / wq hold room for the run's lane weights.
template <class Plane>
void
recombine_run(const Plane *x, size_t ps, size_t len, u64 *c, size_t cs,
              const Recombine &rc, size_t r, double *w, double *wq)
{
    if constexpr (std::is_same_v<Plane, double>) {
        if (rc.lane_fn) {
            rc.lane_fn(x, ps, len, c, cs,
                       lane_weights(rc.w + r, rc.map.count, rc.pairs,
                                    rc.map.mods[r].value(), w, wq));
            return;
        }
    }
    (void)w;
    (void)wq;
    shoup_sum(x, ps, len, c, cs, rc, r);
}

/**
 * One-modulus and per-column body: slice both operands into the call's
 * workspace frame, then walk the output in tiles, parallel over row
 * chunks. Each tile multiplies all its plane pairs into a per-thread
 * buffer, one pair after another, and then recombines in one pass, so
 * C is written once per element.
 *
 * One modulus: the tile is rows × cols of C, row-major, so a tile of
 * whole rows is one contiguous run. Per column: the tile is the
 * transposed product Bᵀ·Aᵀ, cols × rows, so each run is one column of
 * C with one modulus, the lanes run down the long row dimension even
 * when C has only a few columns, and the run scatters with stride n.
 */
template <class Plane>
void
tile_gemm(const u64 *a, const u64 *b, u64 *c, const GemmShape &s,
          const SplitPlan &plan, const Recombine &rc, SliceFn<Plane> slice,
          SliceTFn<Plane> slice_t, BlockFn<Plane> block,
          Workspace::Frame &frame)
{
    const size_t m = s.m, n = s.n, k = s.k;
    if (m == 0 || n == 0)
        return; // an empty C; the tile extents below divide by n
    const bool cols = rc.map.kind == ModulusMap::Kind::per_column;
    Plane *ap = frame.alloc<Plane>(static_cast<size_t>(plan.a_planes) * m * k);
    Plane *bp = frame.alloc<Plane>(static_cast<size_t>(plan.b_planes) * k * n);
    if (cols) {
        slice_t(a, m, k, plan.a_planes, plan.a_plane_bits, ap);
        slice_t(b, k, n, plan.b_planes, plan.b_plane_bits, bp);
    } else {
        slice(a, m * k, plan.a_planes, plan.a_plane_bits, ap);
        slice(b, k * n, plan.b_planes, plan.b_plane_bits, bp);
    }
    const size_t bpl = static_cast<size_t>(plan.b_planes);
    // Tile extent along n (all of it per column) and along m.
    const size_t tn = cols ? n : std::min(n, kNC);
    const size_t tm = std::max(kMR, kTile / tn);
    parallel_for(
        0, m,
        [&](size_t rb, size_t re) {
            Workspace::Frame tf;
            const size_t tile = std::min(tm, re - rb) * tn;
            Plane *prod = tf.alloc<Plane>(rc.pairs * tile);
            double *w = tf.alloc<double>(2 * rc.pairs);
            for (size_t i0 = rb; i0 < re; i0 += tm) {
                const size_t rows = std::min(tm, re - i0);
                for (size_t j0 = 0; j0 < n; j0 += tn) {
                    const size_t nc = std::min(tn, n - j0);
                    // The per-plane GEMMs the TCU executes, exact because
                    // every accumulation stays inside the plan's budget.
                    for (size_t pair = 0; pair < rc.pairs; ++pair) {
                        const size_t pa = pair / bpl, pb = pair % bpl;
                        Plane *out = prod + pair * tile;
                        for (size_t t0 = 0; t0 < k; t0 += kKC) {
                            const size_t t1 = std::min(k, t0 + kKC);
                            if (cols)
                                block(bp + pb * n * k, ap + pa * k * m + i0,
                                      out, nc, rows, t0, t1, k, m, rows,
                                      t0 == 0);
                            else
                                block(ap + (pa * m + i0) * k,
                                      bp + pb * k * n + j0, out, rows, nc, t0,
                                      t1, k, n, nc, t0 == 0);
                        }
                    }
                    u64 *ct = c + i0 * n + j0;
                    if (cols)
                        for (size_t j = 0; j < nc; ++j)
                            recombine_run(prod + j * rows, tile, rows, ct + j,
                                          n, rc, j, w, w + rc.pairs);
                    else if (nc == n)
                        recombine_run(prod, tile, rows * n, ct, 1, rc, 0, w,
                                      w + rc.pairs);
                    else
                        for (size_t i = 0; i < rows; ++i)
                            recombine_run(prod + i * nc, tile, nc, ct + i * n,
                                          1, rc, 0, w, w + rc.pairs);
                }
            }
        },
        std::max(kMR, row_grain(m, n, k * rc.pairs)));
}

/**
 * Scalar per-site body over sites [sb, se), for the levels and planes
 * without FP64 lanes. Each site's A and B are sliced here, inside the
 * parallel site loop, so a site's planes are still in L1 when its
 * plane pairs multiply; a site is a handful of words, so each pair
 * runs a triple loop, and the site recombines all its pairs in one
 * pass. Shape and plan come by value: the u64 stores into C then
 * cannot alias the loop bounds.
 */
template <class Plane>
void
site_range(const u64 *a, const u64 *b, u64 *c, size_t sb, size_t se,
           GemmShape s, SplitPlan plan, const Recombine &rc)
{
    const size_t m = s.m, n = s.n, k = s.k;
    const size_t apl = static_cast<size_t>(plan.a_planes);
    const size_t bpl = static_cast<size_t>(plan.b_planes);
    Workspace::Frame frame;
    Plane *ap = frame.alloc<Plane>(apl * m * k);
    Plane *bp = frame.alloc<Plane>(bpl * k * n);
    Plane *prod = frame.alloc<Plane>(rc.pairs * m * n);
    for (size_t site = sb; site < se; ++site) {
        slice_planes(a + site * m * k, m * k, plan.a_planes, plan.a_plane_bits,
                     ap);
        slice_planes(b + site * k * n, k * n, plan.b_planes, plan.b_plane_bits,
                     bp);
        for (size_t pa = 0, pair = 0; pa < apl; ++pa)
            for (size_t pb = 0; pb < bpl; ++pb, ++pair) {
                const Plane *am = ap + pa * m * k;
                const Plane *bm = bp + pb * k * n;
                for (size_t i = 0; i < m; ++i)
                    for (size_t j = 0; j < n; ++j) {
                        Plane acc = 0;
                        for (size_t t = 0; t < k; ++t)
                            acc += am[i * k + t] * bm[t * n + j];
                        prod[pair * m * n + i * n + j] = acc;
                    }
            }
        shoup_sum(prod, m * n, m * n, c + site * m * n, 1, rc,
                  site % rc.map.count);
    }
}

/**
 * The sliced-GEMM core of the fp64_tcu and int8_tcu engines. It plans
 * the split, derives each plane pair's recombine weight 2^shift mod q
 * for every modulus of the map, then slices, multiplies and
 * recombines. Operands are sliced on every call, as the tensor cores
 * split and merge inside every GEMM (§3.4); nothing about an operand
 * outlives the call. FP64 planes recombine in the active level's lanes
 * whenever fp64_lanes_exact proves them exact for the plan and the
 * map's widest modulus; INT8 planes, the portable level and wider
 * moduli run the scalar Shoup sum.
 */
template <class Plane>
void
sliced_gemm(const u64 *a, const u64 *b, u64 *c, const GemmShape &s,
            const ModulusMap &map)
{
    // One-modulus and per-site operands are residues, so the planes are
    // sized to the widest modulus. A per-column A operand is in the
    // BConv source basis, so those planes are sized to the widest word
    // present.
    int q_bits = 0, q_bits_min = 64;
    for (size_t r = 0; r < map.count; ++r) {
        q_bits = std::max(q_bits, map.mods[r].bits());
        q_bits_min = std::min(q_bits_min, map.mods[r].bits());
    }
    int wa = q_bits, wb = q_bits;
    if (map.kind == ModulusMap::Kind::per_column) {
        wa = operand_bits(a, s.m * s.k);
        wb = operand_bits(b, s.k * s.n);
    }
    const SplitPlan plan = choose_split<Plane>(wa, wb, s.k);
    const size_t pairs = static_cast<size_t>(plan.products());
    const LaneKernels isa = lane_kernels(active_isa());
    // The lanes' final correction needs q ≥ 8 (fp64_lanes_exact).
    const bool lanes = std::is_same_v<Plane, double> && isa.recombine &&
                       q_bits_min >= 4 && fp64_lanes_exact(plan, s.k, q_bits);
    Workspace::Frame frame;
    u64 *w = frame.alloc<u64>(pairs * map.count);
    // The lanes take their constants from w alone.
    u64 *ws = lanes ? nullptr : frame.alloc<u64>(pairs * map.count);
    for (size_t pair = 0; pair < pairs; ++pair) {
        const int shift =
            static_cast<int>(pair / plan.b_planes) * plan.a_plane_bits +
            static_cast<int>(pair % plan.b_planes) * plan.b_plane_bits;
        for (size_t r = 0; r < map.count; ++r) {
            const u64 qv = map.mods[r].value();
            const size_t at = pair * map.count + r;
            w[at] = pow_mod(2, shift, qv);
            if (ws)
                ws[at] = shoup_precompute(w[at], qv);
        }
    }
    const Recombine rc{map, pairs, w, ws, lanes ? isa.recombine : nullptr};
    if (map.kind != ModulusMap::Kind::per_site) {
        if constexpr (std::is_same_v<Plane, double>)
            tile_gemm<Plane>(a, b, c, s, plan, rc, isa.slice, isa.slice_t,
                             isa.block, frame);
        else
            tile_gemm<Plane>(a, b, c, s, plan, rc, slice_planes<Plane>,
                             slice_transposed<Plane>, plane_gemm_block<Plane>,
                             frame);
        return;
    }
    const size_t grain = row_chunk_grain(s.sites, pairs * s.m * s.n * s.k);
    if (lanes) {
        const SiteGemm g{a, b, c, s, plan, map.mods, map.count, w};
        // One lane vector's A planes, pair sums and lane weights.
        const size_t scratch =
            (static_cast<size_t>(plan.a_planes) * s.m * s.k + pairs) *
                kMaxLanes +
            2 * pairs;
        parallel_for(
            0, s.sites,
            [&](size_t sb, size_t se) {
                Workspace::Frame tf;
                isa.sites(g, sb, se, tf.alloc<double>(scratch));
            },
            grain);
        return;
    }
    parallel_for(
        0, s.sites,
        [&](size_t sb, size_t se) {
            site_range<Plane>(a, b, c, sb, se, s, plan, rc);
        },
        grain);
}

/// Columns [j, j + W) of one output row over the K slab [t0, t1): the
/// slab's products plus the residue the previous slab left in C (none
/// for the first), reduced modulo qs[(j + jj)·Stride].
template <size_t W, size_t Stride>
[[gnu::always_inline]] inline void
scalar_tile(const u64 *ar, const u64 *bs, u64 *cr, size_t j, size_t n,
            size_t t0, size_t t1, const Modulus *qs)
{
    u128 acc[W];
    for (size_t jj = 0; jj < W; ++jj)
        acc[jj] = t0 == 0 ? 0 : cr[j + jj];
    for (size_t t = t0; t < t1; ++t) {
        const u128 av = ar[t];
        for (size_t jj = 0; jj < W; ++jj)
            acc[jj] += av * bs[t * n + j + jj];
    }
    for (size_t jj = 0; jj < W; ++jj)
        cr[j + jj] = qs[(j + jj) * Stride].reduce128(acc[jj]);
}

/**
 * Output rows [rb, re) of the scalar engine over K slabs of @p slab
 * terms, with a 2-column register tile (wider tiles spill the u128
 * accumulators around the reduction calls). A row looks its modulus up
 * once, the map's or its site's; per column (PerColumn), column j reads
 * mods[j]. Shape and map come by value: the u64 stores into C then
 * cannot alias the loop bounds.
 */
template <bool PerColumn>
void
scalar_rows(const u64 *a, const u64 *b, u64 *c, size_t rb, size_t re,
            GemmShape s, ModulusMap map, size_t slab)
{
    const size_t m = s.m, n = s.n, k = s.k;
    const bool per_site = map.kind == ModulusMap::Kind::per_site;
    constexpr size_t kStride = PerColumn ? 1 : 0;
    constexpr size_t kCols = 2;
    for (size_t t0 = 0; t0 < k; t0 += slab) {
        const size_t t1 = std::min(k, t0 + slab);
        size_t site = rb / m, i = rb % m;
        size_t r_mod = per_site ? site % map.count : 0;
        for (size_t r = rb; r < re; ++r) {
            const u64 *ar = a + r * k;
            const u64 *bs = b + site * k * n;
            u64 *cr = c + r * n;
            const Modulus *qs = map.mods + r_mod;
            size_t j = 0;
            for (; j + kCols <= n; j += kCols)
                scalar_tile<kCols, kStride>(ar, bs, cr, j, n, t0, t1, qs);
            for (; j < n; ++j)
                scalar_tile<1, kStride>(ar, bs, cr, j, n, t0, t1, qs);
            if (++i == m) {
                i = 0;
                ++site;
                if (per_site && ++r_mod == map.count)
                    r_mod = 0;
            }
        }
    }
}

/**
 * The scalar engine (the CUDA-core analogue): one u128
 * multiply-accumulate loop over the sites·m output rows, parallel over
 * row chunks.
 *
 * Products are below 2^(wa+wb) and a residue below 2^63, so a u128
 * holds 2^(127−wa−wb) products plus one residue. K runs in slabs of
 * that many terms, each folded into C, which keeps every K exact: a
 * slab is two terms at 63-bit words and 128 at 60 bits, and every K
 * the kernels issue fits one slab.
 */
void
scalar_gemm(const u64 *a, const u64 *b, u64 *c, const GemmShape &s,
            const ModulusMap &map)
{
    const bool cols = map.kind == ModulusMap::Kind::per_column;
    // Residues are below the widest modulus. A per-column A word may be
    // any u64 (the BConv source basis); B, the small factor table, is
    // measured.
    int q_bits = 1;
    for (size_t r = 0; r < map.count; ++r)
        q_bits = std::max(q_bits, map.mods[r].bits());
    const int wa = cols ? 64 : q_bits;
    const int wb = cols ? operand_bits(b, s.k * s.n) : q_bits;
    const size_t slab = size_t{1} << std::clamp(127 - wa - wb, 0, 62);
    parallel_for(
        0, s.sites * s.m,
        [&](size_t rb, size_t re) {
            if (cols)
                scalar_rows<true>(a, b, c, rb, re, s, map, slab);
            else
                scalar_rows<false>(a, b, c, rb, re, s, map, slab);
        },
        row_grain(s.sites * s.m, s.n, s.k));
}

} // namespace

void
gemm(EngineId engine, const u64 *a, const u64 *b, u64 *c,
     const GemmShape &shape, const ModulusMap &moduli)
{
    using Kind = ModulusMap::Kind;
    NEO_CHECK(moduli.kind != Kind::per_column || moduli.count == shape.n,
              "column modulus count mismatch");
    NEO_CHECK(moduli.kind != Kind::per_site || moduli.count > 0,
              "site modulus list empty");
    NEO_CHECK(moduli.kind == Kind::per_site || shape.sites == 1,
              "only a per-site modulus map takes sites");
    const char *name = nullptr;
    void (*body)(const u64 *, const u64 *, u64 *, const GemmShape &,
                 const ModulusMap &) = nullptr;
    switch (engine) {
    case EngineId::fp64_tcu:
        name = "fp64_gemm";
        body = sliced_gemm<double>;
        break;
    case EngineId::int8_tcu:
        name = "int8_gemm";
        body = sliced_gemm<i32>;
        break;
    case EngineId::scalar:
        name = "scalar_gemm";
        body = scalar_gemm;
        break;
    }
    NEO_CHECK(body != nullptr, "invalid EngineId");
    obs::Span span(name, obs::cat::gemm);
    note_gemm(shape.sites * shape.m, shape.n, shape.k);
    // K = 0 is the empty sum; the engines' tile loops would leave C
    // unwritten.
    if (shape.k == 0) {
        std::fill_n(c, shape.sites * shape.m * shape.n, u64{0});
        return;
    }
    body(a, b, c, shape, moduli);
}

} // namespace neo
