/**
 * @file
 * neo::ThreadPool — the host-side parallel execution engine.
 *
 * The paper's speedups come from running the KLSS kernels (BConv, NTT,
 * IP) on wide parallel hardware; this pool is the CPU reproduction's
 * analogue. Every hot path (per-limb batch NTT/INTT, GEMM row tiles,
 * BConv columns, per-digit Recover Limbs) funnels through
 * `parallel_for`, which splits an index range into fixed chunks and
 * executes them on a persistent worker pool.
 *
 * Determinism contract (the repo's strongest invariant is bit-exactness
 * against the reference KeySwitch):
 *
 *  - `parallel_for` bodies receive *half-open index ranges* and must
 *    write only to locations derived from those indices — all
 *    parallelism in this codebase is over disjoint output tiles.
 *  - Any accumulation happens *inside* a single chunk in the same
 *    order as the sequential code (fixed-order per-tile accumulation);
 *    chunk boundaries never split a reduction.
 *  - Hence results are bit-identical for every thread count, including
 *    the degenerate 1-thread (inline) execution.
 *
 * Thread count comes from the NEO_NUM_THREADS environment variable
 * (default: hardware concurrency); every count, explicit or from the
 * environment, is capped at ThreadPool::kMaxThreads. Nested
 * `parallel_for` calls run inline on the calling worker, so recursive
 * kernels (radix-16 NTT inside a per-digit fan-out) cannot deadlock
 * the pool.
 *
 * Bodies must not throw: an exception escaping a worker thread would
 * terminate the process. Validate preconditions before going parallel.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace neo {

class ThreadPool
{
  public:
    /// Body of a parallel loop: operates on indices [begin, end).
    using RangeFn = std::function<void(size_t begin, size_t end)>;

    /// Most executors a pool runs, whatever count it is asked for.
    static constexpr size_t kMaxThreads = 1024;

    /**
     * Create a pool with @p threads total executors (the submitting
     * thread counts as one; @p threads - 1 workers are spawned),
     * capped at kMaxThreads. 0 means "read NEO_NUM_THREADS / hardware
     * concurrency".
     */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /// Total executor count (submitter + workers), >= 1.
    size_t threads() const { return n_threads_; }

    /**
     * Execute @p body over [begin, end) split into chunks of at least
     * @p grain indices. Blocks until every chunk has completed. Runs
     * inline (single call covering the whole range) when the pool has
     * one executor, the range is at most @p grain, or the caller is
     * itself a pool worker (nested parallelism).
     */
    void parallel_for(size_t begin, size_t end, size_t grain,
                      const RangeFn &body);

    /// The process-wide pool used by the kernel call sites.
    static ThreadPool &global();

    /**
     * Resize the process-wide pool (joins the old workers first),
     * capped at kMaxThreads. @p threads = 0 re-reads NEO_NUM_THREADS.
     * Not safe to call while parallel work is in flight.
     */
    static void set_global_threads(size_t threads);

    /// NEO_NUM_THREADS if set to a positive integer (at most
    /// kMaxThreads), else std::thread::hardware_concurrency() (at
    /// least 1).
    static size_t env_threads();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_; // null when n_threads_ == 1
    size_t n_threads_;
};

/**
 * parallel_for over the global pool. @p grain is the minimum number of
 * indices per chunk — size it so one chunk amortises the dispatch cost
 * (a few microseconds) and never splits an accumulation.
 */
void parallel_for(size_t begin, size_t end, const ThreadPool::RangeFn &body,
                  size_t grain = 1);

/**
 * Grain for row-parallel GEMM-like loops over @p rows rows of
 * @p work_per_row operations each. Guarantees at least @p min_work
 * operations per chunk and at most ~4 chunks per pool executor; a
 * 1-executor pool gets exactly one chunk (zero chunking overhead).
 * Chunk boundaries split disjoint output rows only — every element's
 * accumulation lives inside one chunk — so the grain affects
 * scheduling, never results.
 */
inline size_t
row_chunk_grain(size_t rows, size_t work_per_row, size_t min_work = 16384)
{
    const size_t per_row = work_per_row == 0 ? 1 : work_per_row;
    const size_t grain = min_work / per_row == 0 ? 1 : min_work / per_row;
    const size_t threads = ThreadPool::global().threads();
    if (threads <= 1)
        return grain > rows ? grain : (rows == 0 ? 1 : rows);
    const size_t cap = (rows + 4 * threads - 1) / (4 * threads);
    const size_t lo = cap == 0 ? 1 : cap;
    return grain > lo ? grain : lo;
}

} // namespace neo
