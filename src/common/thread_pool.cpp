#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace neo {

namespace {

/// Set for pool workers (permanently) and for a submitting thread
/// while it participates in chunk execution: any parallel_for issued
/// from such a thread runs inline instead of re-entering the pool.
thread_local bool tls_inside_pool = false;

/// The executor count a pool asked for @p threads runs.
size_t
pool_size(size_t threads)
{
    return std::min(threads == 0 ? ThreadPool::env_threads() : threads,
                    ThreadPool::kMaxThreads);
}

} // namespace

struct ThreadPool::Impl
{
    /// One parallel_for invocation. Lives on the submitter's stack;
    /// workers must never touch it after leaving (tracked by
    /// `active`), because the submitter frees it on return.
    struct Task
    {
        const RangeFn *body = nullptr;
        size_t begin = 0;
        size_t end = 0;
        size_t chunk = 0;   // indices per chunk
        size_t nchunks = 0; // total chunks
        std::atomic<size_t> next{0}; // next chunk to claim
        std::atomic<size_t> done{0}; // chunks completed
    };

    std::vector<std::thread> workers;
    Mutex m;
    CondVar cv_work; // workers wait for a task
    CondVar cv_done; // submitter waits for completion
    Task *task NEO_GUARDED_BY(m) = nullptr;
    std::uint64_t generation NEO_GUARDED_BY(m) = 0; // bumped per task
    size_t active NEO_GUARDED_BY(m) = 0; // workers currently inside task
    bool stop NEO_GUARDED_BY(m) = false;
    Mutex submit_m; // serialises concurrent external submitters

    void
    worker_loop()
    {
        tls_inside_pool = true;
        std::uint64_t seen = 0;
        for (;;) {
            Task *t = nullptr;
            {
                LockGuard l(m);
                // Explicit predicate loop (not the lambda-predicate
                // wait): the guarded reads stay visibly under m for
                // the thread-safety analysis.
                while (!stop &&
                       (task == nullptr || generation == seen))
                    cv_work.wait(m);
                if (stop)
                    return;
                seen = generation;
                t = task;
                ++active;
            }
            run_chunks(*t);
            {
                LockGuard l(m);
                --active;
                if (active == 0)
                    cv_done.notify_all();
            }
        }
    }

    /// Claim and execute chunks until none remain. Chunk boundaries
    /// are fixed by (begin, end, chunk) alone, so which thread runs a
    /// chunk never affects the result.
    void
    run_chunks(Task &t)
    {
        for (;;) {
            const size_t i = t.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= t.nchunks)
                return;
            const size_t b = t.begin + i * t.chunk;
            const size_t e = std::min(t.end, b + t.chunk);
            (*t.body)(b, e);
            t.done.fetch_add(1, std::memory_order_release);
        }
    }
};

ThreadPool::ThreadPool(size_t threads) : n_threads_(pool_size(threads))
{
    if (n_threads_ == 1)
        return;
    impl_ = std::make_unique<Impl>();
    impl_->workers.reserve(n_threads_ - 1);
    for (size_t i = 0; i + 1 < n_threads_; ++i)
        impl_->workers.emplace_back([p = impl_.get()] { p->worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    if (!impl_)
        return;
    {
        LockGuard l(impl_->m);
        impl_->stop = true;
    }
    impl_->cv_work.notify_all();
    for (auto &w : impl_->workers)
        w.join();
}

void
ThreadPool::parallel_for(size_t begin, size_t end, size_t grain,
                         const RangeFn &body)
{
    if (end <= begin)
        return;
    const size_t range = end - begin;
    if (grain == 0)
        grain = 1;
    if (!impl_ || tls_inside_pool || range <= grain) {
        body(begin, end);
        return;
    }

    // Chunk count: enough for load balance (4 per executor), capped so
    // chunks stay at least `grain` long.
    size_t nchunks = std::min(range / grain, n_threads_ * 4);
    if (nchunks <= 1) {
        body(begin, end);
        return;
    }
    const size_t chunk = (range + nchunks - 1) / nchunks;
    nchunks = (range + chunk - 1) / chunk;

    Impl::Task t;
    t.body = &body;
    t.begin = begin;
    t.end = end;
    t.chunk = chunk;
    t.nchunks = nchunks;

    LockGuard submit(impl_->submit_m);
    {
        LockGuard l(impl_->m);
        impl_->task = &t;
        ++impl_->generation;
    }
    impl_->cv_work.notify_all();

    // The submitter works too; nested parallel_for from inside the
    // body runs inline.
    tls_inside_pool = true;
    impl_->run_chunks(t);
    tls_inside_pool = false;

    // Wait until every chunk ran AND every worker has left the task —
    // only then may the stack-allocated Task be destroyed. Worker
    // writes are published by the mutex they release on exit.
    LockGuard l(impl_->m);
    while (impl_->active != 0 ||
           t.done.load(std::memory_order_acquire) != t.nchunks)
        impl_->cv_done.wait(impl_->m);
    impl_->task = nullptr;
}

// Magic-static singleton: g_pool is guarded by the function-local g_m,
// which the attribute grammar cannot name from a member declaration —
// one of the documented NEO_NO_THREAD_SAFETY_ANALYSIS exceptions.
ThreadPool &
ThreadPool::global() NEO_NO_THREAD_SAFETY_ANALYSIS
{
    static Mutex g_m;
    // neo-lint: allow(thread-unsafe-static) — guarded by g_m.
    static std::unique_ptr<ThreadPool> g_pool;
    LockGuard l(g_m);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(0);
    return *g_pool;
}

// Invariant: callers never resize while parallel work is in flight
// (documented on the declaration), so the impl_/n_threads_ swap below
// races with nothing; g_m only serialises concurrent resizers. The
// function-local lock is not nameable in attributes — documented
// exception, like global().
void
ThreadPool::set_global_threads(size_t threads) NEO_NO_THREAD_SAFETY_ANALYSIS
{
    static Mutex g_m; // distinct lock: guards the swap below
    LockGuard l(g_m);
    ThreadPool &g = global();
    const size_t want = pool_size(threads);
    if (g.n_threads_ == want)
        return;
    // Rebuild in place: join old workers, spawn the new complement.
    ThreadPool fresh(want);
    std::swap(g.impl_, fresh.impl_);
    std::swap(g.n_threads_, fresh.n_threads_);
}

size_t
ThreadPool::env_threads()
{
    if (const char *env = std::getenv("NEO_NUM_THREADS")) {
        char *endp = nullptr;
        const long v = std::strtol(env, &endp, 10);
        if (endp != env && *endp == '\0' && v > 0)
            return std::min(static_cast<size_t>(v), kMaxThreads);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallel_for(size_t begin, size_t end, const ThreadPool::RangeFn &body,
             size_t grain)
{
    ThreadPool::global().parallel_for(begin, end, grain, body);
}

} // namespace neo
