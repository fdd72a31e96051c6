#include "common/workspace.h"

#include <algorithm>
#include <atomic>

namespace neo {

namespace {

constexpr size_t kAlign = 64;
constexpr size_t kMinBlock = 1u << 16; // 64 KiB

std::atomic<WorkspaceStatsFn> g_stats{nullptr};

size_t
align_up(size_t v)
{
    return (v + (kAlign - 1)) & ~(kAlign - 1);
}

} // namespace

void
set_workspace_stats_hook(WorkspaceStatsFn fn)
{
    g_stats.store(fn, std::memory_order_release);
}

Workspace &
Workspace::tls()
{
    thread_local Workspace ws;
    return ws;
}

void *
Workspace::raw_alloc(size_t bytes)
{
    const size_t need = align_up(std::max<size_t>(bytes, 1));
    size_t reused = 0, fresh = 0;
    // First block whose tail fits the request. Blocks past active_ are
    // fully free (release() rewound them), so only active_'s partial
    // tail can be skipped — at most one partial region is wasted per
    // nesting level, reclaimed when the frame closes.
    size_t b = active_;
    while (b < blocks_.size() && blocks_[b].size - blocks_[b].used < need)
        ++b;
    if (b == blocks_.size()) {
        Block blk;
        blk.size = std::max({need, kMinBlock, capacity_});
        // Not zero-filled: callers overwrite what they take, so a page
        // becomes resident only when a frame first reaches it, not when
        // the geometric growth reserves it.
        blk.data = std::make_unique_for_overwrite<unsigned char[]>(blk.size);
        capacity_ += blk.size;
        blocks_.push_back(std::move(blk));
        fresh = need;
    } else {
        reused = need;
    }
    active_ = b;
    Block &blk = blocks_[b];
    void *p = blk.data.get() + blk.used;
    blk.used += need;
    live_ += need;
    const size_t hw = std::max(high_water_, live_);
    const bool new_high = hw > high_water_;
    high_water_ = hw;
    if (auto *fn = g_stats.load(std::memory_order_acquire))
        fn(reused, fresh, new_high ? hw : 0);
    return p;
}

Workspace::Frame::Mark
Workspace::mark() const
{
    return {active_, blocks_.empty() ? 0 : blocks_[active_].used, live_};
}

void
Workspace::release(const Frame::Mark &m)
{
    for (size_t b = m.block + 1; b <= active_ && b < blocks_.size(); ++b)
        blocks_[b].used = 0;
    if (m.block < blocks_.size())
        blocks_[m.block].used = m.used;
    active_ = std::min(m.block, blocks_.empty() ? 0 : blocks_.size() - 1);
    live_ = m.live;
}

} // namespace neo
