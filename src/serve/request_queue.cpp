#include "serve/request_queue.h"

#include <chrono>

#include "common/assert.h"

namespace graphite::serve {

std::uint64_t
monotonicNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

RequestQueue::RequestQueue(std::size_t capacity) : ring_(capacity)
{
    GRAPHITE_ASSERT(capacity > 0, "request queue needs capacity > 0");
}

bool
RequestQueue::push(const InferenceRequest &req)
{
    {
        MutexLock lock(mutex_);
        if (closed_ || count_ == ring_.size())
            return false;
        ring_[(head_ + count_) % ring_.size()] = req;
        ++count_;
    }
    nonEmpty_.notify_one();
    return true;
}

std::size_t
RequestQueue::popBatch(InferenceRequest *out, std::size_t max,
                       std::int64_t budgetNs)
{
    GRAPHITE_ASSERT(max > 0, "popBatch needs max > 0");
    MutexLock lock(mutex_);
    while (count_ == 0 && !closed_ && !woken_)
        nonEmpty_.wait(lock, mutex_);
    woken_ = false;
    if (count_ == 0)
        return 0; // closed and drained, or woken
    // The batch deadline runs from the moment the first request is
    // available — a lone request never waits longer than the budget.
    const std::uint64_t deadline = monotonicNanos() +
                                   static_cast<std::uint64_t>(
                                       budgetNs > 0 ? budgetNs : 0);
    std::size_t n = 0;
    for (;;) {
        while (n < max && count_ > 0) {
            out[n++] = ring_[head_];
            head_ = (head_ + 1) % ring_.size();
            --count_;
        }
        if (n >= max || closed_)
            break;
        const std::uint64_t now = monotonicNanos();
        if (now >= deadline)
            break;
        nonEmpty_.waitFor(lock, mutex_,
                          static_cast<std::int64_t>(deadline - now));
    }
    return n;
}

void
RequestQueue::close()
{
    {
        MutexLock lock(mutex_);
        closed_ = true;
    }
    nonEmpty_.notify_all();
}

void
RequestQueue::wake()
{
    {
        MutexLock lock(mutex_);
        woken_ = true;
    }
    nonEmpty_.notify_all();
}

bool
RequestQueue::closed() const
{
    MutexLock lock(mutex_);
    return closed_;
}

bool
RequestQueue::drained() const
{
    MutexLock lock(mutex_);
    return closed_ && count_ == 0;
}

std::size_t
RequestQueue::size() const
{
    MutexLock lock(mutex_);
    return count_;
}

} // namespace graphite::serve
