/**
 * @file
 * Bounded MPSC queue of per-vertex inference requests — the front door
 * of the online serving layer (DESIGN.md §13).
 *
 * Producers (request threads, the load generator) push single-vertex
 * queries without blocking; the one consumer (InferenceServer::run)
 * pops *batches*, coalescing whatever arrives within a latency budget
 * into one sampled forward pass. The queue is the only producer/
 * consumer handoff in the serving path, so it is deliberately tiny: a
 * preallocated ring, one Mutex (annotated for -Wthread-safety), one
 * CondVar. Push is non-blocking — an open-loop arrival process must
 * shed load at the door rather than queue unboundedly, so a full ring
 * rejects and the caller counts the drop.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace graphite::serve {

/** Monotonic (steady-clock) nanosecond timestamp for latency math. */
std::uint64_t monotonicNanos();

/** One per-vertex inference query. */
struct InferenceRequest
{
    /** Request id; seeds neighbor sampling via requestSeed(id). */
    std::uint64_t id = 0;
    /** Vertex whose embedding is requested. */
    VertexId vertex = 0;
    /** monotonicNanos() at enqueue, for end-to-end latency. */
    std::uint64_t enqueueNs = 0;
    /**
     * Caller-owned destination row (outFeatures wide) the served
     * embedding is written to. Must stay valid until served.
     */
    Feature *out = nullptr;
    /** Optional out-param: end-to-end latency in microseconds. */
    double *latencyUs = nullptr;
};

/**
 * Bounded multi-producer single-consumer request queue.
 *
 * push() never blocks (false on full or closed); popBatch() blocks for
 * the first request, then drains until the batch is full, the latency
 * budget measured from that first pop expires, or the queue closes.
 * wake() releases a consumer blocked on an empty queue without a
 * request, so it can do work between batches.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity);

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /**
     * Enqueue @p req. Returns false — without waiting — when the ring
     * is full or the queue is closed; the producer owns the drop.
     */
    bool push(const InferenceRequest &req);

    /**
     * Pop up to @p max requests into @p out (caller-preallocated).
     * Blocks until at least one request is available, then keeps
     * draining until @p max requests are popped or @p budgetNs
     * nanoseconds have elapsed since the first pop — the micro-batcher
     * deadline. Returns the number popped; 0 means the queue was empty
     * and either closed or woken by wake(). drained() tells the two
     * apart: only closed and drained is the consumer's shutdown signal.
     */
    std::size_t popBatch(InferenceRequest *out, std::size_t max,
                         std::int64_t budgetNs);

    /**
     * Make the current or next popBatch() return, 0 if nothing is
     * queued, without waiting for a request. One wake is consumed by
     * the popBatch() call that returns next.
     */
    void wake();

    /**
     * Close the queue: subsequent pushes fail, popBatch drains what is
     * left and then returns 0.
     */
    void close();

    bool closed() const;

    /** Closed and empty: no request will ever be popped again. */
    bool drained() const;

    /** Instantaneous occupancy (racy by nature; for reporting). */
    std::size_t size() const;

    std::size_t capacity() const { return ring_.size(); }

  private:
    mutable Mutex mutex_;
    /** Signalled on push, wake and close. */
    CondVar nonEmpty_;
    std::vector<InferenceRequest> ring_ GRAPHITE_GUARDED_BY(mutex_);
    std::size_t head_ GRAPHITE_GUARDED_BY(mutex_) = 0;
    std::size_t count_ GRAPHITE_GUARDED_BY(mutex_) = 0;
    bool closed_ GRAPHITE_GUARDED_BY(mutex_) = false;
    /** Set by wake(), cleared by the popBatch() that returns next. */
    bool woken_ GRAPHITE_GUARDED_BY(mutex_) = false;
};

} // namespace graphite::serve
