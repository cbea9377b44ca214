/**
 * @file
 * Persistent worker pool with dynamically-scheduled parallel loops.
 *
 * The paper schedules aggregation chunks with OpenMP's dynamic scheduler to
 * balance power-law degree skew (Section 4.1). We implement the equivalent
 * here: a shared atomic chunk cursor that idle workers pull from, so a
 * worker that drew a heavy chunk (high-degree vertices) does not stall the
 * others. The pool is reused across calls to avoid thread spawn cost in the
 * per-layer hot path.
 *
 * Two contracts the static-analysis layer enforces mechanically:
 *
 *  - Dispatch is allocation-free. Jobs are passed as FunctionRef (two
 *    raw words, no ownership), not std::function, so entering a
 *    parallel region in the per-block hot path never touches the heap.
 *    Lifetime is structural: runOnAll() blocks until every worker has
 *    finished the job, so the caller's callable outlives all uses.
 *  - Shared pool state is annotated for clang -Wthread-safety
 *    (GRAPHITE_GUARDED_BY on everything mutex_ protects); the CI
 *    static-analysis job fails on any unlocked access.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "common/function_ref.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace graphite {

/** Reusable fork-join thread pool. */
class ThreadPool
{
  public:
    /**
     * @param numThreads worker count; 0 means hardware_concurrency().
     */
    explicit ThreadPool(std::size_t numThreads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Number of workers (including the calling thread). */
    std::size_t numThreads() const { return numThreads_; }

    /**
     * Run @p body(threadId) once on every worker and block until all
     * finish. threadId ranges over [0, numThreads()). If any invocation
     * throws, one of the captured exceptions is rethrown on the calling
     * thread after every worker has finished; the pool stays usable.
     * @p body is borrowed, not copied — it must stay alive until
     * runOnAll returns (it does: the call blocks).
     */
    void runOnAll(FunctionRef<void(std::size_t)> body);

    /**
     * Dynamically-scheduled parallel loop over [begin, end) in steps of
     * @p chunk (clamped to at least 1). Each worker repeatedly claims
     * the next chunk from a shared cursor and invokes
     * @p body(chunkBegin, chunkEnd, threadId). An exception thrown by
     * @p body stops further chunks from being claimed and is rethrown
     * on the calling thread (see runOnAll).
     *
     * A non-null @p prologue runs once on every worker before it claims
     * anything, whether or not a chunk is left for it. Kernels size
     * their per-worker scratch there: grown only on the workers that
     * happen to draw a chunk, that scratch could first grow in a later
     * steady-state call, breaking the allocation-free contract. The
     * prologue touches the calling worker's own thread-locals only.
     */
    void parallelForChunked(
        std::size_t begin, std::size_t end, std::size_t chunk,
        FunctionRef<void(std::size_t, std::size_t, std::size_t)> body,
        FunctionRef<void()> prologue = {});

    /** Process-wide default pool (lazily constructed). */
    static ThreadPool &global();

    /**
     * Reconfigure the global pool's size. Affects subsequent global()
     * callers; intended for benches that sweep thread counts.
     */
    static void setGlobalThreads(std::size_t numThreads);

  private:
    void workerLoop(std::size_t threadId);

    /** Record the first exception a job raised (any thread). */
    void recordJobException();

    std::size_t numThreads_;
    std::vector<std::thread> workers_;

    Mutex mutex_;
    CondVar wakeWorkers_;
    CondVar jobDone_;
    FunctionRef<void(std::size_t)> job_ GRAPHITE_GUARDED_BY(mutex_);
    std::exception_ptr jobException_ GRAPHITE_GUARDED_BY(mutex_);
    std::uint64_t jobGeneration_ GRAPHITE_GUARDED_BY(mutex_) = 0;
    std::size_t activeWorkers_ GRAPHITE_GUARDED_BY(mutex_) = 0;
    bool shuttingDown_ GRAPHITE_GUARDED_BY(mutex_) = false;
};

/**
 * Convenience wrapper: dynamically-scheduled loop over [begin, end) on the
 * global pool. @p body receives (index range begin, range end, threadId);
 * @p prologue runs once per worker (see parallelForChunked).
 */
void parallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                 FunctionRef<void(std::size_t, std::size_t, std::size_t)>
                     body,
                 FunctionRef<void()> prologue = {});

} // namespace graphite
