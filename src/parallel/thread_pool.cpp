#include "parallel/thread_pool.h"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <utility>

#include "common/assert.h"

namespace graphite {

ThreadPool::ThreadPool(std::size_t numThreads)
{
    if (numThreads == 0) {
        numThreads = std::thread::hardware_concurrency();
        if (numThreads == 0)
            numThreads = 1;
    }
    numThreads_ = numThreads;
    // Worker 0 is the calling thread, so spawn numThreads - 1 helpers.
    for (std::size_t t = 1; t < numThreads_; ++t)
        workers_.emplace_back(&ThreadPool::workerLoop, this, t);
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        shuttingDown_ = true;
    }
    wakeWorkers_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::recordJobException()
{
    MutexLock lock(mutex_);
    if (!jobException_)
        jobException_ = std::current_exception();
}

void
ThreadPool::runOnAll(FunctionRef<void(std::size_t)> body)
{
    if (numThreads_ == 1) {
        body(0);
        return;
    }
    {
        MutexLock lock(mutex_);
        GRAPHITE_ASSERT(activeWorkers_ == 0, "nested runOnAll");
        job_ = body;
        jobException_ = nullptr;
        ++jobGeneration_;
        activeWorkers_ = numThreads_ - 1;
    }
    wakeWorkers_.notify_all();

    // The calling thread participates as worker 0; its exception is
    // captured like any other so the workers are always joined before
    // anything propagates.
    try {
        body(0);
    } catch (...) {
        recordJobException();
    }

    std::exception_ptr pending;
    {
        MutexLock lock(mutex_);
        while (activeWorkers_ != 0)
            jobDone_.wait(lock, mutex_);
        job_ = FunctionRef<void(std::size_t)>();
        pending = std::exchange(jobException_, nullptr);
    }
    if (pending)
        std::rethrow_exception(pending);
}

void
ThreadPool::parallelForChunked(
    std::size_t begin, std::size_t end, std::size_t chunk,
    FunctionRef<void(std::size_t, std::size_t, std::size_t)> body,
    FunctionRef<void()> prologue)
{
    if (chunk == 0)
        chunk = 1;
    if (begin >= end)
        return;
    // The cursor lives on this frame: runOnAll is fully synchronous, so
    // every worker's reference to it dies before the frame does. (This
    // used to be a make_shared — one heap allocation per parallel
    // region, inside the per-block hot path.)
    std::atomic<std::size_t> cursor{begin};
    auto loop = [&](std::size_t threadId) {
        if (prologue)
            prologue();
        for (;;) {
            std::size_t chunkBegin =
                cursor.fetch_add(chunk, std::memory_order_relaxed);
            if (chunkBegin >= end)
                break;
            std::size_t chunkEnd = chunkBegin + chunk;
            if (chunkEnd > end)
                chunkEnd = end;
            try {
                body(chunkBegin, chunkEnd, threadId);
            } catch (...) {
                // Park the cursor past the end so no further chunks are
                // claimed, then let runOnAll capture the exception.
                cursor.store(end, std::memory_order_relaxed);
                throw;
            }
        }
    };
    runOnAll(loop);
}

void
ThreadPool::workerLoop(std::size_t threadId)
{
    std::uint64_t seenGeneration = 0;
    for (;;) {
        FunctionRef<void(std::size_t)> job;
        {
            MutexLock lock(mutex_);
            while (!shuttingDown_ && jobGeneration_ == seenGeneration)
                wakeWorkers_.wait(lock, mutex_);
            if (shuttingDown_)
                return;
            seenGeneration = jobGeneration_;
            job = job_;
        }
        try {
            job(threadId);
        } catch (...) {
            recordJobException();
        }
        {
            MutexLock lock(mutex_);
            --activeWorkers_;
        }
        jobDone_.notify_one();
    }
}

namespace {
std::unique_ptr<ThreadPool> g_pool;
std::mutex g_poolMutex;

/**
 * Default size of the global pool: GRAPHITE_THREADS when set (so CI can
 * force real parallelism on small runners — the TSan job runs the
 * kernels at 4 threads even on 2-vCPU machines), else
 * hardware_concurrency() via the ThreadPool(0) rule.
 */
std::size_t
defaultGlobalThreads()
{
    // graphite-lint: allow(mt-unsafe) read once under g_poolMutex while
    // the global pool is first constructed, never from pool workers.
    const char *env = std::getenv("GRAPHITE_THREADS");
    if (env != nullptr) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<std::size_t>(parsed);
    }
    return 0;
}

} // namespace

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(defaultGlobalThreads());
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(std::size_t numThreads)
{
    std::lock_guard<std::mutex> lock(g_poolMutex);
    g_pool = std::make_unique<ThreadPool>(numThreads);
}

void
parallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
            FunctionRef<void(std::size_t, std::size_t, std::size_t)> body,
            FunctionRef<void()> prologue)
{
    ThreadPool::global().parallelForChunked(begin, end, chunk, body,
                                            prologue);
}

} // namespace graphite
