/**
 * @file
 * Unit tests for the thread pool and dynamic parallel loops.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.h"

namespace graphite {
namespace {

TEST(ThreadPool, RunsBodyOnEveryWorker)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(4);
    pool.runOnAll([&](std::size_t tid) { hits[tid]++; });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 10; ++round)
        pool.runOnAll([&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1u);
    bool ran = false;
    pool.runOnAll([&](std::size_t tid) {
        EXPECT_EQ(tid, 0u);
        ran = true;
    });
    EXPECT_TRUE(ran);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 10007; // prime, not a chunk multiple
    std::vector<std::atomic<int>> touched(n);
    pool.parallelForChunked(0, n, 64,
                            [&](std::size_t begin, std::size_t end,
                                std::size_t) {
        for (std::size_t i = begin; i < end; ++i)
            touched[i]++;
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelForChunked(5, 5, 8,
                            [&](std::size_t, std::size_t, std::size_t) {
        called = true;
    });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, DynamicSchedulingBalancesSkewedWork)
{
    // One chunk is 100x heavier; dynamic scheduling must let other
    // workers take the remaining chunks (we can only verify coverage
    // and completion here, not wall-clock, on arbitrary hosts).
    ThreadPool pool(4);
    std::atomic<long> total{0};
    pool.parallelForChunked(0, 64, 1,
                            [&](std::size_t begin, std::size_t,
                                std::size_t) {
        long spin = begin == 0 ? 100000 : 1000;
        long acc = 0;
        for (long i = 0; i < spin; ++i)
            acc += i;
        total += acc > 0 ? 1 : 0;
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, PrologueRunsOnEveryWorkerEvenWithoutAChunk)
{
    // One chunk for four workers: kernels size per-worker scratch in the
    // prologue, so it must not depend on drawing a chunk.
    ThreadPool pool(4);
    std::atomic<int> prologues{0};
    std::atomic<int> chunks{0};
    pool.parallelForChunked(
        0, 1, 1, [&](std::size_t, std::size_t, std::size_t) { chunks++; },
        [&] { prologues++; });
    EXPECT_EQ(prologues.load(), 4);
    EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPool, ChunkBoundsRespectEnd)
{
    ThreadPool pool(2);
    std::atomic<std::size_t> maxEnd{0};
    pool.parallelForChunked(0, 100, 33,
                            [&](std::size_t, std::size_t end,
                                std::size_t) {
        std::size_t prev = maxEnd.load();
        while (end > prev && !maxEnd.compare_exchange_weak(prev, end)) {
        }
    });
    EXPECT_EQ(maxEnd.load(), 100u);
}

TEST(ThreadPool, ZeroChunkIsClampedNotFatal)
{
    ThreadPool pool(2);
    const std::size_t n = 37;
    std::vector<std::atomic<int>> touched(n);
    pool.parallelForChunked(0, n, 0,
                            [&](std::size_t begin, std::size_t end,
                                std::size_t) {
        for (std::size_t i = begin; i < end; ++i)
            touched[i]++;
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, RunOnAllPropagatesWorkerException)
{
    ThreadPool pool(4);
    // Every worker throws; exactly one exception must reach the caller,
    // on the calling thread.
    EXPECT_THROW(
        pool.runOnAll([](std::size_t tid) {
            throw std::runtime_error("worker " + std::to_string(tid));
        }),
        std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndStopsEarly)
{
    ThreadPool pool(4);
    std::atomic<int> chunksAfterThrow{0};
    std::atomic<bool> thrown{false};
    EXPECT_THROW(
        pool.parallelForChunked(0, 1 << 20, 1,
                                [&](std::size_t begin, std::size_t,
                                    std::size_t) {
            if (thrown.load())
                chunksAfterThrow++;
            if (begin == 0) {
                thrown = true;
                throw std::runtime_error("boom");
            }
        }),
        std::runtime_error);
    // The throwing chunk parks the cursor, so the million-iteration
    // range must not have been walked to completion afterwards.
    EXPECT_LT(chunksAfterThrow.load(), 1 << 19);
}

TEST(ThreadPool, UsableAfterWorkerException)
{
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.runOnAll([](std::size_t) {
            throw std::logic_error("once");
        }),
        std::logic_error);
    // The pool must stay fully functional: the stored exception was
    // consumed and workers are back on the condition variable.
    std::atomic<int> count{0};
    pool.parallelForChunked(0, 1000, 7,
                            [&](std::size_t begin, std::size_t end,
                                std::size_t) {
        count += static_cast<int>(end - begin);
    });
    EXPECT_EQ(count.load(), 1000);
    std::vector<std::atomic<int>> hits(3);
    pool.runOnAll([&](std::size_t tid) { hits[tid]++; });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(GlobalPool, ParallelForSumMatchesSerial)
{
    const std::size_t n = 5000;
    std::vector<long> values(n);
    std::iota(values.begin(), values.end(), 0);
    std::atomic<long> sum{0};
    parallelFor(0, n, 128,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        long local = 0;
        for (std::size_t i = begin; i < end; ++i)
            local += values[i];
        sum += local;
    });
    EXPECT_EQ(sum.load(), static_cast<long>(n * (n - 1) / 2));
}

TEST(GlobalPool, ThreadIdWithinRange)
{
    const std::size_t workers = ThreadPool::global().numThreads();
    std::atomic<bool> ok{true};
    parallelFor(0, 1000, 10,
                [&](std::size_t, std::size_t, std::size_t tid) {
        if (tid >= workers)
            ok = false;
    });
    EXPECT_TRUE(ok.load());
}

} // namespace
} // namespace graphite
