/**
 * @file
 * The benchmark's open-loop load generator. It pushes straight into
 * InferenceServer::queue() on a Poisson schedule and stamps every
 * request with the time it was *due*, not the time it was pushed, so a
 * generator that falls behind (a stall on the producer side, or a full
 * core) shows up as latency instead of hiding as a late arrival.
 * serve::runServeLoad stamps at push time and is left as it is.
 *
 * The generator sleeps through long gaps and spins through the last
 * 2 ms before a due time; it reports how late each push was (its lag,
 * which only validates the run), samples queue depth at every push to
 * expose a growing backlog, and counts refused pushes as drops — a
 * dropped request misses any latency limit.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "serve/server.h"

namespace graphite::perf {

/** The threads of a serving step, one CPU each. */
enum class ServingRole
{
    Producer,
    Consumer,
    Writer,
};

/**
 * Pin the calling thread to its role's CPU (no-op with fewer than three
 * CPUs). Without it a fresh consumer thread can share a CPU with the
 * spinning producer for about a second before the scheduler moves it,
 * which on a virtualised 4-CPU host halved the consumer's speed in some
 * runs and not others. The thread pool is idle while serving.
 */
void pinThread(ServingRole role);

/** Return at (never before) monotonicNanos() time @p dueNs. */
void waitUntil(std::uint64_t dueNs);

/** Vertex popularity: Zipf over degree rank (exponent 0 = uniform). */
class TargetSampler
{
  public:
    TargetSampler(const CsrGraph &graph, double zipfExponent);

    VertexId draw(Rng &rng) const;

  private:
    std::vector<VertexId> ranked_;
    /** Cumulative Zipf weights by rank; empty for uniform traffic. */
    std::vector<double> cdf_;
};

/** One open-loop step: a warm-up segment, then the measured one. */
struct Traffic
{
    /** Offered Poisson arrival rate, requests per second. */
    double rate = 5000.0;
    double seconds = 1.0;
    /** Excluded warm-up traffic at the same rate (cache residency). */
    double warmupSeconds = 0.5;
    std::uint64_t seed = 1;
    /** Called when the measured segment starts and when it ends. */
    std::function<void()> onStart;
    std::function<void()> onStop;
};

/** Measured segment of one step. */
struct StepResult
{
    double rate = 0.0;
    double seconds = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t dropped = 0;
    /** Latency from due time to reply, accepted requests. @{ */
    double p50Us = 0.0;
    double p99Us = 0.0;
    /** @} */
    double genLagP99Us = 0.0;
    double queueDepthP99 = 0.0;
    double batchMean = 0.0;
    double cacheHitRate = 0.0;
    double bytesPerRequest = 0.0;
    std::uint64_t invalidations = 0;
    /**
     * Replies per second of the consumer thread's CPU time over the
     * measured segment and its drain: the server's own cost per reply at
     * this load, which the offered rate does not set. The consumer
     * blocks while its queue is empty, so its CPU time is its busy time.
     */
    double repliesPerBusySecond = 0.0;

    /** Measured requests: id (= sampling seed), target and reply. @{ */
    std::vector<std::uint64_t> ids;
    std::vector<VertexId> vertices;
    /** Reply latency, microseconds; negative when dropped. */
    std::vector<double> latencyUs;
    DenseMatrix replies;
    /** @} */
};

/**
 * Run one step against @p server (already warmed up, queue open): start
 * its consumer thread, drive the warm-up then the measured segment,
 * close the queue and join. A server serves one step only.
 */
StepResult runOpenLoop(serve::InferenceServer &server,
                       const TargetSampler &targets, const Traffic &traffic);

/**
 * Saturation goodput of @p server (warmed up, queue open): a closed loop
 * keeps at least two full batches queued, so the consumer always closes
 * full batches, and the replies per second over @p seconds (after a
 * short warm-up) are the most the server can deliver. Serves one run,
 * like runOpenLoop.
 */
double saturatedGoodput(serve::InferenceServer &server,
                        const TargetSampler &targets, double seconds,
                        std::uint64_t seed);

/**
 * The serving set-up every server in the benchmark uses: fan-outs
 * {10, 10}, batches of up to 64 closed after 100 us, and a 4,096-row
 * hot cache whose admission is pinned to the top-2,048 degree rank of
 * @p graph (churn-free residency).
 */
serve::ServeConfig servingConfig(const CsrGraph &graph);

struct Report;

/** The serve.* per-layer metrics of one measured step. */
void reportServing(const StepResult &step, Report &report);

} // namespace graphite::perf
