/**
 * @file
 * Synthetic open-loop load generator for the serving layer: Zipfian
 * vertex popularity over degree rank (hot hubs get the traffic — the
 * regime the hot-vertex cache exists for) and Poisson arrivals at a
 * fixed offered rate. Open loop means the arrival process never slows
 * down for the server: a full queue drops the request and the drop is
 * reported, so latency numbers are honest under overload.
 *
 * One run drives a warmup phase (cache residency + allocation warmup,
 * excluded from the percentiles) and a measured phase, and reports
 * achieved QPS, exact p50/p99 latency (nth_element over recorded
 * per-request latencies, not histogram estimates), cache hit rate and
 * gather traffic — the numbers tools/graphite_serve prints and the
 * serving tests check.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "serve/server.h"

namespace graphite::serve {

/**
 * Exact q-quantile of @p values (mutated by selection), nearest-rank
 * convention: rank = ceil(q * n) clamped to [1, n], result = the
 * rank-th smallest value. This matches MetricsRegistry's
 * estimateQuantile so the load-gen's exact percentiles and the
 * histogram estimates answer the same question — the old half-up
 * rounding of q*(n-1) sat between conventions and disagreed with both
 * on small samples. Returns 0 for an empty vector.
 */
double exactPercentile(std::vector<double> &values, double q);

/** Open-loop workload shape. */
struct LoadGenConfig
{
    /** Measured requests (after warmup). */
    std::size_t numRequests = 20000;
    /** Cache/allocation warmup requests, excluded from percentiles. */
    std::size_t warmupRequests = 2000;
    /** Offered arrival rate (Poisson), requests per second. */
    double offeredQps = 20000.0;
    /** Zipf exponent over degree-ranked vertices (0 = uniform). */
    double zipfExponent = 0.9;
    std::uint64_t seed = 7;
};

/** Measured-phase results of one load run. */
struct LoadGenReport
{
    std::uint64_t offered = 0;
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;
    double durationSeconds = 0.0;
    /** Accepted-and-served requests per second of the measured phase. */
    double qps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double meanUs = 0.0;
    /** Cache hits / (hits + misses) in the measured phase; 0 if none. */
    double cacheHitRate = 0.0;
    /** serve bytes gathered during the measured phase. */
    std::uint64_t bytesGathered = 0;
    std::uint64_t batches = 0;
    double meanBatchSize = 0.0;
};

/**
 * Drive @p server with the configured workload: warmup() the server,
 * start its consumer thread, push warmupRequests then numRequests with
 * Poisson arrivals and Zipf-over-degree vertex popularity, close the
 * queue, join, and report the measured phase. The server's queue is
 * closed afterwards — use a fresh server per run.
 */
LoadGenReport runServeLoad(InferenceServer &server,
                           const LoadGenConfig &config);

} // namespace graphite::serve
