#include "serve/load_gen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/timer.h"
#include "tensor/dense_matrix.h"

namespace graphite::serve {

double
exactPercentile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    // Nearest rank, identical to MetricsRegistry::estimateQuantile:
    // 1-based rank = ceil(q * n), clamped into [1, n].
    const double n = static_cast<double>(values.size());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * n));
    rank = std::min(std::max<std::size_t>(rank, 1), values.size());
    const std::size_t idx = rank - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(idx),
                     values.end());
    return values[idx];
}

LoadGenReport
runServeLoad(InferenceServer &server, const LoadGenConfig &config)
{
    const CsrGraph &graph = server.graph();
    GRAPHITE_ASSERT(graph.numVertices() > 0, "load gen needs a graph");
    GRAPHITE_ASSERT(config.numRequests > 0,
                    "load gen needs measured requests");
    GRAPHITE_ASSERT(config.offeredQps > 0.0,
                    "load gen needs a positive offered rate");

    // Popularity: Zipf over degree rank, so the hottest traffic lands
    // on the highest-degree hubs — the cache's target population.
    std::vector<VertexId> ranked(graph.numVertices());
    std::iota(ranked.begin(), ranked.end(), VertexId{0});
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&graph](VertexId a, VertexId b) {
                         return graph.degree(a) > graph.degree(b);
                     });
    std::vector<double> cdf(ranked.size());
    double totalWeight = 0.0;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        totalWeight +=
            std::pow(static_cast<double>(i + 1), -config.zipfExponent);
        cdf[i] = totalWeight;
    }

    server.warmup();
    const ServeStats statsAtStart = server.stats();

    const std::size_t totalRequests =
        config.warmupRequests + config.numRequests;
    DenseMatrix results(totalRequests, server.outFeatures());
    std::vector<double> latencies(totalRequests, -1.0);

    std::thread consumer([&server] { server.run(); });

    Rng rng(config.seed);
    Timer measuredTimer;
    ServeStats statsBefore = statsAtStart;
    auto next = std::chrono::steady_clock::now();
    std::uint64_t acceptedWarm = 0;
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;
    const double interScale = 1.0 / config.offeredQps;

    for (std::size_t i = 0; i < totalRequests; ++i) {
        const bool measured = i >= config.warmupRequests;
        if (i == config.warmupRequests) {
            // Quiesce the warmup tail so measured stats deltas are
            // clean, then restart the arrival clock.
            while (server.stats().requestsServed <
                   statsAtStart.requestsServed + acceptedWarm) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
            statsBefore = server.stats();
            measuredTimer.reset();
            next = std::chrono::steady_clock::now();
        }
        // Poisson arrivals: exponential gaps at the offered rate. Open
        // loop — a late producer catches up (sleep_until in the past
        // returns immediately) instead of shifting the schedule.
        const double gap =
            -std::log(1.0 - static_cast<double>(rng.uniformFloat())) *
            interScale;
        next += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(gap));
        std::this_thread::sleep_until(next);

        InferenceRequest req;
        req.id = i;
        const double z =
            static_cast<double>(rng.uniformFloat()) * totalWeight;
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), z) - cdf.begin());
        req.vertex = ranked[std::min(rank, ranked.size() - 1)];
        req.enqueueNs = monotonicNanos();
        req.out = results.row(i);
        req.latencyUs = &latencies[i];
        if (server.queue().push(req)) {
            if (measured)
                ++accepted;
            else
                ++acceptedWarm;
        } else if (measured) {
            ++dropped;
        }
    }

    server.queue().close();
    consumer.join();
    const double duration = measuredTimer.seconds();
    const ServeStats statsAfter = server.stats();

    LoadGenReport report;
    report.offered = config.numRequests;
    report.accepted = accepted;
    report.dropped = dropped;
    report.durationSeconds = duration;
    report.qps =
        duration > 0.0 ? static_cast<double>(accepted) / duration : 0.0;

    // Exact percentiles over the measured, accepted requests.
    std::vector<double> measuredLat(
        latencies.begin() +
            static_cast<std::ptrdiff_t>(config.warmupRequests),
        latencies.end());
    measuredLat.erase(std::remove_if(measuredLat.begin(),
                                     measuredLat.end(),
                                     [](double v) { return v < 0.0; }),
                      measuredLat.end());
    report.p50Us = exactPercentile(measuredLat, 0.50);
    report.p99Us = exactPercentile(measuredLat, 0.99);
    if (!measuredLat.empty()) {
        double sum = 0.0;
        for (const double v : measuredLat)
            sum += v;
        report.meanUs = sum / static_cast<double>(measuredLat.size());
    }

    const std::uint64_t hits =
        statsAfter.cache.hits - statsBefore.cache.hits;
    const std::uint64_t misses =
        statsAfter.cache.misses - statsBefore.cache.misses;
    report.cacheHitRate =
        hits + misses > 0
            ? static_cast<double>(hits) /
                  static_cast<double>(hits + misses)
            : 0.0;
    report.bytesGathered =
        statsAfter.bytesGathered - statsBefore.bytesGathered;
    report.batches = statsAfter.batchesServed - statsBefore.batchesServed;
    const std::uint64_t served =
        statsAfter.requestsServed - statsBefore.requestsServed;
    report.meanBatchSize =
        report.batches > 0
            ? static_cast<double>(served) /
                  static_cast<double>(report.batches)
            : 0.0;
    return report;
}

} // namespace graphite::serve
