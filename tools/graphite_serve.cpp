/**
 * @file
 * graphite_serve — stand-alone online-inference serving demo: train a
 * small SAGE model with the sampled mini-batch trainer, then serve
 * per-vertex embedding queries through the micro-batching
 * InferenceServer under synthetic open-loop load (DESIGN.md §13).
 *
 * The interesting knobs map straight onto ServeConfig/LoadGenConfig:
 *
 *   --latency-budget-us   micro-batch close deadline
 *   --max-batch           micro-batch size cap
 *   --hot-cache-capacity  hot-vertex aggregation cache rows (0 = off)
 *   --compare             also run a cache-off baseline at the same
 *                         offered load and print both
 *
 * Example:
 *   graphite_serve --scale=12 --requests=20000 --qps=15000 \
 *                  --hot-cache-capacity=512 --compare
 */

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/options.h"
#include "gnn/minibatch_trainer.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "obs/metrics.h"
#include "serve/load_gen.h"
#include "serve/server.h"

using namespace graphite;

namespace {

void
printReport(const char *label, const serve::LoadGenReport &report)
{
    std::printf("%-10s qps %9.0f  p50 %8.1fus  p99 %8.1fus  "
                "mean %7.1fus  batch %5.1f  hit %5.1f%%  "
                "gathered %8.2f MiB  dropped %llu\n",
                label, report.qps, report.p50Us, report.p99Us,
                report.meanUs, report.meanBatchSize,
                report.cacheHitRate * 100.0,
                static_cast<double>(report.bytesGathered) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(report.dropped));
}

} // namespace

int
main(int argc, char **argv)
{
    Options options("Online GNN inference serving demo");
    options.add("scale", "12", "R-MAT scale (2^scale vertices)");
    options.add("avg-degree", "16", "R-MAT average degree");
    options.add("feature-width", "32", "input feature width");
    options.add("hidden-width", "64", "hidden layer width");
    options.add("classes", "8", "output embedding width");
    options.add("epochs", "2", "mini-batch training epochs");
    options.add("fanout", "10", "per-layer sampling fanout");
    options.add("requests", "20000", "measured serving requests");
    options.add("warmup-requests", "2000", "cache warmup requests");
    options.add("qps", "15000", "offered request rate per second");
    options.add("zipf", "0.9", "Zipf exponent of vertex popularity");
    options.add("latency-budget-us", "200",
                "micro-batch close deadline in microseconds");
    options.add("max-batch", "64", "max requests per micro-batch");
    options.add("queue-capacity", "4096", "request queue ring slots");
    options.add("hot-cache-capacity", "512",
                "hot-vertex cache rows (0 disables the cache)");
    options.add("hot-cache-shards", "8", "hot-vertex cache shards");
    options.add("hot-cache-min-degree", "-1",
                "cache admission degree threshold (-1 = pin to the "
                "top-capacity/2 degree rank so residency is churn-free, "
                "0 = server auto)");
    options.add("precision", "fp32", "serving GEMM precision: fp32|bf16");
    options.add("compare", "false",
                "also run a cache-off baseline at the same load");
    options.add("metrics", "", "write the metrics registry JSON here");
    options.add("seed", "7", "workload and training seed");
    options.parse(argc, argv);

    obs::MetricsRegistry::global().setEnabled(true);

    RmatParams params;
    params.scale = static_cast<unsigned>(options.getInt("scale"));
    params.avgDegree = options.getDouble("avg-degree");
    params.seed = static_cast<std::uint64_t>(options.getInt("seed"));
    const CsrGraph graph = generateRmat(params);
    const GraphStats stats = computeGraphStats(graph);
    inform("graph: %u vertices, %llu edges, max degree %llu",
           graph.numVertices(),
           static_cast<unsigned long long>(graph.numEdges()),
           static_cast<unsigned long long>(stats.maxDegree));

    const auto featureWidth =
        static_cast<std::size_t>(options.getInt("feature-width"));
    const auto classes =
        static_cast<std::size_t>(options.getInt("classes"));
    SyntheticTask task = makeSyntheticTask(
        graph, classes, featureWidth, 0.3,
        static_cast<std::uint64_t>(options.getInt("seed")) + 1);

    MiniBatchConfig trainConfig;
    trainConfig.batchSize = 512;
    const auto fanout = static_cast<VertexId>(options.getInt("fanout"));
    trainConfig.fanouts = {fanout, fanout};
    trainConfig.seed = static_cast<std::uint64_t>(options.getInt("seed"));
    MiniBatchTrainer trainer(
        graph, task.features, task.labels,
        {featureWidth,
         static_cast<std::size_t>(options.getInt("hidden-width")),
         classes},
        trainConfig);
    const auto epochs = static_cast<std::size_t>(options.getInt("epochs"));
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        const MiniBatchEpochStats epochStats = trainer.trainEpoch();
        inform("epoch %zu: loss %.4f", epoch, epochStats.loss);
    }

    serve::ServeConfig serveConfig;
    serveConfig.fanouts = trainConfig.fanouts;
    serveConfig.maxBatch =
        static_cast<std::size_t>(options.getInt("max-batch"));
    serveConfig.latencyBudgetUs = options.getInt("latency-budget-us");
    serveConfig.queueCapacity =
        static_cast<std::size_t>(options.getInt("queue-capacity"));
    serveConfig.hotCacheCapacity =
        static_cast<std::size_t>(options.getInt("hot-cache-capacity"));
    serveConfig.hotCacheShards =
        static_cast<std::size_t>(options.getInt("hot-cache-shards"));
    const int minDegreeFlag = options.getInt("hot-cache-min-degree");
    if (minDegreeFlag > 0) {
        serveConfig.hotCacheMinDegree =
            static_cast<EdgeId>(minDegreeFlag);
    } else if (minDegreeFlag < 0 && serveConfig.hotCacheCapacity > 0) {
        // Churn-free default: see DESIGN.md §13 — the server's auto
        // threshold sizes the admissible set ≈ capacity, and the
        // resulting eviction churn puts hub re-gathers on the p99 tail.
        serveConfig.hotCacheMinDegree = serve::churnFreeDegreeThreshold(
            graph, serveConfig.hotCacheCapacity);
    }
    const std::string precision = options.getString("precision");
    if (precision == "bf16")
        serveConfig.precision = Precision::Bf16;
    else if (precision != "fp32")
        fatal("unknown precision '%s'", precision.c_str());

    serve::LoadGenConfig loadConfig;
    loadConfig.numRequests =
        static_cast<std::size_t>(options.getInt("requests"));
    loadConfig.warmupRequests =
        static_cast<std::size_t>(options.getInt("warmup-requests"));
    loadConfig.offeredQps = options.getDouble("qps");
    loadConfig.zipfExponent = options.getDouble("zipf");
    loadConfig.seed = static_cast<std::uint64_t>(options.getInt("seed"));

    {
        serve::InferenceServer server(graph, task.features,
                                      trainer.layerPointers(),
                                      serveConfig);
        if (serveConfig.hotCacheCapacity > 0) {
            inform("hot cache: %zu rows, admission degree >= %llu",
                   serveConfig.hotCacheCapacity,
                   static_cast<unsigned long long>(
                       server.hotDegreeThreshold()));
        }
        const serve::LoadGenReport report =
            serve::runServeLoad(server, loadConfig);
        printReport(serveConfig.hotCacheCapacity > 0 ? "cache-on"
                                                     : "cache-off",
                    report);
    }

    if (options.getBool("compare") && serveConfig.hotCacheCapacity > 0) {
        serve::ServeConfig offConfig = serveConfig;
        offConfig.hotCacheCapacity = 0;
        serve::InferenceServer server(graph, task.features,
                                      trainer.layerPointers(), offConfig);
        const serve::LoadGenReport report =
            serve::runServeLoad(server, loadConfig);
        printReport("cache-off", report);
    }

    const std::string metricsPath = options.getString("metrics");
    if (!metricsPath.empty())
        obs::MetricsRegistry::global().writeJson(metricsPath);
    return 0;
}
