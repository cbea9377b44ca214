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
 *   --hot-cache-capacity  hot-vertex cache rows (0 = off)
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
    options.add("hot-cache-min-degree", "0",
                "cache admission degree threshold (0 = the server "
                "derives the churn-free one: the top-capacity/2 degree "
                "rank, above the fanout)");
    options.add("precision", "fp32", "serving GEMM precision: fp32|bf16");
    options.add("compare", "false",
                "also run a cache-off baseline at the same load");
    options.add("metrics", "", "write the metrics registry JSON here");
    options.add("seed", "7", "workload and training seed");
    options.parse(argc, argv);

    // Every flag is read before any graph is built, so a negative
    // count is refused by name instead of wrapping to a huge size.
    RmatParams params;
    params.scale = static_cast<unsigned>(options.getCount("scale"));
    params.avgDegree = options.getDouble("avg-degree");
    params.seed = static_cast<std::uint64_t>(options.getInt("seed"));
    const std::size_t featureWidth = options.getCount("feature-width", 1);
    const std::size_t hiddenWidth = options.getCount("hidden-width", 1);
    const std::size_t classes = options.getCount("classes", 1);
    const std::size_t epochs = options.getCount("epochs");
    const auto fanout = static_cast<VertexId>(options.getCount("fanout"));

    serve::ServeConfig serveConfig;
    serveConfig.fanouts = {fanout, fanout};
    serveConfig.maxBatch = options.getCount("max-batch", 1);
    serveConfig.latencyBudgetUs = options.getInt("latency-budget-us");
    serveConfig.queueCapacity = options.getCount("queue-capacity", 1);
    serveConfig.hotCacheCapacity = options.getCount("hot-cache-capacity");
    serveConfig.hotCacheMinDegree = options.getCount("hot-cache-min-degree");
    const std::string precision = options.getString("precision");
    if (!parsePrecision(precision, serveConfig.precision))
        fatal("--precision: unknown precision '%s' (fp32 | bf16)",
              precision.c_str());

    serve::LoadGenConfig loadConfig;
    loadConfig.numRequests = options.getCount("requests");
    loadConfig.warmupRequests = options.getCount("warmup-requests");
    loadConfig.offeredQps = options.getDouble("qps");
    loadConfig.zipfExponent = options.getDouble("zipf");
    loadConfig.seed = params.seed;
    const bool compare = options.getBool("compare");
    const std::string metricsPath = options.getString("metrics");

    obs::MetricsRegistry::global().setEnabled(true);

    const CsrGraph graph = generateRmat(params);
    const GraphStats stats = computeGraphStats(graph);
    inform("graph: %u vertices, %llu edges, max degree %llu",
           graph.numVertices(),
           static_cast<unsigned long long>(graph.numEdges()),
           static_cast<unsigned long long>(stats.maxDegree));

    SyntheticTask task = makeSyntheticTask(graph, classes, featureWidth,
                                           0.3, params.seed + 1);

    MiniBatchConfig trainConfig;
    trainConfig.batchSize = 512;
    trainConfig.fanouts = serveConfig.fanouts;
    trainConfig.seed = params.seed;
    MiniBatchTrainer trainer(graph, task.features, task.labels,
                             {featureWidth, hiddenWidth, classes},
                             trainConfig);
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        const MiniBatchEpochStats epochStats = trainer.trainEpoch();
        inform("epoch %zu: loss %.4f", epoch, epochStats.loss);
    }

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

    if (compare && serveConfig.hotCacheCapacity > 0) {
        serve::ServeConfig offConfig = serveConfig;
        offConfig.hotCacheCapacity = 0;
        serve::InferenceServer server(graph, task.features,
                                      trainer.layerPointers(), offConfig);
        const serve::LoadGenReport report =
            serve::runServeLoad(server, loadConfig);
        printReport("cache-off", report);
    }

    if (!metricsPath.empty())
        obs::MetricsRegistry::global().writeJson(metricsPath);
    return 0;
}
