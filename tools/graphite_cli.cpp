/**
 * @file
 * graphite_cli — run Graphite end to end from the command line.
 *
 * Sub-commands (first positional-free flag set chooses the mode):
 *   --mode=stats      print Table-3-style statistics of a graph
 *   --mode=train      full-batch training on a graph + synthetic task
 *   --mode=infer      inference with a saved checkpoint
 *   --mode=reorder    emit a processing order's reuse-distance summary
 *
 * Graphs come from --graph=<edge-list file> or, when omitted, from a
 * generated dataset analogue picked with --dataset.
 *
 * Examples:
 *   graphite_cli --mode=stats --dataset=products
 *   graphite_cli --mode=train --dataset=wikipedia --epochs=10 \
 *                --save=model.grph
 *   graphite_cli --mode=infer --dataset=wikipedia --load=model.grph
 */

#include <cstdio>

#include "common/logging.h"
#include "common/options.h"
#include "common/timer.h"
#include "gnn/serialization.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "graph/binary_io.h"
#include "graph/edge_list_io.h"
#include "graph/graph_stats.h"
#include "graph/partition/partition_stats.h"
#include "graph/partition/partitioner.h"
#include "graph/reorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/row_ops.h"

using namespace graphite;

namespace {

CsrGraph
loadGraph(const Options &options)
{
    const std::string path = options.getString("graph");
    if (!path.empty()) {
        if (isCsrFile(path)) {
            inform("loading binary CSR '%s'", path.c_str());
            return loadCsr(path);
        }
        inform("loading edge list '%s'", path.c_str());
        return loadEdgeList(path, 0, options.getBool("undirected"));
    }
    const DatasetId id =
        parseDatasetName(options.getString("dataset"));
    const auto shift =
        static_cast<unsigned>(options.getCount("scale-shift"));
    inform("generating %s analogue (shift %u)",
           options.getString("dataset").c_str(), shift);
    return makeDataset(id, shift).graph;
}

/**
 * The technique the flags select for @p graph. A shard count above the
 * graph's vertex count is refused here, before any plan is built.
 */
TechniqueConfig
techniqueFor(const Options &options, const CsrGraph &graph)
{
    const std::string name = options.getString("technique");
    TechniqueConfig tech;
    if (name == "basic")
        tech = TechniqueConfig::basic();
    else if (name == "fusion")
        tech = TechniqueConfig::withFusion();
    else if (name == "compression")
        tech = TechniqueConfig::withCompression();
    else if (name == "combined")
        tech = TechniqueConfig::combined();
    else if (name == "c-locality")
        tech = TechniqueConfig::combinedLocality();
    else
        fatal("unknown technique '%s'", name.c_str());
    const std::string precisionText = options.getString("precision");
    if (!parsePrecision(precisionText, tech.precision))
        fatal("unknown precision '%s'", precisionText.c_str());
    tech.shards = options.getCount("shards");
    if (tech.shards >= 2 && tech.shards > graph.numVertices()) {
        fatal("--shards must be at most the graph's %u vertices (got %zu)",
              graph.numVertices(), tech.shards);
    }
    const std::string partitionText = options.getString("partition");
    if (!parsePartitionStrategy(partitionText, tech.partition))
        fatal("unknown partition strategy '%s'", partitionText.c_str());
    return tech;
}

GnnKind
modelFor(const Options &options)
{
    const std::string name = options.getString("model");
    if (name == "gcn")
        return GnnKind::Gcn;
    if (name == "sage")
        return GnnKind::Sage;
    if (name == "gin")
        return GnnKind::Gin;
    fatal("--model: unknown model '%s' (gcn | sage | gin)", name.c_str());
}

int
runConvert(const Options &options)
{
    CsrGraph graph = loadGraph(options);
    const std::string out = options.getString("out");
    if (out.empty())
        fatal("--mode=convert requires --out=<file.gcsr>");
    saveCsr(graph, out);
    inform("wrote binary CSR '%s' (%u vertices, %llu edges)",
           out.c_str(), graph.numVertices(),
           static_cast<unsigned long long>(graph.numEdges()));
    return 0;
}

int
runStats(const Options &options)
{
    CsrGraph graph = loadGraph(options);
    GraphStats stats = computeGraphStats(graph);
    std::puts(formatGraphStats("graph", stats, options.getCount("features", 1))
                  .c_str());
    // With --shards >= 2, additionally report the cache-slice partition:
    // edge cut, halo volume and shard balance for the chosen strategy.
    const TechniqueConfig tech = techniqueFor(options, graph);
    if (tech.shards >= 2) {
        PartitionConfig config;
        config.numShards = tech.shards;
        config.strategy = tech.partition;
        const PartitionPlan plan = makePartitionPlan(graph, config);
        if (const char *error = plan.validate())
            fatal("partition plan invalid: %s", error);
        std::puts(formatPartitionStats(computePartitionStats(plan),
                                       tech.partition)
                      .c_str());
    }
    return 0;
}

int
runReorder(const Options &options)
{
    CsrGraph graph = loadGraph(options);
    const std::size_t cap = graph.numVertices();
    struct NamedOrder
    {
        const char *name;
        ProcessingOrder order;
    };
    Timer timer;
    NamedOrder orders[] = {
        {"identity", identityOrder(graph)},
        {"random", randomOrder(graph, 7)},
        {"degree", degreeOrder(graph)},
        {"bfs", bfsOrder(graph)},
        {"locality (Alg. 3)", localityOrder(graph)},
    };
    std::printf("order construction took %.3fs total\n",
                timer.seconds());
    std::printf("%-20s %16s\n", "order", "avg reuse dist");
    for (const NamedOrder &entry : orders) {
        std::printf("%-20s %16.1f\n", entry.name,
                    averageReuseDistance(graph, entry.order, cap));
    }
    return 0;
}

int
runTrain(const Options &options)
{
    CsrGraph graph = loadGraph(options);
    const std::size_t classes = options.getCount("classes", 1);
    const std::size_t features = options.getCount("features", 1);
    SyntheticTask task = makeSyntheticTask(graph, classes, features,
                                           0.4, 11);

    GnnModelConfig config;
    config.kind = modelFor(options);
    config.featureWidths = {features, options.getCount("hidden", 1),
                            classes};
    config.dropoutRate = options.getDouble("dropout");
    GnnModel model(graph, config);

    TrainerConfig trainerConfig;
    trainerConfig.epochs = options.getCount("epochs");
    trainerConfig.learningRate =
        static_cast<float>(options.getDouble("lr"));
    trainerConfig.tech = techniqueFor(options, graph);
    Trainer trainer(model, task.features, task.labels, trainerConfig);

    inform("training %zu epochs with technique '%s'",
           trainerConfig.epochs, trainerConfig.tech.label().c_str());
    Timer timer;
    auto history = trainer.train();
    for (std::size_t e = 0; e < history.size(); ++e) {
        std::printf("epoch %2zu: loss %.4f acc %.3f (%.2fs)\n", e,
                    history[e].loss, history[e].trainAccuracy,
                    history[e].seconds);
    }
    std::printf("total %.2fs, final accuracy %.3f\n", timer.seconds(),
                trainer.evaluate());

    const std::string save = options.getString("save");
    if (!save.empty()) {
        saveModel(model, save);
        inform("checkpoint written to '%s'", save.c_str());
    }
    return 0;
}

int
runInfer(const Options &options)
{
    CsrGraph graph = loadGraph(options);
    const std::size_t classes = options.getCount("classes", 1);
    const std::size_t features = options.getCount("features", 1);

    GnnModelConfig config;
    config.kind = modelFor(options);
    config.featureWidths = {features, options.getCount("hidden", 1),
                            classes};
    GnnModel model(graph, config);
    const std::string load = options.getString("load");
    if (!load.empty()) {
        loadModel(model, load);
        inform("checkpoint '%s' loaded", load.c_str());
    }

    SyntheticTask task = makeSyntheticTask(graph, classes, features,
                                           0.4, 11);
    Timer timer;
    DenseMatrix logits =
        model.inference(task.features, techniqueFor(options, graph));
    std::printf("inference over %u vertices in %.3fs, accuracy %.3f\n",
                graph.numVertices(), timer.seconds(),
                accuracy(logits, task.labels));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options("graphite_cli — GNNs on CPUs, end to end");
    options.add("mode", "stats",
                "stats | train | infer | reorder | convert");
    options.add("out", "", "output path for --mode=convert");
    options.add("graph", "", "edge-list file (empty: use --dataset)");
    options.add("undirected", "false",
                "treat edge-list edges as undirected");
    options.add("dataset", "products",
                "dataset analogue when no --graph given");
    options.add("scale-shift", "3", "analogue shrink (halvings)");
    options.add("technique", "combined",
                "basic | fusion | compression | combined | c-locality");
    options.add("precision", "fp32",
                "fp32 | bf16 (bf16 gathers + bf16-in/fp32-acc GEMMs)");
    options.add("shards", "0",
                "cache-slice shards for shard-major execution (0/1: off)");
    options.add("partition", "greedy",
                "shard assignment: greedy (degree-aware) | hash");
    options.add("model", "gcn", "gcn | sage | gin");
    options.add("features", "64", "input feature width");
    options.add("hidden", "128", "hidden feature width");
    options.add("classes", "8", "label classes");
    options.add("epochs", "10", "training epochs");
    options.add("lr", "0.3", "learning rate");
    options.add("dropout", "0.5", "dropout rate");
    options.add("save", "", "write checkpoint after training");
    options.add("load", "", "read checkpoint before inference");
    options.add("trace-out", "",
                "write a chrome://tracing span JSON on exit");
    options.add("metrics-out", "",
                "write a metrics-registry JSON on exit");
    options.parse(argc, argv);
    // Counts and the dropout rate are checked before any graph is built
    // (the modes read them again where they use them).
    for (const char *count : {"scale-shift", "shards", "epochs"})
        (void)options.getCount(count);
    for (const char *width : {"features", "hidden", "classes"})
        (void)options.getCount(width, 1);
    const double dropout = options.getDouble("dropout");
    if (!(dropout >= 0.0 && dropout < 1.0))
        fatal("--dropout must be in [0, 1) (got %g)", dropout);

    const std::string traceOut = options.getString("trace-out");
    const std::string metricsOut = options.getString("metrics-out");
    if (!traceOut.empty())
        obs::TraceRecorder::global().setEnabled(true);
    if (!metricsOut.empty())
        obs::MetricsRegistry::global().setEnabled(true);

    const std::string mode = options.getString("mode");
    int rc = -1;
    if (mode == "stats")
        rc = runStats(options);
    else if (mode == "convert")
        rc = runConvert(options);
    else if (mode == "reorder")
        rc = runReorder(options);
    else if (mode == "train")
        rc = runTrain(options);
    else if (mode == "infer")
        rc = runInfer(options);
    else
        fatal("unknown mode '%s'", mode.c_str());

    if (!traceOut.empty()) {
        obs::TraceRecorder::global().writeChromeJson(traceOut);
        inform("trace written to '%s'", traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        obs::MetricsRegistry::global().writeJson(metricsOut);
        inform("metrics written to '%s'", metricsOut.c_str());
    }
    return rc;
}
