/**
 * @file
 * CI smoke benchmark: one small real (non-simulated) training run on the
 * products analogue plus raw kernel rates, emitted as BENCH_smoke.json.
 *
 * Three measurements, all wall-clock on the host (not the simulator):
 *   - steady-state training epoch seconds (fused techniques), taken
 *     after a warm-up epoch so the allocation-free regime is what is
 *     timed;
 *   - backward-pass seconds with fusion off vs on, same model and same
 *     loss gradient, demonstrating the commuted fused backward's win;
 *   - aggregation and prepacked-GEMM GFLOP/s as raw kernel health
 *     numbers.
 *
 * The JSON is tiny and stable-keyed so CI can archive it per commit and
 * diff rates across history.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/timer.h"
#include "dma/pipelined_runner.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/partition/partition_stats.h"
#include "graph/partition/partitioner.h"
#include "graph/reorder.h"
#include "kernels/aggregation.h"
#include "gnn/gnn_layer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

using namespace graphite;

namespace {

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

/** Median seconds of @p reps invocations of @p fn (after one warm-up). */
template <typename Fn>
double
timeMedian(std::size_t reps, Fn &&fn)
{
    fn();
    std::vector<double> seconds;
    seconds.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
        Timer timer;
        fn();
        seconds.push_back(timer.seconds());
    }
    return median(std::move(seconds));
}

} // namespace

int
main(int argc, char **argv)
{
    Options options("CI smoke bench: training epoch + kernel rates -> "
                    "BENCH_smoke.json");
    options.add("scale-shift", "4",
                "products shrink (|V| = 2^(16 - shift))");
    options.add("epochs", "4", "training epochs (first is warm-up)");
    options.add("reps", "5", "repetitions per kernel measurement");
    options.add("output", "BENCH_smoke.json", "JSON output path");
    options.add("trace-out", "",
                "write a chrome://tracing span JSON (enables tracing)");
    options.add("metrics-out", "",
                "write a metrics-registry JSON (enables metrics)");
    options.parse(argc, argv);

    const std::string traceOut = options.getString("trace-out");
    const std::string metricsOut = options.getString("metrics-out");
    if (!traceOut.empty())
        obs::TraceRecorder::global().setEnabled(true);
    if (!metricsOut.empty())
        obs::MetricsRegistry::global().setEnabled(true);

    const auto shift =
        static_cast<unsigned>(options.getInt("scale-shift"));
    const auto epochs = static_cast<std::size_t>(options.getInt("epochs"));
    const auto reps = static_cast<std::size_t>(options.getInt("reps"));

    Dataset data = makeDataset(DatasetId::Products, shift);
    data.hiddenFeatures = 128; // smoke scale; CI boxes are small
    const CsrGraph &graph = data.graph;
    const auto numVertices = static_cast<std::size_t>(graph.numVertices());
    const auto numEdges = static_cast<std::size_t>(graph.numEdges());
    std::printf("products analogue: |V|=%zu |E|=%zu F_in=%zu F_hidden=%zu "
                "threads=%zu\n",
                numVertices, numEdges, data.inputFeatures,
                data.hiddenFeatures, ThreadPool::global().numThreads());

    // --- Raw kernel rates -------------------------------------------------
    const AggregationSpec spec = gcnSpec(graph);
    DenseMatrix features(numVertices, data.hiddenFeatures);
    features.fillUniform(-1.0f, 1.0f, 11);
    DenseMatrix aggOut(numVertices, data.hiddenFeatures);
    const double aggSeconds = timeMedian(reps, [&] {
        aggregate(graph, features, aggOut, spec);
    });
    // Per output element: one self-term multiply plus a multiply-add per
    // incoming edge.
    const double aggFlops =
        static_cast<double>(data.hiddenFeatures) *
        (static_cast<double>(numVertices) +
         2.0 * static_cast<double>(numEdges));
    const double aggGflops = aggFlops / aggSeconds * 1e-9;

    DenseMatrix weights(data.hiddenFeatures, data.hiddenFeatures);
    weights.fillUniform(-0.1f, 0.1f, 13);
    GemmPlan plan;
    plan.pack(GemmMode::NN, weights);
    DenseMatrix gemmOut(numVertices, data.hiddenFeatures);
    const double gemmSeconds = timeMedian(reps, [&] {
        gemm(GemmMode::NN, features, plan, gemmOut);
    });
    const double gemmFlops = 2.0 * static_cast<double>(numVertices) *
                             static_cast<double>(data.hiddenFeatures) *
                             static_cast<double>(data.hiddenFeatures);
    const double gemmGflops = gemmFlops / gemmSeconds * 1e-9;
    std::printf("aggregation: %7.2f GFLOP/s   gemm(NN packed): %7.2f "
                "GFLOP/s\n",
                aggGflops, gemmGflops);

    // --- bf16 precision path ----------------------------------------------
    // Same shapes at half storage width: bf16 gathers and the
    // bf16-in/fp32-accumulate GEMM, with the fp32 columns above as the
    // direct comparison point.
    Bf16Matrix featuresBf16(numVertices, data.hiddenFeatures);
    featuresBf16.fromDense(features);
    const double aggBf16Seconds = timeMedian(reps, [&] {
        aggregate(graph, featuresBf16, aggOut, spec);
    });
    const double aggBf16Gflops = aggFlops / aggBf16Seconds * 1e-9;

    GemmPlan planBf16;
    planBf16.pack(GemmMode::NN, weights, Precision::Bf16);
    const double gemmBf16Seconds = timeMedian(reps, [&] {
        gemm(GemmMode::NN, features, planBf16, gemmOut);
    });
    const double gemmBf16Gflops = gemmFlops / gemmBf16Seconds * 1e-9;
    std::printf("bf16 (%s): agg %7.2f GFLOP/s   gemm %7.2f GFLOP/s\n",
                bf16GemmIsNative() ? "native" : "emulated", aggBf16Gflops,
                gemmBf16Gflops);

    // Gather-traffic accounting: one run of each aggregation under the
    // metrics registry; bf16 rows are half the stored width, so the
    // bf16/fp32 byte ratio should sit at ~0.5 (stride padding aside).
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const bool metricsWereEnabled = registry.enabled();
    registry.setEnabled(true);
    obs::Counter &gatherBytes = registry.counter("agg.bytes_gathered");
    const std::uint64_t bytesBase = gatherBytes.value();
    aggregate(graph, features, aggOut, spec);
    const std::uint64_t bytesFp32 = gatherBytes.value() - bytesBase;
    aggregate(graph, featuresBf16, aggOut, spec);
    const std::uint64_t bytesBf16 =
        gatherBytes.value() - bytesBase - bytesFp32;
    registry.setEnabled(metricsWereEnabled);
    const double gatherRatio =
        bytesFp32 == 0 ? 0.0
                       : static_cast<double>(bytesBf16) /
                             static_cast<double>(bytesFp32);
    std::printf("bytes gathered: fp32 %llu   bf16 %llu   ratio %.3f\n",
                static_cast<unsigned long long>(bytesFp32),
                static_cast<unsigned long long>(bytesBf16), gatherRatio);

    // --- DMA pipelined aggregation ---------------------------------------
    // Same aggregation as aggregateBasic, driven through the functional
    // DMA engines; its spans/counters are what a traced run archives.
    DenseMatrix dmaOut(numVertices, data.hiddenFeatures);
    const double dmaAggSeconds = timeMedian(reps, [&] {
        dma::dmaAggregate(graph, features, spec, dmaOut);
    });
    const double dmaAggGflops = aggFlops / dmaAggSeconds * 1e-9;
    std::printf("dma aggregation: %7.2f GFLOP/s\n", dmaAggGflops);

    // --- Training epoch (fused techniques) --------------------------------
    constexpr std::size_t kClasses = 16;
    SyntheticTask task =
        makeSyntheticTask(graph, kClasses, data.inputFeatures, 0.5, 3);
    GnnModelConfig modelConfig;
    modelConfig.featureWidths = {data.inputFeatures, data.hiddenFeatures,
                                 kClasses};
    GnnModel model(graph, modelConfig);
    TrainerConfig trainerConfig;
    trainerConfig.epochs = epochs;
    trainerConfig.tech = TechniqueConfig::withFusion();
    Trainer trainer(model, task.features, task.labels, trainerConfig);
    const std::vector<EpochStats> history = trainer.train();
    std::vector<double> epochSeconds;
    for (std::size_t i = 1; i < history.size(); ++i) // epoch 0 allocates
        epochSeconds.push_back(history[i].seconds);
    const double steadyEpochSeconds = epochSeconds.empty()
                                          ? history.back().seconds
                                          : median(std::move(epochSeconds));
    std::printf("steady-state epoch: %.4f s (final loss %.4f)\n",
                steadyEpochSeconds, history.back().loss);

    // Same run at bf16: fused + half-width inter-layer activations.
    GnnModel modelBf16(graph, modelConfig);
    TrainerConfig trainerConfigBf16 = trainerConfig;
    trainerConfigBf16.tech.precision = Precision::Bf16;
    Trainer trainerBf16(modelBf16, task.features, task.labels,
                        trainerConfigBf16);
    const std::vector<EpochStats> historyBf16 = trainerBf16.train();
    std::vector<double> epochSecondsBf16;
    for (std::size_t i = 1; i < historyBf16.size(); ++i)
        epochSecondsBf16.push_back(historyBf16[i].seconds);
    const double steadyEpochSecondsBf16 =
        epochSecondsBf16.empty() ? historyBf16.back().seconds
                                 : median(std::move(epochSecondsBf16));
    std::printf("steady-state epoch (bf16): %.4f s (final loss %.4f)\n",
                steadyEpochSecondsBf16, historyBf16.back().loss);

    // --- Backward pass: fusion off vs on ----------------------------------
    // One forward fixes the layer contexts; the backward only reads them
    // (lossGrad is the clobbered buffer), so it can be re-run from a
    // refilled loss gradient as often as we like.
    GnnModel bwdModel(graph, modelConfig);
    const TechniqueConfig unfusedTech = TechniqueConfig::basic();
    const TechniqueConfig fusedTech = TechniqueConfig::withFusion();
    const DenseMatrix &logits =
        bwdModel.trainForward(task.features, unfusedTech);
    DenseMatrix lossGrad(logits.rows(), logits.cols());
    const auto timeBackward = [&](const TechniqueConfig &tech) {
        return timeMedian(reps, [&] {
            softmaxCrossEntropy(logits, task.labels, lossGrad);
            bwdModel.trainBackward(lossGrad, tech);
        });
    };
    const double lossGradSeconds = timeMedian(reps, [&] {
        softmaxCrossEntropy(logits, task.labels, lossGrad);
    });
    const double unfusedSeconds =
        timeBackward(unfusedTech) - lossGradSeconds;
    const double fusedSeconds = timeBackward(fusedTech) - lossGradSeconds;
    const double speedup = unfusedSeconds / fusedSeconds;
    std::printf("backward: unfused %.4f s   fused %.4f s   speedup "
                "%.2fx\n",
                unfusedSeconds, fusedSeconds, speedup);

    // --- Cache-slice partition: shard-major execution ---------------------
    // Figure-15-style comparison on the products analogue (a planted-
    // community graph with shuffled ids, so identity order carries no
    // locality): global orders vs the shard-major order of the greedy
    // and hash partitions, in wall-clock, gather bytes and simulated
    // DRAM traffic.
    constexpr std::size_t kShards = 4;
    PartitionConfig partitionConfig;
    partitionConfig.numShards = kShards;
    const PartitionPlan greedyPlan =
        makePartitionPlan(graph, partitionConfig);
    partitionConfig.strategy = PartitionStrategy::Hash;
    const PartitionPlan hashPlan = makePartitionPlan(graph, partitionConfig);
    const PartitionStats greedyStats = computePartitionStats(greedyPlan);
    const PartitionStats hashStats = computePartitionStats(hashPlan);
    std::printf("partition K=%zu: greedy cut ratio %.3f halo %u | "
                "hash cut ratio %.3f halo %u\n",
                kShards, greedyStats.cutEdgeRatio, greedyStats.haloVertices,
                hashStats.cutEdgeRatio, hashStats.haloVertices);

    // Sharded steady-state training epoch (fused + shard-major tasks).
    GnnModel shardModel(graph, modelConfig);
    TrainerConfig shardTrainerConfig = trainerConfig;
    shardTrainerConfig.tech.shards = kShards;
    Trainer shardTrainer(shardModel, task.features, task.labels,
                         shardTrainerConfig);
    const std::vector<EpochStats> shardHistory = shardTrainer.train();
    std::vector<double> shardEpochSeconds;
    for (std::size_t i = 1; i < shardHistory.size(); ++i)
        shardEpochSeconds.push_back(shardHistory[i].seconds);
    const double epochSecondsSharded =
        shardEpochSeconds.empty() ? shardHistory.back().seconds
                                  : median(std::move(shardEpochSeconds));
    std::printf("steady-state epoch (sharded k=%zu): %.4f s "
                "(final loss %.4f)\n",
                kShards, epochSecondsSharded, shardHistory.back().loss);

    // Gather traffic, exact vs delayed-halo: delayed pulls each halo row
    // once per shard instead of once per cut edge.
    registry.setEnabled(true);
    obs::Counter &partBytes = registry.counter("partition.bytes_gathered");
    obs::Counter &partHaloBytes = registry.counter("partition.halo_bytes");
    const std::uint64_t partBytesBase = partBytes.value();
    const std::uint64_t partHaloBase = partHaloBytes.value();
    aggregate(graph, features, aggOut, spec, Schedule::sharded(greedyPlan));
    const std::uint64_t bytesExact = partBytes.value() - partBytesBase;
    aggregate(graph, features, aggOut, spec,
              Schedule::sharded(greedyPlan, true));
    const std::uint64_t bytesDelayed =
        partBytes.value() - partBytesBase - bytesExact;
    const std::uint64_t haloBytes = partHaloBytes.value() - partHaloBase;
    registry.setEnabled(metricsWereEnabled);
    std::printf("sharded gather bytes: exact %llu   delayed %llu   "
                "halo %llu\n",
                static_cast<unsigned long long>(bytesExact),
                static_cast<unsigned long long>(bytesDelayed),
                static_cast<unsigned long long>(haloBytes));

    // Simulated locality: DRAM line transfers and cache hit rates for
    // one aggregation layer under each processing order.
    const auto simLayer = [&](const ProcessingOrder *order) {
        sim::Machine machine(sim::paperMachine(64));
        sim::LayerWorkload workload;
        workload.graph = &graph;
        workload.order = order;
        workload.fIn = data.hiddenFeatures;
        workload.fOut = data.hiddenFeatures;
        workload.impl = sim::LayerImpl::Basic;
        workload.doUpdate = false;
        return sim::simulateLayer(machine, workload);
    };
    const ProcessingOrder locality = localityOrder(graph);
    struct SimRow
    {
        const char *name;
        sim::RunResult result;
    };
    const SimRow simRows[] = {
        {"identity", simLayer(nullptr)},
        {"locality (Alg. 3)", simLayer(&locality)},
        {"shard-major greedy", simLayer(&greedyPlan.shardMajorOrder)},
        {"shard-major hash", simLayer(&hashPlan.shardMajorOrder)},
    };
    std::printf("%-20s %12s %8s %8s\n", "sim order", "dram lines",
                "l2 hit", "llc hit");
    const auto hitRate = [](const sim::CacheStats &stats) {
        return stats.accesses == 0
                   ? 0.0
                   : static_cast<double>(stats.hits) /
                         static_cast<double>(stats.accesses);
    };
    for (const SimRow &row : simRows) {
        std::printf("%-20s %12llu %8.3f %8.3f\n", row.name,
                    static_cast<unsigned long long>(
                        row.result.dram.lineTransfers),
                    hitRate(row.result.l2Total),
                    hitRate(row.result.l3Stats));
    }
    const std::uint64_t simDramGlobal = simRows[0].result.dram.lineTransfers;
    const std::uint64_t simDramSharded =
        simRows[2].result.dram.lineTransfers;

    // --- Online serving: hot-vertex cache A/B -----------------------------
    // The serving cache targets power-law fan-in, which the planted-
    // community products analogue deliberately lacks — so this section
    // runs on a small R-MAT graph (the serving bench's validated
    // recipe: wide features make serving gather-bound, hub-heavy
    // traffic gives the cache its target). Same open-loop Zipf/Poisson
    // arrival schedule for both runs (same seed); the only difference
    // is the hot-vertex cache. The gather-byte reduction is
    // deterministic enough to gate in CI; the latency columns are
    // archived.
    RmatParams serveRmat;
    serveRmat.scale = 13;
    serveRmat.avgDegree = 16.0;
    serveRmat.seed = 5;
    const CsrGraph serveGraph = generateRmat(serveRmat);
    constexpr std::size_t kServeWidth = 128;
    DenseMatrix serveFeatures(serveGraph.numVertices(), kServeWidth);
    serveFeatures.fillUniform(-1.0f, 1.0f, 29);
    GnnLayer serveHidden(kServeWidth, kServeWidth, true);
    GnnLayer serveOut(kServeWidth, kClasses, false);
    serveHidden.initWeights(19);
    serveOut.initWeights(23);
    serve::ServeConfig serveConfig;
    serveConfig.fanouts = {10, 10};
    serveConfig.maxBatch = 64;
    serveConfig.latencyBudgetUs = 100;
    serveConfig.hotCacheCapacity = 1024;
    // Pin admission at the top-(capacity/2) degree rank: the admissible
    // hub set fits the cache with headroom, so every full-neighborhood
    // fill lands in warmup and the measured phase is churn-free — the
    // tail then shows the hit path, not eviction refill spikes.
    serveConfig.hotCacheMinDegree = serve::churnFreeDegreeThreshold(
        serveGraph, serveConfig.hotCacheCapacity);
    serve::LoadGenConfig serveLoad;
    serveLoad.numRequests = 8000;
    serveLoad.warmupRequests = 1600;
    serveLoad.offeredQps = 15000.0;
    serveLoad.zipfExponent = 0.9;
    serveLoad.seed = 7;
    serve::LoadGenReport serveOn;
    {
        serve::InferenceServer server(serveGraph, serveFeatures,
                                      {&serveHidden, &serveOut},
                                      serveConfig);
        serveOn = serve::runServeLoad(server, serveLoad);
    }
    serve::LoadGenReport serveOff;
    {
        serve::ServeConfig offConfig = serveConfig;
        offConfig.hotCacheCapacity = 0;
        serve::InferenceServer server(serveGraph, serveFeatures,
                                      {&serveHidden, &serveOut},
                                      offConfig);
        serveOff = serve::runServeLoad(server, serveLoad);
    }
    std::printf("serve cache-on:  qps %8.0f  p50 %7.1fus  p99 %7.1fus  "
                "hit %5.1f%%  gathered %llu B\n",
                serveOn.qps, serveOn.p50Us, serveOn.p99Us,
                serveOn.cacheHitRate * 100.0,
                static_cast<unsigned long long>(serveOn.bytesGathered));
    std::printf("serve cache-off: qps %8.0f  p50 %7.1fus  p99 %7.1fus  "
                "gathered %llu B\n",
                serveOff.qps, serveOff.p50Us, serveOff.p99Us,
                static_cast<unsigned long long>(serveOff.bytesGathered));

    // --- JSON artifact ----------------------------------------------------
    const std::string path = options.getString("output");
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"dataset\": \"products\",\n");
    std::fprintf(out, "  \"vertices\": %zu,\n", numVertices);
    std::fprintf(out, "  \"edges\": %zu,\n", numEdges);
    std::fprintf(out, "  \"hidden_features\": %zu,\n", data.hiddenFeatures);
    std::fprintf(out, "  \"threads\": %zu,\n",
                 ThreadPool::global().numThreads());
    std::fprintf(out, "  \"epoch_seconds\": %.6f,\n", steadyEpochSeconds);
    std::fprintf(out, "  \"epoch_seconds_bf16\": %.6f,\n",
                 steadyEpochSecondsBf16);
    std::fprintf(out, "  \"final_loss\": %.6f,\n", history.back().loss);
    std::fprintf(out, "  \"final_loss_bf16\": %.6f,\n",
                 historyBf16.back().loss);
    std::fprintf(out, "  \"bf16_native\": %s,\n",
                 bf16GemmIsNative() ? "true" : "false");
    std::fprintf(out, "  \"bytes_gathered_fp32\": %llu,\n",
                 static_cast<unsigned long long>(bytesFp32));
    std::fprintf(out, "  \"bytes_gathered_bf16\": %llu,\n",
                 static_cast<unsigned long long>(bytesBf16));
    std::fprintf(out, "  \"gather_traffic_ratio\": %.4f,\n", gatherRatio);
    std::fprintf(out, "  \"backward_seconds_unfused\": %.6f,\n",
                 unfusedSeconds);
    std::fprintf(out, "  \"backward_seconds_fused\": %.6f,\n",
                 fusedSeconds);
    std::fprintf(out, "  \"backward_speedup\": %.3f,\n", speedup);
    std::fprintf(out, "  \"shard_count\": %zu,\n", kShards);
    std::fprintf(out, "  \"cut_edge_ratio\": %.4f,\n",
                 greedyStats.cutEdgeRatio);
    std::fprintf(out, "  \"halo_bytes\": %llu,\n",
                 static_cast<unsigned long long>(haloBytes));
    std::fprintf(out, "  \"bytes_gathered_sharded\": %llu,\n",
                 static_cast<unsigned long long>(bytesDelayed));
    std::fprintf(out, "  \"epoch_seconds_sharded\": %.6f,\n",
                 epochSecondsSharded);
    std::fprintf(out, "  \"sim_dram_lines_global\": %llu,\n",
                 static_cast<unsigned long long>(simDramGlobal));
    std::fprintf(out, "  \"sim_dram_lines_sharded\": %llu,\n",
                 static_cast<unsigned long long>(simDramSharded));
    std::fprintf(out, "  \"aggregation_gflops\": %.3f,\n", aggGflops);
    std::fprintf(out, "  \"aggregation_bf16_gflops\": %.3f,\n",
                 aggBf16Gflops);
    std::fprintf(out, "  \"dma_aggregation_gflops\": %.3f,\n",
                 dmaAggGflops);
    std::fprintf(out, "  \"gemm_bf16_gflops\": %.3f,\n", gemmBf16Gflops);
    std::fprintf(out, "  \"gemm_gflops\": %.3f,\n", gemmGflops);
    std::fprintf(out, "  \"serve\": {\n");
    std::fprintf(out, "    \"hot_cache_capacity\": %zu,\n",
                 serveConfig.hotCacheCapacity);
    std::fprintf(out, "    \"offered_qps\": %.1f,\n",
                 serveLoad.offeredQps);
    std::fprintf(out, "    \"qps\": %.1f,\n", serveOn.qps);
    std::fprintf(out, "    \"p50_us\": %.2f,\n", serveOn.p50Us);
    std::fprintf(out, "    \"p99_us\": %.2f,\n", serveOn.p99Us);
    std::fprintf(out, "    \"mean_batch_size\": %.2f,\n",
                 serveOn.meanBatchSize);
    std::fprintf(out, "    \"cache_hit_rate\": %.4f,\n",
                 serveOn.cacheHitRate);
    std::fprintf(out, "    \"bytes_gathered\": %llu,\n",
                 static_cast<unsigned long long>(serveOn.bytesGathered));
    std::fprintf(out, "    \"dropped\": %llu,\n",
                 static_cast<unsigned long long>(serveOn.dropped));
    std::fprintf(out, "    \"qps_nocache\": %.1f,\n", serveOff.qps);
    std::fprintf(out, "    \"p50_us_nocache\": %.2f,\n", serveOff.p50Us);
    std::fprintf(out, "    \"p99_us_nocache\": %.2f,\n", serveOff.p99Us);
    std::fprintf(out, "    \"bytes_gathered_nocache\": %llu,\n",
                 static_cast<unsigned long long>(serveOff.bytesGathered));
    std::fprintf(out, "    \"dropped_nocache\": %llu\n",
                 static_cast<unsigned long long>(serveOff.dropped));
    std::fprintf(out, "  }");
    // When tracing was on, fold the flat per-phase summary into the same
    // artifact so CI diffs phase totals alongside the headline rates.
    if (obs::TraceRecorder::global().enabled()) {
        const std::vector<obs::PhaseSummary> phases =
            obs::TraceRecorder::global().summarize();
        std::fprintf(out, ",\n  \"phases\": {");
        for (std::size_t i = 0; i < phases.size(); ++i) {
            std::fprintf(out,
                         "%s\n    \"%s\": {\"count\": %llu, "
                         "\"seconds\": %.6f}",
                         i == 0 ? "" : ",", phases[i].name.c_str(),
                         static_cast<unsigned long long>(phases[i].count),
                         phases[i].seconds);
        }
        std::fprintf(out, "\n  }");
    }
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());

    if (!traceOut.empty()) {
        obs::TraceRecorder::global().writeChromeJson(traceOut);
        std::printf("wrote %s\n", traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        obs::MetricsRegistry::global().writeJson(metricsOut);
        std::printf("wrote %s\n", metricsOut.c_str());
    }
    return 0;
}
