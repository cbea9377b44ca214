/**
 * @file
 * Figure 2 reproduction: epoch-time breakdown of *sampled* GraphSAGE
 * training on a CPU-GPU platform, for mini-batch sizes 1024/2048/4096.
 *
 * The CPU side (neighborhood sampling + mini-batch construction +
 * feature gathering) runs for real on this host. The GPU side is a
 * device-time model: the paper's Titan V sustains roughly 500 GFLOP/s
 * effective on these small sampled GEMMs plus ~400 GB/s of effective
 * memory bandwidth on the gathered features (DESIGN.md §2's
 * substitution — the figure's point is the *ratio*: sampling dominates
 * with >80% of epoch time, and shrinking the batch makes it worse).
 */

#include <cstdio>

#include "bench_common.h"
#include "common/options.h"
#include "common/timer.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/dense_matrix.h"

using namespace graphite;
using namespace graphite::bench;

namespace {

/** Modelled device time for the GNN layers of one sampled batch. */
double
modelDeviceSeconds(const SampledTree &batch, std::size_t fIn,
                   std::size_t fHidden)
{
    constexpr double kGpuFlops = 500e9;  // effective GEMM throughput
    constexpr double kGpuBytes = 400e9;  // effective memory bandwidth
    double flops = 0.0;
    double bytes = 0.0;
    std::size_t width = fIn;
    for (const FlatBlock &block : batch.blocks) {
        // Aggregation: one multiply-add per edge element; update: the
        // dense FC on every destination row.
        flops += 2.0 * static_cast<double>(block.colIdx.size()) *
                 static_cast<double>(width);
        flops += 2.0 * static_cast<double>(block.dstVertices.size()) *
                 static_cast<double>(width) * fHidden;
        bytes += static_cast<double>(block.srcVertices.size()) * width *
                 sizeof(Feature);
        width = fHidden;
    }
    return flops / kGpuFlops + bytes / kGpuBytes;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options("Figure 2: sampling/mini-batching overhead");
    options.add("extra-shift", "0", "extra dataset shrink");
    options.add("fanout", "10", "neighbors sampled per layer");
    options.add("layers", "3", "GNN layers (= sampling depth)");
    options.parse(argc, argv);

    banner("Figure 2: sampled training epoch breakdown",
           "paper Figure 2 (sampling+minibatching vs GNN layer time)");

    BenchDataset data = makeBenchDataset(
        DatasetId::Products,
        static_cast<unsigned>(options.getInt("extra-shift")));
    const CsrGraph &graph = data.graph();
    const std::size_t fIn = data.dataset.inputFeatures;
    const std::size_t fHidden = data.dataset.hiddenFeatures;

    DenseMatrix features(graph.numVertices(), fIn);
    features.fillUniform(-1.0f, 1.0f, 3);

    const auto fanout =
        static_cast<VertexId>(options.getInt("fanout"));
    const auto layers =
        static_cast<std::size_t>(options.getInt("layers"));
    const std::vector<VertexId> fanouts(layers, fanout);

    std::printf("%-12s %14s %14s %10s   (paper: 88%%/92%%/94%% "
                "sampling share)\n",
                "batch", "sampling(s)", "layers(s)", "share");
    // The sampler's stamped index map lives across batches, as in
    // MiniBatchTrainer.
    SamplerScratch scratch(graph.numVertices());
    SampledTree batch;
    for (std::size_t batchSize : {1024u, 2048u, 4096u}) {
        Rng rng(42);
        Timer hostTimer;
        double deviceSeconds = 0.0;
        double hostSeconds = 0.0;
        auto batches = makeEpochBatches(graph, batchSize, rng);
        for (const auto &seeds : batches) {
            Timer t;
            sampleMiniBatch(graph, seeds, fanouts, rng, scratch, batch);
            DenseMatrix staged =
                gatherBatchFeatures(features, batch.inputVertices());
            hostSeconds += t.seconds();
            deviceSeconds += modelDeviceSeconds(batch, fIn, fHidden);
        }
        const double share =
            hostSeconds / (hostSeconds + deviceSeconds) * 100.0;
        std::printf("batch-%-6zu %14.3f %14.3f %9.1f%%\n", batchSize,
                    hostSeconds, deviceSeconds, share);
        (void)hostTimer;
    }
    std::printf("\nexpected shape: sampling+minibatching dominates "
                "(>80%%) and worsens as batches shrink\n");
    return 0;
}
