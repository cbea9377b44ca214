/**
 * @file
 * The paper's motivating comparison (Sections 1 and 3), end to end on
 * real code: sampled mini-batch training — the workaround for
 * memory-limited accelerators — versus the full-batch training CPUs'
 * memory capacity enables. Mini-batching pays per-epoch sampling and
 * feature-staging costs and trains on a stochastic approximation;
 * full-batch touches every edge exactly once per epoch.
 *
 *   $ ./fullbatch_vs_sampled [--scale=13] [--epochs=8]
 */

#include <cstdio>

#include "common/options.h"
#include "common/timer.h"
#include "gnn/minibatch_trainer.h"
#include "gnn/trainer.h"
#include "graph/generators.h"

using namespace graphite;

int
main(int argc, char **argv)
{
    Options options("full-batch vs sampled training");
    options.add("scale", "13", "log2 of the vertex count");
    options.add("epochs", "8", "epochs for each trainer");
    options.parse(argc, argv);

    CommunityParams params;
    params.numVertices = VertexId{1} << options.getInt("scale");
    params.communitySize = 64;
    params.intraDegree = 10;
    params.interDegree = 3;
    CsrGraph graph = generateCommunityGraph(params);
    SyntheticTask task = makeSyntheticTask(graph, 6, 32, 0.35, 21);
    const auto epochs =
        static_cast<std::size_t>(options.getInt("epochs"));
    std::printf("graph: %u vertices, %llu edges; %zu epochs each\n\n",
                graph.numVertices(),
                static_cast<unsigned long long>(graph.numEdges()),
                epochs);

    // --- Sampled mini-batch training (the Figure 2 regime) ---
    {
        MiniBatchConfig config;
        config.batchSize = 1024;
        config.fanouts = {10, 10};
        config.learningRate = 0.1f;
        MiniBatchTrainer trainer(graph, task.features, task.labels,
                                 {32, 64, 6}, config);
        double sampling = 0.0;
        double layers = 0.0;
        double loss = 0.0;
        Timer timer;
        for (std::size_t e = 0; e < epochs; ++e) {
            MiniBatchEpochStats stats = trainer.trainEpoch();
            sampling += stats.samplingSeconds;
            layers += stats.layerSeconds;
            loss = stats.loss;
        }
        std::printf("sampled  : %.2fs total (%.2fs sampling+staging = "
                    "%.0f%%, %.2fs layers), final loss %.4f\n",
                    timer.seconds(), sampling,
                    sampling / (sampling + layers) * 100.0, layers,
                    loss);
    }

    // --- Full-batch training (what Graphite optimises) ---
    {
        GnnModelConfig config;
        config.kind = GnnKind::Sage;
        config.featureWidths = {32, 64, 6};
        config.dropoutRate = 0.3;
        GnnModel model(graph, config);
        TrainerConfig trainerConfig;
        trainerConfig.epochs = epochs;
        trainerConfig.learningRate = 0.3f;
        trainerConfig.tech = TechniqueConfig::combinedLocality();
        Trainer trainer(model, task.features, task.labels,
                        trainerConfig);
        Timer timer;
        auto history = trainer.train();
        std::printf("fullbatch: %.2fs total (every edge each epoch, "
                    "no sampling), final loss %.4f\n",
                    timer.seconds(), history.back().loss);
    }

    std::printf("\nnote: here the layers also run on this CPU; in "
                "Figure 2's CPU+GPU pipeline the layer time shrinks to "
                "GPU speed while the sampling/staging cost stays — "
                "which is how preparation comes to dominate (>80%%) "
                "and why full-batch CPU training avoids it entirely\n");
    return 0;
}
