/**
 * @file
 * Tests of the library extensions beyond the paper's headline path:
 * bf16 features, GIN, model checkpointing, the sampled mini-batch
 * trainer, masked training and the BFS processing order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "gnn/gnn_model.h"
#include "gnn/minibatch_trainer.h"
#include "gnn/serialization.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "kernels/aggregation.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

TEST(Bf16, ConversionRoundTripWithinHalfUlp)
{
    DenseMatrix dense(50, 96);
    dense.fillUniform(-10.0f, 10.0f, 230);
    Bf16Matrix packed(50, 96);
    packed.fromDense(dense);
    DenseMatrix restored(50, 96);
    packed.toDense(restored);
    for (std::size_t r = 0; r < 50; ++r) {
        for (std::size_t c = 0; c < 96; ++c) {
            const float a = dense.at(r, c);
            const float b = restored.at(r, c);
            // bf16 keeps 8 mantissa bits: relative error < 2^-8.
            EXPECT_NEAR(b, a, std::abs(a) / 256.0f + 1e-30f);
        }
    }
}

TEST(Bf16, ExactValuesSurviveConversion)
{
    DenseMatrix dense(1, 16);
    dense.at(0, 0) = 1.0f;
    dense.at(0, 1) = -2.5f;
    dense.at(0, 2) = 0.0f;
    dense.at(0, 3) = 256.0f;
    Bf16Matrix packed(1, 16);
    packed.fromDense(dense);
    DenseMatrix restored(1, 16);
    packed.toDense(restored);
    EXPECT_EQ(restored.at(0, 0), 1.0f);
    EXPECT_EQ(restored.at(0, 1), -2.5f);
    EXPECT_EQ(restored.at(0, 2), 0.0f);
    EXPECT_EQ(restored.at(0, 3), 256.0f);
}

TEST(Bf16, AggregationTracksFp32WithinPrecision)
{
    CsrGraph g = generateErdosRenyi(300, 2400, false, 231);
    DenseMatrix h(g.numVertices(), 128);
    h.fillUniform(-1.0f, 1.0f, 232);
    Bf16Matrix packed(g.numVertices(), 128);
    packed.fromDense(h);
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix full(g.numVertices(), 128);
    DenseMatrix half(g.numVertices(), 128);
    aggregate(g, h, full, spec);
    aggregate(g, packed, half, spec);
    // Each input carries <2^-8 relative error; the normalised sums
    // stay well within 1% for unit-scale features.
    EXPECT_LT(full.maxAbsDiff(half), 0.02);
    EXPECT_GT(full.maxAbsDiff(half), 0.0); // genuinely lossy
}

TEST(Bf16, TrafficIsHalfOfFp32)
{
    Bf16Matrix packed(1024, 256);
    DenseMatrix dense(1024, 256);
    EXPECT_EQ(packed.trafficBytes() * 2, dense.allocatedBytes());
}

TEST(Gin, SpecSumsNeighborsWithWeightedSelf)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    CsrGraph g = builder.build();
    AggregationSpec spec = ginSpec(g, 0.5f);
    DenseMatrix h(3, 16);
    h.at(0, 0) = 2.0f;
    h.at(1, 0) = 3.0f;
    h.at(2, 0) = 4.0f;
    DenseMatrix out(3, 16);
    aggregate(g, h, out, spec);
    // (1 + 0.5) * 2 + 3 + 4 = 10.
    EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f);
}

TEST(Gin, ModelTrainsEndToEnd)
{
    CsrGraph g = generateBarabasiAlbert(300, 4, 234);
    SyntheticTask task = makeSyntheticTask(g, 4, 16, 0.3, 235);
    GnnModelConfig config;
    config.kind = GnnKind::Gin;
    config.featureWidths = {16, 32, 4};
    config.dropoutRate = 0.1;
    GnnModel model(g, config);
    TrainerConfig tc;
    tc.epochs = 8;
    tc.learningRate = 0.05f; // GIN's unnormalised sums need a small lr
    Trainer trainer(model, task.features, task.labels, tc);
    auto history = trainer.train();
    EXPECT_LT(history.back().loss, history.front().loss);
}

TEST(Serialization, RoundTripRestoresParametersExactly)
{
    CsrGraph g = generateErdosRenyi(100, 600, false, 210);
    GnnModelConfig config;
    config.featureWidths = {12, 24, 5};
    config.seed = 77;
    GnnModel model(g, config);
    DenseMatrix features(g.numVertices(), 12);
    features.fillUniform(-1.0f, 1.0f, 211);
    const DenseMatrix before =
        model.inference(features, TechniqueConfig::basic());

    const std::string path = testing::TempDir() + "graphite_ckpt.grph";
    saveModel(model, path);
    EXPECT_TRUE(isCheckpointFile(path));

    GnnModelConfig config2 = config;
    config2.seed = 12345; // different init, must be overwritten
    GnnModel restored(g, config2);
    loadModel(restored, path);
    const DenseMatrix after =
        restored.inference(features, TechniqueConfig::basic());
    EXPECT_DOUBLE_EQ(before.maxAbsDiff(after), 0.0);
    std::remove(path.c_str());
}

TEST(Serialization, RejectsNonCheckpointFiles)
{
    const std::string path = testing::TempDir() + "not_a_ckpt.bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
    EXPECT_FALSE(isCheckpointFile(path));
    std::remove(path.c_str());
}

TEST(MiniBatchTrainer, LossDecreasesOverEpochs)
{
    CsrGraph g = generateBarabasiAlbert(600, 5, 212);
    SyntheticTask task = makeSyntheticTask(g, 4, 16, 0.3, 213);
    MiniBatchConfig config;
    config.batchSize = 128;
    config.fanouts = {6, 6};
    config.learningRate = 0.1f;
    MiniBatchTrainer trainer(g, task.features, task.labels,
                             {16, 32, 4}, config);
    auto first = trainer.trainEpoch();
    MiniBatchEpochStats last{};
    for (int epoch = 0; epoch < 6; ++epoch)
        last = trainer.trainEpoch();
    EXPECT_LT(last.loss, first.loss);
    EXPECT_GT(first.samplingSeconds, 0.0);
    EXPECT_GT(first.layerSeconds, 0.0);
}

TEST(MiniBatchTrainer, EvaluateLossIsFinite)
{
    CsrGraph g = generateErdosRenyi(300, 3000, false, 214);
    SyntheticTask task = makeSyntheticTask(g, 3, 8, 0.3, 215);
    MiniBatchConfig config;
    config.batchSize = 100;
    config.fanouts = {5};
    MiniBatchTrainer trainer(g, task.features, task.labels, {8, 3},
                             config);
    const double loss = trainer.evaluateLoss();
    EXPECT_GT(loss, 0.0);
    EXPECT_LT(loss, 50.0);
}

TEST(MiniBatchTrainer, EvaluateLossLeavesTrainingRngAlone)
{
    // Same setup as EvaluateLossIsFinite: evaluation draws its batches
    // and samples from its own Rng(config.seed), so it repeats exactly
    // and the next epoch matches a trainer that never evaluated.
    CsrGraph g = generateErdosRenyi(300, 3000, false, 214);
    SyntheticTask task = makeSyntheticTask(g, 3, 8, 0.3, 215);
    MiniBatchConfig config;
    config.batchSize = 100;
    config.fanouts = {5};
    MiniBatchTrainer evaluated(g, task.features, task.labels, {8, 3},
                               config);
    const double first = evaluated.evaluateLoss();
    EXPECT_EQ(first, evaluated.evaluateLoss());
    MiniBatchTrainer fresh(g, task.features, task.labels, {8, 3}, config);
    EXPECT_EQ(evaluated.trainEpoch().loss, fresh.trainEpoch().loss);
}

/** max |a - b| over max |b|, over the logical elements. */
double
relativeDiff(const DenseMatrix &a, const DenseMatrix &b)
{
    double diff = 0.0;
    double scale = 0.0;
    for (std::size_t r = 0; r < b.rows(); ++r) {
        for (std::size_t c = 0; c < b.cols(); ++c) {
            diff = std::max<double>(diff, std::fabs(a.at(r, c) - b.at(r, c)));
            scale = std::max<double>(scale, std::fabs(b.at(r, c)));
        }
    }
    return diff / scale;
}

TEST(MiniBatchTrainer, FullFanoutBatchMatchesFullBatchSage)
{
    // Fan-outs >= the maximum degree keep every neighbor, and one batch
    // of all vertices makes every block the whole graph: the sampled
    // SAGE mean is then full-batch SAGE, so the loss and one SGD step
    // must agree with GnnModel's forward/backward/SGD.
    CsrGraph g = generateBarabasiAlbert(240, 4, 218);
    SyntheticTask task = makeSyntheticTask(g, 4, 12, 0.3, 219);
    const std::vector<std::size_t> widths = {12, 16, 4};
    const float learningRate = 0.2f;

    GnnModelConfig modelConfig;
    modelConfig.kind = GnnKind::Sage;
    modelConfig.featureWidths = widths;
    modelConfig.dropoutRate = 0.0;
    GnnModel model(g, modelConfig);

    EdgeId maxDegree = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        maxDegree = std::max(maxDegree, g.degree(v));
    MiniBatchConfig config;
    config.batchSize = g.numVertices();
    config.fanouts.assign(2, static_cast<VertexId>(maxDegree));
    config.learningRate = learningRate;
    MiniBatchTrainer trainer(g, task.features, task.labels, widths,
                             config);
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &from = model.layer(k);
        trainer.layer(k).updateParameters(
            [&](DenseMatrix &w, std::span<Feature> bias) {
                w = from.weights();
                std::copy(from.bias().begin(), from.bias().end(),
                          bias.begin());
            });
    }

    const TechniqueConfig tech = TechniqueConfig::basic();
    const DenseMatrix &logits = model.trainForward(task.features, tech);
    DenseMatrix lossGrad(logits.rows(), logits.cols());
    const double fullLoss =
        softmaxCrossEntropy(logits, task.labels, lossGrad);
    model.trainBackward(lossGrad, tech);
    model.sgdStep(learningRate);

    const double miniLoss = trainer.trainEpoch().loss;
    EXPECT_NEAR(miniLoss, fullLoss, 1e-4 * fullLoss);
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        EXPECT_LE(relativeDiff(trainer.layer(k).weights(),
                               model.layer(k).weights()),
                  1e-4)
            << "layer " << k;
        const std::vector<Feature> &bias = model.layer(k).bias();
        for (std::size_t c = 0; c < bias.size(); ++c) {
            EXPECT_NEAR(trainer.layer(k).bias()[c], bias[c],
                        1e-4 * std::max(1.0f, std::fabs(bias[c])))
                << "layer " << k << " bias " << c;
        }
    }
}

TEST(MaskedTraining, SplitMasksAreDisjointAndSized)
{
    auto [train, eval] = makeSplitMasks(10000, 0.6, 0.2, 31);
    std::size_t trainCount = 0;
    std::size_t evalCount = 0;
    for (std::size_t v = 0; v < train.size(); ++v) {
        trainCount += train[v];
        evalCount += eval[v];
        EXPECT_FALSE(train[v] && eval[v]) << "overlap at " << v;
    }
    EXPECT_NEAR(trainCount / 10000.0, 0.6, 0.03);
    EXPECT_NEAR(evalCount / 10000.0, 0.2, 0.03);
}

TEST(MaskedTraining, UnmaskedRowsGetZeroGradient)
{
    DenseMatrix logits(6, 3);
    logits.fillUniform(-1.0f, 1.0f, 32);
    std::vector<std::int32_t> labels = {0, 1, 2, 0, 1, 2};
    std::vector<std::uint8_t> mask = {1, 0, 1, 0, 0, 1};
    DenseMatrix grad(6, 3);
    const double loss = softmaxCrossEntropy(logits, labels, grad, mask);
    EXPECT_GT(loss, 0.0);
    for (std::size_t r = 0; r < 6; ++r) {
        double rowSum = 0.0;
        for (std::size_t c = 0; c < 3; ++c)
            rowSum += std::abs(grad.at(r, c));
        if (mask[r])
            EXPECT_GT(rowSum, 0.0) << "masked row " << r;
        else
            EXPECT_EQ(rowSum, 0.0) << "unmasked row " << r;
    }
}

TEST(MaskedTraining, GeneralisesToHeldOutVertices)
{
    CsrGraph g = generateBarabasiAlbert(500, 4, 33);
    SyntheticTask task = makeSyntheticTask(g, 4, 16, 0.25, 34);
    auto [train, eval] = makeSplitMasks(g.numVertices(), 0.5, 0.3, 35);

    GnnModelConfig config;
    config.featureWidths = {16, 32, 4};
    config.dropoutRate = 0.1;
    GnnModel model(g, config);
    TrainerConfig tc;
    tc.epochs = 12;
    tc.learningRate = 0.3f;
    tc.trainMask = train;
    tc.evalMask = eval;
    Trainer trainer(model, task.features, task.labels, tc);
    auto history = trainer.train();
    EXPECT_LT(history.back().loss, history.front().loss);
    // Held-out accuracy must clear the 25% random baseline: the model
    // generalises through the graph structure.
    EXPECT_GT(trainer.evaluate(), 0.35);
}

TEST(BfsOrder, IsPermutationAndLocal)
{
    // A large-diameter graph (ring with skip edges): BFS visits
    // topological neighborhoods consecutively, so reuse distances are
    // tiny; a random order scatters them. (On small-diameter hub
    // graphs the BFS frontier explodes and the property vanishes —
    // which is exactly why the paper needed Algorithm 3.)
    CsrGraph g = generateRing(2048, 2);
    ProcessingOrder order = bfsOrder(g);
    EXPECT_TRUE(isPermutation(g, order));
    const double bfs = averageReuseDistance(g, order, 2048);
    const double rnd =
        averageReuseDistance(g, randomOrder(g, 5), 2048);
    EXPECT_LT(bfs * 4, rnd);
}

TEST(BfsOrder, CoversDisconnectedComponents)
{
    // Two disjoint rings.
    GraphBuilder builder(20);
    for (VertexId v = 0; v < 10; ++v)
        builder.addUndirectedEdge(v, (v + 1) % 10);
    for (VertexId v = 10; v < 20; ++v)
        builder.addUndirectedEdge(v, 10 + ((v - 10 + 1) % 10));
    CsrGraph g = builder.build();
    EXPECT_TRUE(isPermutation(g, bfsOrder(g)));
}

} // namespace
} // namespace graphite
